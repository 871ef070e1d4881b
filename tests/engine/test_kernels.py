"""PackedTreeDP vs the python reference engine, plus window_bounds."""

from __future__ import annotations

import numpy as np
import pytest

from repro.assign.incremental import IncrementalTreeDP, PackedAssignDP
from repro.assign.tree_assign import tree_dp
from repro.engine import DPStats, window_bounds
from repro.errors import InfeasibleError, NotATreeError, TableError
from repro.fu.random_tables import random_table
from repro.graph.dfg import DFG


def make_table(dfg, seed=0, num_types=3):
    return random_table(dfg, num_types=num_types, seed=seed)


def _tree() -> DFG:
    return DFG.from_edges(
        [("r", "a"), ("r", "b"), ("b", "c"), ("b", "d")], name="tree"
    )


def _both(tree, deadline, **kw):
    return (
        PackedAssignDP(tree, deadline, **kw),
        IncrementalTreeDP(tree, deadline, **kw),
    )


# ----------------------------------------------------------------------
# window_bounds
# ----------------------------------------------------------------------
def _reference_bounds(occ_asap, occ_alap):
    m, horizon = occ_asap.shape
    bounds = []
    windows = np.arange(1, horizon + 1, dtype=np.float64)
    for j in range(m):
        if horizon == 0 or not occ_asap[j].any() and not occ_alap[j].any():
            bounds.append(0)
            continue
        lb_alap = np.max(np.ceil(np.cumsum(occ_alap[j]) / windows))
        lb_asap = np.max(np.ceil(np.cumsum(occ_asap[j][::-1]) / windows))
        bounds.append(int(max(lb_alap, lb_asap)))
    return bounds


def test_window_bounds_matches_reference_loop():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = int(rng.integers(1, 5))
        horizon = int(rng.integers(1, 12))
        occ_asap = rng.integers(0, 4, size=(m, horizon))
        occ_alap = rng.integers(0, 4, size=(m, horizon))
        got = window_bounds(occ_asap, occ_alap)
        assert got.tolist() == _reference_bounds(occ_asap, occ_alap)


def test_window_bounds_zero_horizon_and_shape_check():
    assert window_bounds(
        np.zeros((3, 0), dtype=np.int64), np.zeros((3, 0), dtype=np.int64)
    ).tolist() == [0, 0, 0]
    with pytest.raises(TableError, match="occupancy shapes"):
        window_bounds(np.zeros((2, 3)), np.zeros((2, 4)))


# ----------------------------------------------------------------------
# PackedTreeDP vs IncrementalTreeDP
# ----------------------------------------------------------------------
def test_engines_bitwise_identical_on_tree():
    tree = _tree()
    table = make_table(tree, seed=5)
    packed, python = _both(tree, 25)
    packed.refresh(table)
    python.refresh(table)
    np.testing.assert_array_equal(packed.total_curve(), python.total_curve())
    floor = packed.min_feasible()
    assert floor == python.min_feasible()
    for j in range(floor, 26):
        assert packed.traceback_at(j) == python.traceback_at(j)
    for n in tree.nodes():
        np.testing.assert_array_equal(packed.curve(n), python.curve(n))


def test_engines_identical_across_pin_rounds():
    tree = _tree()
    table = make_table(tree, seed=5)
    packed, python = _both(tree, 25, stats=DPStats())
    python.stats = DPStats()
    for t in (table, table.with_fixed("b", 1), table.with_fixed("c", 0), table):
        packed.refresh(t)
        python.refresh(t)
        np.testing.assert_array_equal(
            packed.total_curve(), python.total_curve()
        )
        assert packed.traceback_at(25) == python.traceback_at(25)
    # identical counters: clean nodes count as hits in both engines
    assert packed.stats.nodes_visited == python.stats.nodes_visited
    assert packed.stats.nodes_recomputed == python.stats.nodes_recomputed
    assert packed.stats.cache_hits == python.stats.cache_hits
    assert packed.cache_entries() == python.cache_entries()


def test_empty_forest():
    from repro.fu.table import TimeCostTable

    empty = DFG(name="empty")
    table = TimeCostTable(3)
    packed, python = _both(empty, 4)
    packed.refresh(table)
    python.refresh(table)
    np.testing.assert_array_equal(packed.total_curve(), python.total_curve())
    assert packed.total_curve().tolist() == [0.0] * 5
    assert packed.traceback_at(0) == {} == python.traceback_at(0)


def test_single_node():
    one = DFG(name="one")
    one.add_node("x", op="add")
    table = make_table(one, seed=2)
    packed, python = _both(one, 8)
    packed.refresh(table)
    python.refresh(table)
    np.testing.assert_array_equal(packed.total_curve(), python.total_curve())
    assert packed.traceback_at(8) == python.traceback_at(8)


def test_infeasible_deadline_same_error():
    tree = _tree()
    table = make_table(tree, seed=5)
    packed, python = _both(tree, 1)
    with pytest.raises(InfeasibleError) as from_packed:
        packed.refresh(table).traceback_at(1)
    with pytest.raises(InfeasibleError) as from_python:
        python.refresh(table).traceback_at(1)
    assert str(from_packed.value) == str(from_python.value)
    assert from_packed.value.min_feasible == from_python.value.min_feasible


def test_budget_out_of_range_same_error():
    tree = _tree()
    table = make_table(tree, seed=5)
    packed, python = _both(tree, 10)
    with pytest.raises(InfeasibleError) as from_packed:
        packed.refresh(table).traceback_at(11)
    with pytest.raises(InfeasibleError) as from_python:
        python.refresh(table).traceback_at(11)
    assert str(from_packed.value) == str(from_python.value)


def test_query_before_refresh_raises():
    packed = PackedAssignDP(_tree(), 10)
    with pytest.raises(InfeasibleError, match="refresh"):
        packed.total_curve()


def test_rejects_non_forest_and_negative_deadline():
    dag = DFG.from_edges([("a", "c"), ("b", "c")], name="vee")
    with pytest.raises(NotATreeError, match="out-forest"):
        PackedAssignDP(dag, 5)
    with pytest.raises(InfeasibleError, match=">= 0"):
        PackedAssignDP(_tree(), -1)


def test_clear_cache_recomputes_identically():
    tree = _tree()
    table = make_table(tree, seed=5)
    packed = PackedAssignDP(tree, 20)
    packed.refresh(table)
    before = packed.total_curve().copy()
    assert packed.cache_entries() > 0
    packed.clear_cache()
    assert packed.cache_entries() == 0
    packed.refresh(table)
    np.testing.assert_array_equal(packed.total_curve(), before)


def test_tree_dp_builds_the_packed_engine():
    tree = _tree()
    assert isinstance(tree_dp(tree, make_table(tree), 5), PackedAssignDP)


def test_result_at_matches_between_engines():
    tree = _tree()
    table = make_table(tree, seed=9)
    packed, python = _both(tree, 22)
    rp = packed.refresh(table).result_at(22)
    rq = python.refresh(table).result_at(22)
    assert dict(rp.assignment.items()) == dict(rq.assignment.items())
    assert rp.cost == rq.cost
    assert rp.completion_time == rq.completion_time
    assert rp.algorithm == rq.algorithm
