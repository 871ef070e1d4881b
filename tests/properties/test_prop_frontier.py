"""Frontier properties over the full suite registry.

Two invariants the fuzzing harness also checks on random instances,
pinned here on every *registered* benchmark with the seed of record:

* frontiers are non-increasing in cost and strictly increasing in
  deadline (relaxing the constraint can only help);
* the packed DP kernel and the python reference
  (:mod:`repro.checkkit.reference`: ``IncrementalTreeDP`` driven
  through the production sweep for DAGs, a cold DP per deadline for
  forests) produce *identical* knees — same deadlines, same costs,
  same witnesses — on every benchmark shape.
"""

import pytest

from repro.assign.assignment import min_completion_time
from repro.assign.frontier import dfg_frontier, tree_frontier
from repro.assign.incremental import IncrementalTreeDP
from repro.checkkit.reference import reference_engine_sweep, reference_tree_frontier
from repro.fu.random_tables import random_table
from repro.graph.classify import is_in_forest, is_out_forest
from repro.suite.registry import benchmark_names, get_benchmark

SEED = 2004
SLACK = 6


def _instance(name):
    dag = get_benchmark(name).dag()
    table = random_table(dag, num_types=3, seed=SEED)
    horizon = min_completion_time(dag, table) + SLACK
    return dag, table, horizon


def _assert_monotone(points):
    costs = [p.cost for p in points]
    deadlines = [p.deadline for p in points]
    assert all(a >= b for a, b in zip(costs, costs[1:])), costs
    assert all(a < b for a, b in zip(deadlines, deadlines[1:])), deadlines


@pytest.mark.parametrize("name", benchmark_names())
def test_dfg_frontier_kernels_identical_and_monotone(name):
    dag, table, horizon = _instance(name)
    packed = dfg_frontier(dag, table, max_deadline=horizon)
    python = reference_engine_sweep(
        IncrementalTreeDP, dag, table, max_deadline=horizon
    )
    assert [tuple(p) for p in packed] == [tuple(p) for p in python]
    _assert_monotone(packed)


@pytest.mark.parametrize("name", benchmark_names())
def test_tree_frontier_kernels_identical_and_monotone(name):
    dag, table, horizon = _instance(name)
    if not (is_out_forest(dag) or is_in_forest(dag)):
        pytest.skip(f"{name} is not a forest")
    packed = tree_frontier(dag, table, max_deadline=horizon)
    python = reference_tree_frontier(dag, table, max_deadline=horizon)
    assert [tuple(p) for p in packed] == [tuple(p) for p in python]
    _assert_monotone(packed)
