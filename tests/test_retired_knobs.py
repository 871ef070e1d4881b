"""The retired engine-selection knobs: accepted, ignored, and warned about.

``kernel=``, ``incremental=``, ``tree_frontier(batch=)``,
``SynthesisService(batch=)``, ``dfg_assign_repeat(workers=)`` and
``dfg_frontier(workers=)`` without ``batch`` never changed a result; the packed engine now runs every single-instance
solve.  Under the v1 freeze each knob is still accepted outside
``STRICT_API`` — one ``DeprecationWarning``, result bit-identical to
the call without it — and rejected with a ``TypeError`` naming the
knob under ``STRICT_API`` (see ``docs/api.md``).
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import repro.apiutil
from repro.assign import (
    IncrementalTreeDP,
    dfg_assign_once,
    dfg_assign_repeat,
    dfg_frontier,
    min_completion_time,
    tree_assign,
    tree_cost_curve,
    tree_dp,
    tree_frontier,
)
from repro.fu.random_tables import random_table
from repro.fu.table import TimeCostTable
from repro.graph.classify import is_in_forest, is_out_forest
from repro.graph.dfg import DFG
from repro.serve import Request, SynthesisService
from repro.suite.registry import get_benchmark


def _instance(name: str, slack: int = 3):
    dfg = get_benchmark(name).dag()
    table = random_table(dfg, num_types=3, seed=2004)
    return dfg, table, min_completion_time(dfg, table) + slack


def _engine_view(engine):
    return engine.total_curve().tolist(), engine.traceback_at(engine.deadline)


def _call_tree_dp(**knob):
    tree, table, deadline = _instance("fir8")
    return _engine_view(tree_dp(tree, table, deadline, **knob))


def _call_tree_assign(**knob):
    tree, table, deadline = _instance("fir8")
    return tree_assign(tree, table, deadline, **knob)


def _call_tree_frontier(**knob):
    tree, table, deadline = _instance("volterra", slack=6)
    return tree_frontier(tree, table, max_deadline=deadline, **knob)


def _call_once(**knob):
    return dfg_assign_once(*_instance("diffeq"), **knob)


def _call_repeat(**knob):
    return dfg_assign_repeat(*_instance("elliptic"), **knob)


def _call_frontier(**knob):
    dfg, table, deadline = _instance("diffeq")
    return dfg_frontier(dfg, table, max_deadline=deadline, **knob)


def _call_service(**knob):
    dfg, table, deadline = _instance("elliptic")
    requests = [Request(dfg, table, deadline=deadline - i) for i in range(2)]
    with SynthesisService(**knob) as service:
        return [(r.key, r.result, r.error) for r in service.solve_batch(requests)]


#: (entry point, retired knob, a value that once selected another path)
RETIRED = [
    (_call_tree_dp, "kernel", "python"),
    (_call_tree_assign, "kernel", "python"),
    (_call_tree_frontier, "kernel", "python"),
    (_call_tree_frontier, "batch", True),
    (_call_once, "kernel", "python"),
    (_call_repeat, "kernel", "python"),
    (_call_repeat, "incremental", False),
    (_call_repeat, "workers", 2),
    (_call_frontier, "kernel", "python"),
    (_call_frontier, "incremental", False),
    (_call_frontier, "workers", 2),
    (_call_service, "batch", False),
]

IDS = [f"{call.__name__[len('_call_'):]}-{knob}" for call, knob, _ in RETIRED]


@pytest.mark.parametrize("call, knob, value", RETIRED, ids=IDS)
def test_retired_knob_warns_once_and_is_ignored(monkeypatch, call, knob, value):
    monkeypatch.setattr(repro.apiutil, "STRICT_API", False)
    baseline = call()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = call(**{knob: value})
    deprecations = [
        w for w in caught if issubclass(w.category, DeprecationWarning)
    ]
    assert len(deprecations) == 1, [str(w.message) for w in deprecations]
    assert repr(knob) in str(deprecations[0].message)
    assert deprecations[0].filename == __file__  # blames the caller
    assert got == baseline


@pytest.mark.parametrize("call, knob, value", RETIRED, ids=IDS)
def test_retired_knob_rejected_under_strict_api(call, knob, value):
    assert repro.apiutil.STRICT_API  # tests/conftest.py engages the freeze
    with pytest.raises(TypeError, match=f"retired argument.*{knob!r}"):
        call(**{knob: value})


def test_frontier_workers_with_batch_is_not_retired():
    dfg, table, deadline = _instance("diffeq")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fanned = dfg_frontier(
            dfg, table, max_deadline=deadline, batch=True, workers=2
        )
    assert fanned == _call_frontier()


def test_retired_positional_knob_is_ignored(monkeypatch):
    monkeypatch.setattr(repro.apiutil, "STRICT_API", False)
    tree, table, deadline = _instance("fir8")
    with pytest.warns(DeprecationWarning, match="'kernel'"):
        legacy = tree_dp(tree, table, deadline, None, "python")
    assert _engine_view(legacy) == _call_tree_dp()


class TestTreeCostCurveOnThePackedEngine:
    def test_empty_forest_is_the_zero_curve(self):
        curve = tree_cost_curve(DFG(name="empty"), TimeCostTable(2), 5)
        np.testing.assert_array_equal(curve, np.zeros(6))

    def test_in_forest_matches_the_reference_on_its_transpose(self):
        dfg, table, deadline = _instance("diffeq")
        assert is_in_forest(dfg) and not is_out_forest(dfg)
        reference = IncrementalTreeDP(dfg.transpose(), deadline).refresh(table)
        np.testing.assert_array_equal(
            tree_cost_curve(dfg, table, deadline), reference.total_curve()
        )
