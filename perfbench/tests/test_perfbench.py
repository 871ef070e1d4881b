"""The benchmark's own tests: inputs, output checker, statistics, spans.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import copy

import pytest

from perfbench import inputs
from perfbench.check import (
    check_frontier,
    check_outcome,
    check_result,
    longest_path,
    tmin,
    translate,
)
from perfbench.spans import Recorder, self_times
from perfbench.stats import percentile


def diamond():
    """a -> (b, c) -> d, with a delayed back edge d -> a that must be ignored."""
    nodes = ["a", "b", "c", "d"]
    return {
        "name": "diamond",
        "nodes": nodes,
        "ops": {n: "add" for n in nodes},
        "edges": [["a", "b", 0], ["a", "c", 0], ["b", "d", 0], ["c", "d", 0], ["d", "a", 1]],
        "times": {n: [1, 2, 4] for n in nodes},
        "costs": {n: [9.0, 5.0, 1.0] for n in nodes},
    }


def diamond_result():
    """A correct result at deadline 7: a and c medium, b slow, d fast."""
    assignment = {"a": 1, "b": 2, "c": 1, "d": 0}
    schedule = {
        "a": {"start": 0, "fu_type": 1, "fu_index": 0},
        "b": {"start": 2, "fu_type": 2, "fu_index": 0},
        "c": {"start": 2, "fu_type": 1, "fu_index": 0},
        "d": {"start": 6, "fu_type": 0, "fu_index": 0},
    }
    return {"deadline": 7, "cost": 5.0 + 1.0 + 5.0 + 9.0, "assignment": assignment,
            "configuration": [1, 1, 1], "schedule": schedule}


# -- inputs --------------------------------------------------------------
@pytest.mark.parametrize("make", [
    lambda seed: inputs.synth_ops(seed),
    lambda seed: inputs.frontier_ops(seed),
    lambda seed: inputs.serve_plan(seed, 5.0),
], ids=["synth", "frontier", "serve"])
def test_same_seed_gives_byte_identical_inputs(make):
    assert inputs.fingerprint(make(7)) == inputs.fingerprint(make(7))
    assert inputs.fingerprint(make(7)) != inputs.fingerprint(make(8))


def test_synth_mix_has_feasible_and_infeasible_deadlines():
    ops = inputs.synth_ops(3)
    below = [op for op in ops if op["deadline"] < tmin(op["inst"])]
    assert len(below) == inputs.SYNTH_INFEASIBLE
    for op in ops:
        if op not in below:
            assert tmin(op["inst"]) <= op["deadline"] <= 2 * tmin(op["inst"])
    layered = [op for op in ops if op["inst"]["name"].startswith("layered")]
    assert len(layered) == len(inputs.SYNTH_LAYERED) * inputs.SYNTH_PER_LAYERED
    assert max(len(op["inst"]["nodes"]) for op in layered) <= 60


def test_twin_is_isomorphic_and_maps_back():
    inst = inputs.with_table(inputs.suite_structure("elliptic"), inputs._rng(1, "t"))
    twin, back = inputs.relabel(inst, inputs._rng(1, "u"))
    assert sorted(back[n] for n in twin["nodes"]) == sorted(inst["nodes"])
    assert tmin(twin) == tmin(inst)
    for n in twin["nodes"]:
        assert twin["times"][n] == inst["times"][back[n]]


# -- checker ---------------------------------------------------------------
def test_checker_accepts_a_correct_result():
    assert longest_path(diamond(), {"a": 2, "b": 4, "c": 2, "d": 1}) == 7
    assert tmin(diamond()) == 3
    assert check_result(diamond(), 7, diamond_result()) == []


@pytest.mark.parametrize("mutate, expect", [
    (lambda r: r["assignment"].update(b=3), "not a table column"),
    (lambda r: r["assignment"].update(a=2), "exceeds deadline"),
    (lambda r: r.update(cost=r["cost"] + 1.0), "table sum"),
    (lambda r: r["schedule"]["d"].update(start=3), "before"),
    (lambda r: r["schedule"]["c"].update(fu_type=2), "assigned"),
    (lambda r: r["schedule"]["d"].update(start=7), "outside"),
    (lambda r: r.update(configuration=[1, 0, 1]), "configuration has 0"),
    (lambda r: r["schedule"]["b"].update(fu_type=1, start=2) or r["assignment"].update(b=1)
     or r.update(cost=20.0 - 1.0 + 5.0), "at once"),
], ids=["column", "path", "cost", "precedence", "type", "deadline", "units", "occupancy"])
def test_checker_rejects_mutations(mutate, expect):
    result = copy.deepcopy(diamond_result())
    mutate(result)
    problems = check_result(diamond(), 7, result)
    assert problems and any(expect in p for p in problems), problems


def test_infeasible_verdicts_follow_the_benchmarks_own_tmin():
    assert check_outcome(diamond(), 2, None, "InfeasibleError") == []
    assert check_outcome(diamond(), 2, diamond_result(), None)
    assert check_outcome(diamond(), 7, None, "InfeasibleError")


def test_frontier_check_rejects_rising_cost_and_late_start():
    fast = {n: 0 for n in "abcd"}
    slow = {"a": 1, "b": 2, "c": 1, "d": 0}
    good = [{"deadline": 3, "cost": 36.0, "assignment": fast},
            {"deadline": 7, "cost": 20.0, "assignment": slow}]
    assert check_frontier(diamond(), 7, good) == []
    rising = [good[0], dict(good[1], cost=37.0)]
    assert any("cost rises" in p for p in check_frontier(diamond(), 7, rising))
    assert any("starts at" in p for p in check_frontier(diamond(), 7, good[1:]))


def test_checker_against_the_program_and_a_relabeled_twin():
    from repro import synthesize

    inst = inputs.with_table(inputs.suite_structure("elliptic"), inputs._rng(2, "t"))
    deadline = tmin(inst) + 5
    doc = synthesize(*inputs.to_repro(inst), deadline).to_dict()
    assert check_result(inst, deadline, doc) == []
    twin, back = inputs.relabel(inst, inputs._rng(2, "u"))
    forward = {old: new for new, old in back.items()}
    assert check_result(twin, deadline, translate(doc, forward)) == []
    broken = copy.deepcopy(doc)
    node = inst["nodes"][0]
    broken["schedule"][node]["start"] += 1000
    assert check_result(inst, deadline, broken)


# -- statistics and spans ----------------------------------------------------
def test_percentile_refuses_unsupported_ranks():
    with pytest.raises(ValueError):
        percentile(list(range(99)), 90)
    assert percentile(list(range(100)), 90) == pytest.approx(89.1)
    with pytest.raises(ValueError):
        percentile(list(range(19)), 50)
    assert percentile(list(range(21)), 50) == 10


def test_self_time_subtracts_child_coverage_once():
    rec = Recorder()
    root = rec.add("root", 0.0, 10.0)
    rec.add("a", 1.0, 3.0, parent=root)
    rec.add("b", 2.0, 5.0, parent=root)
    rec.add("c", 8.0, 12.0, parent=root)
    assert self_times(rec.spans)[root] == pytest.approx(4.0)


def test_wrap_restores_the_original():
    import types

    mod = types.SimpleNamespace(f=lambda x: x + 1)
    original = mod.f
    rec = Recorder()
    with rec.wrap(mod, "f", "f"):
        assert mod.f(1) == 2
    assert mod.f is original
    assert [s["name"] for s in rec.spans] == ["f"]
