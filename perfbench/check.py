"""Output checks that do not trust the code under test.

Every check works on the benchmark's own plain instance form (see
``perfbench.inputs``) and on result documents in the v1 wire shape
(``SynthesisResult.to_dict()``: ``cost``, ``deadline``, ``assignment``,
``configuration``, ``schedule``).  Nothing here imports ``repro``: the
longest path, the cost sum and the schedule rules are recomputed from
the instance alone.

Each ``check_*`` function returns a list of problems; an empty list
means the output passed.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

Instance = Dict[str, Any]

#: Relative tolerance for float cost sums (the program may add in
#: another order than the checker).
COST_RTOL = 1e-9


def _zero_delay_order(inst: Instance) -> Tuple[List[str], Dict[str, List[str]]]:
    """Topological order and predecessor lists of the zero-delay part."""
    preds: Dict[str, List[str]] = {n: [] for n in inst["nodes"]}
    succs: Dict[str, List[str]] = {n: [] for n in inst["nodes"]}
    for u, v, d in inst["edges"]:
        if d == 0:
            preds[v].append(u)
            succs[u].append(v)
    indeg = {n: len(preds[n]) for n in inst["nodes"]}
    ready = [n for n in inst["nodes"] if indeg[n] == 0]
    order: List[str] = []
    while ready:
        n = ready.pop()
        order.append(n)
        for s in succs[n]:
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
    if len(order) != len(inst["nodes"]):
        raise ValueError(f"instance {inst['name']!r} has a zero-delay cycle")
    return order, preds


def longest_path(inst: Instance, duration: Mapping[str, int]) -> int:
    """Longest zero-delay path when node ``n`` takes ``duration[n]`` steps."""
    order, preds = _zero_delay_order(inst)
    finish: Dict[str, int] = {}
    for n in order:
        start = max((finish[p] for p in preds[n]), default=0)
        finish[n] = start + duration[n]
    return max(finish.values(), default=0)


def tmin(inst: Instance) -> int:
    """Minimum completion time: every node on its fastest type."""
    return longest_path(inst, {n: min(inst["times"][n]) for n in inst["nodes"]})


def check_assignment(
    inst: Instance, deadline: int, assignment: Mapping[str, Any], cost: float
) -> List[str]:
    """Types are table columns, the path meets ``deadline``, cost adds up."""
    problems: List[str] = []
    nodes = inst["nodes"]
    if set(assignment) != set(nodes):
        return [f"assignment covers {len(assignment)} of {len(nodes)} nodes"]
    types: Dict[str, int] = {}
    for n in nodes:
        t = assignment[n]
        if not isinstance(t, int) or isinstance(t, bool) or not 0 <= t < len(inst["times"][n]):
            problems.append(f"node {n!r}: type {t!r} is not a table column")
        else:
            types[n] = t
    if problems:
        return problems
    length = longest_path(inst, {n: inst["times"][n][types[n]] for n in nodes})
    if length > deadline:
        problems.append(f"longest zero-delay path {length} exceeds deadline {deadline}")
    total = math.fsum(inst["costs"][n][types[n]] for n in nodes)
    if not math.isclose(total, cost, rel_tol=COST_RTOL, abs_tol=COST_RTOL):
        problems.append(f"reported cost {cost!r} != table sum {total!r}")
    return problems


def check_schedule(
    inst: Instance,
    deadline: int,
    assignment: Mapping[str, int],
    configuration: Sequence[int],
    schedule: Mapping[str, Mapping[str, int]],
) -> List[str]:
    """Precedence, durations, deadline and per-type occupancy."""
    nodes = inst["nodes"]
    if set(schedule) != set(nodes):
        return [f"schedule covers {len(schedule)} of {len(nodes)} nodes"]
    problems: List[str] = []
    end: Dict[str, int] = {}
    busy: Dict[Tuple[int, int], List[Tuple[int, int, str]]] = {}
    for n in nodes:
        op = schedule[n]
        t = op["fu_type"]
        if t != assignment.get(n):
            problems.append(f"node {n!r} runs on type {t}, assigned {assignment.get(n)}")
            continue
        start = op["start"]
        end[n] = start + inst["times"][n][t]
        if start < 0 or end[n] > deadline:
            problems.append(f"node {n!r} occupies [{start}, {end[n]}) outside [0, {deadline})")
        if not 0 <= op["fu_index"] < configuration[t]:
            problems.append(
                f"node {n!r} on unit {op['fu_index']} of type {t}, "
                f"configuration has {configuration[t]}"
            )
        busy.setdefault((t, op["fu_index"]), []).append((start, end[n], n))
    if problems:
        return problems
    for u, v, d in inst["edges"]:
        if d == 0 and schedule[v]["start"] < end[u]:
            problems.append(f"edge {u!r}->{v!r}: starts at {schedule[v]['start']} before {end[u]}")
    for (t, idx), spans in busy.items():
        spans.sort()
        for (s0, e0, a), (s1, _, b) in zip(spans, spans[1:]):
            if s1 < e0:
                problems.append(f"unit {idx} of type {t} runs {a!r} and {b!r} at once")
    for t, count in enumerate(configuration):
        steps: Dict[int, int] = {}
        for n in nodes:
            if schedule[n]["fu_type"] == t:
                for step in range(schedule[n]["start"], end[n]):
                    steps[step] = steps.get(step, 0) + 1
        peak = max(steps.values(), default=0)
        if peak > count:
            problems.append(f"type {t}: {peak} ops at once on {count} units")
    return problems


def check_result(inst: Instance, deadline: int, result: Optional[Mapping[str, Any]]) -> List[str]:
    """Full check of one synthesis result document at ``deadline``."""
    if result is None:
        return ["no result"]
    if result.get("deadline") != deadline:
        return [f"result is for deadline {result.get('deadline')!r}, asked {deadline}"]
    problems = check_assignment(inst, deadline, result["assignment"], result["cost"])
    if problems:
        return problems
    return check_schedule(
        inst, deadline, result["assignment"], result["configuration"], result["schedule"]
    )


def check_outcome(
    inst: Instance, deadline: int, result: Optional[Mapping[str, Any]], error_type: Optional[str]
) -> List[str]:
    """A result below the benchmark's own Tmin must be ``InfeasibleError``."""
    floor = tmin(inst)
    if deadline < floor:
        if error_type == "InfeasibleError":
            return []
        return [f"deadline {deadline} < Tmin {floor} returned {error_type or 'a result'}"]
    if error_type is not None:
        return [f"deadline {deadline} >= Tmin {floor} raised {error_type}"]
    return check_result(inst, deadline, result)


def check_frontier(
    inst: Instance, max_deadline: int, points: Sequence[Mapping[str, Any]]
) -> List[str]:
    """Frontier knees start at Tmin, are feasible, and never get dearer."""
    if not points:
        return ["empty frontier"]
    problems: List[str] = []
    floor = tmin(inst)
    if points[0]["deadline"] != floor:
        problems.append(f"frontier starts at {points[0]['deadline']}, Tmin is {floor}")
    for prev, point in zip(points, points[1:]):
        if point["deadline"] <= prev["deadline"]:
            problems.append(f"deadlines not increasing at {point['deadline']}")
        if point["cost"] > prev["cost"]:
            problems.append(
                f"cost rises from {prev['cost']} to {point['cost']} at deadline {point['deadline']}"
            )
    for point in points:
        if point["deadline"] > max_deadline:
            problems.append(f"knee {point['deadline']} beyond max deadline {max_deadline}")
        problems.extend(
            check_assignment(inst, point["deadline"], point["assignment"], point["cost"])
        )
    return problems


def translate(result: Mapping[str, Any], mapping: Mapping[str, str]) -> Dict[str, Any]:
    """Rename the node-keyed sections of ``result`` through ``mapping``."""
    out = dict(result)
    out["assignment"] = {mapping[n]: t for n, t in result["assignment"].items()}
    out["schedule"] = {mapping[n]: op for n, op in result["schedule"].items()}
    return out
