"""Seeded inputs for every workload, in the benchmark's own plain form.

An instance is a dict::

    {"name": str, "nodes": [id, ...], "ops": {id: op},
     "edges": [[u, v, delay], ...], "times": {id: [t0, t1, t2]},
     "costs": {id: [c0, c1, c2]}}

Graph *structures* come from the repository's registered suite (fixed
data).  Tables, layered DAGs, deadlines, relabelings and the serve
arrival schedule come from generators owned by this file, seeded from
``--seed`` alone, so a change to the program's own generators cannot
change what the benchmark feeds it.  The same seed gives byte-identical
inputs (pinned by ``perfbench/tests``).
"""

from __future__ import annotations

import json
import random
from typing import Any, Dict, List, Sequence, Tuple

from .check import Instance, tmin

#: Every registered suite graph at the time the benchmark was defined.
SYNTH_GRAPHS = (
    "biquad2", "biquad4", "dct8", "diffeq", "elliptic", "fft3", "fft4",
    "fir16", "fir8", "lattice4", "lattice8", "paper_example",
    "rls_laguerre", "volterra",
)
#: Layered DAG shapes (layers, width) of the synth mix; 60 nodes at most,
#: because DFG_Expand grows steeply beyond that.
SYNTH_LAYERED = ((6, 5), (8, 5), (10, 6))
SYNTH_PER_GRAPH = 10
SYNTH_PER_LAYERED = 6
SYNTH_INFEASIBLE = 14

#: frontier: (graph, tables per pass); the layered DAG has ~60 nodes.
FRONTIER_GRAPHS = (("elliptic", 4), ("dct8", 4), ("fft3", 4), ("fft4", 2), ("volterra", 4))
FRONTIER_LAYERED = ((10, 6), 2)

#: serve: pre-warmed instances (the warm classes replay these).
SERVE_WARM = ("fft4", "dct8", "elliptic", "rls_laguerre", "volterra", "diffeq")
#: serve: graphs of the cold classes; every cold request gets a fresh table.
SERVE_COLD = ("diffeq", "elliptic", "rls_laguerre", "lattice8", "fir16")
SERVE_SWEEP_GRAPH = "elliptic"
SERVE_SWEEP_POINTS = 4
SERVE_PORTFOLIO_GRAPH = "diffeq"
SERVE_PORTFOLIO_BUDGET = 200
#: Offered load of the open loop, requests per second.
SERVE_RATE = 17.5
#: Rounds of the repeated arrival pattern in one run.
SERVE_ROUNDS = 8
#: Share of each request class in the arrival schedule.
SERVE_MIX = (
    ("warm_repeat", 0.35),
    ("warm_twin", 0.35),
    ("cold_single", 0.12),
    ("cold_sweep", 0.06),
    ("cold_infeasible", 0.06),
    ("cold_portfolio", 0.06),
)

NUM_TYPES = 3


def _rng(seed: int, purpose: str) -> random.Random:
    return random.Random(f"perfbench:{seed}:{purpose}")


def suite_structure(name: str) -> Dict[str, Any]:
    """Nodes, ops and edges of a registered suite graph's DAG part."""
    from repro.suite.registry import get_benchmark

    dag = get_benchmark(name).dag()
    nodes = [str(n) for n in dag.nodes()]
    return {
        "name": name,
        "nodes": nodes,
        "ops": {str(n): dag.op(n) for n in dag.nodes()},
        "edges": [[str(u), str(v), int(d)] for u, v, d in dag.edges()],
    }


def layered_structure(layers: int, width: int, fan_in: int = 2) -> Dict[str, Any]:
    """A layered DAG: each node draws 1..fan_in parents in the layer above.

    The structure of each shape is fixed (its own seed, not ``--seed``):
    expansion cost swings several-fold between random structures of one
    shape, which would drown every other effect across seeds.  Tables
    and deadlines still vary with ``--seed``.
    """
    rng = _rng(0, f"layered{layers}x{width}")
    nodes = [f"l{i}n{j}" for i in range(layers) for j in range(width)]
    ops = {n: rng.choice(("add", "mul")) for n in nodes}
    edges = []
    for i in range(1, layers):
        for j in range(width):
            for p in sorted(rng.sample(range(width), rng.randint(1, fan_in))):
                edges.append([f"l{i - 1}n{p}", f"l{i}n{j}", 0])
    return {"name": f"layered{layers}x{width}", "nodes": nodes, "ops": ops, "edges": edges}


def with_table(structure: Dict[str, Any], rng: random.Random) -> Instance:
    """Attach a monotone 3-type table: faster types cost strictly more."""
    times: Dict[str, List[int]] = {}
    costs: Dict[str, List[float]] = {}
    for n in structure["nodes"]:
        t = rng.randint(1, 3)
        row_t = [t]
        for _ in range(NUM_TYPES - 1):
            t += rng.randint(1, 3)
            row_t.append(t)
        c = float(rng.randint(1, 9))
        row_c = [c]
        for _ in range(NUM_TYPES - 1):
            c += float(rng.randint(1, 9))
            row_c.append(c)
        row_c.reverse()
        times[n], costs[n] = row_t, row_c
    return dict(structure, times=times, costs=costs)


def stratified_deadlines(floor: int, count: int, rng: random.Random) -> List[int]:
    """``count`` deadlines spread over [floor, 2·floor], one per stratum."""
    span = floor + 1
    return [floor + int((k + rng.random()) * span / count) for k in range(count)]


def to_repro(inst: Instance) -> Tuple[Any, Any]:
    """Build the program's ``(DFG, TimeCostTable)`` from a plain instance."""
    from repro.fu.table import TimeCostTable
    from repro.graph.dfg import DFG

    dfg = DFG(name=inst["name"])
    for n in inst["nodes"]:
        dfg.add_node(n, op=inst["ops"][n])
    for u, v, d in inst["edges"]:
        dfg.add_edge(u, v, d)
    table = TimeCostTable.from_rows(
        {n: (inst["times"][n], inst["costs"][n]) for n in inst["nodes"]}
    )
    return dfg, table


def instance_doc(inst: Instance, deadline: int) -> Dict[str, Any]:
    """The inline instance document (``repro.io`` schema 1) of a request."""
    return {
        "schema_version": 1,
        "name": inst["name"],
        "nodes": [{"id": n, "op": inst["ops"][n]} for n in inst["nodes"]],
        "edges": inst["edges"],
        "rows": {n: {"times": inst["times"][n], "costs": inst["costs"][n]} for n in inst["nodes"]},
        "deadline": deadline,
    }


def relabel(inst: Instance, rng: random.Random) -> Tuple[Instance, Dict[str, str]]:
    """An isomorphic twin with fresh node names and shuffled order.

    Returns the twin and the map from twin names back to the originals.
    """
    perm = list(range(len(inst["nodes"])))
    rng.shuffle(perm)
    rename = {n: f"x{perm[i]}" for i, n in enumerate(inst["nodes"])}
    nodes = [rename[n] for n in inst["nodes"]]
    rng.shuffle(nodes)
    edges = [[rename[u], rename[v], d] for u, v, d in inst["edges"]]
    rng.shuffle(edges)
    twin = {
        "name": f"{inst['name']}-twin",
        "nodes": nodes,
        "ops": {rename[n]: op for n, op in inst["ops"].items()},
        "edges": edges,
        "times": {rename[n]: row for n, row in inst["times"].items()},
        "costs": {rename[n]: row for n, row in inst["costs"].items()},
    }
    return twin, {new: old for old, new in rename.items()}


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def synth_ops(seed: int) -> List[Dict[str, Any]]:
    """One pass of the synth closed loop: (instance, deadline) ops."""
    rng = _rng(seed, "synth")
    cases: List[Tuple[Instance, int]] = []
    for name in SYNTH_GRAPHS:
        structure = suite_structure(name)
        for k in range(SYNTH_PER_GRAPH):
            inst = with_table(structure, rng)
            floor = tmin(inst)
            cases.append((inst, stratified_deadlines(floor, SYNTH_PER_GRAPH, rng)[k]))
    for k in range(SYNTH_INFEASIBLE):
        inst = with_table(suite_structure(SYNTH_GRAPHS[k % len(SYNTH_GRAPHS)]), rng)
        floor = tmin(inst)
        cases.append((inst, rng.randint((floor + 1) // 2, floor - 1)))
    for layers, width in SYNTH_LAYERED:
        structure = layered_structure(layers, width)
        for k in range(SYNTH_PER_LAYERED):
            inst = with_table(structure, rng)
            floor = tmin(inst)
            cases.append((inst, stratified_deadlines(floor, SYNTH_PER_LAYERED, rng)[k]))
    rng.shuffle(cases)
    return [{"id": f"synth-{k}", "inst": inst, "deadline": d} for k, (inst, d) in enumerate(cases)]


def frontier_ops(seed: int) -> List[Dict[str, Any]]:
    """One pass of the frontier closed loop: sweeps over Tmin..2·Tmin."""
    rng = _rng(seed, "frontier")
    structures = [(suite_structure(name), count) for name, count in FRONTIER_GRAPHS]
    shape, count = FRONTIER_LAYERED
    structures.append((layered_structure(*shape), count))
    insts = [with_table(structure, rng) for structure, count in structures for _ in range(count)]
    rng.shuffle(insts)
    return [
        {"id": f"frontier-{k}", "inst": inst, "max_deadline": 2 * tmin(inst)}
        for k, inst in enumerate(insts)
    ]


def _request(inst: Instance, deadline: int, label: str, **knobs: Any) -> Dict[str, Any]:
    doc = {"instance": instance_doc(inst, deadline), "deadline": deadline, "label": label}
    doc.update(knobs)
    return doc


def _body(requests: Sequence[Dict[str, Any]]) -> bytes:
    return json.dumps({"requests": list(requests)}, sort_keys=True).encode("utf-8")


def _class_sequence(n: int, rng: random.Random) -> List[str]:
    """Exactly proportional class counts (largest remainder), shuffled."""
    quotas = [(name, share * n) for name, share in SERVE_MIX]
    counts = {name: int(q) for name, q in quotas}
    rest = n - sum(counts.values())
    for name, q in sorted(quotas, key=lambda item: int(item[1]) - item[1])[:rest]:
        counts[name] += 1
    seq = [name for name, _ in SERVE_MIX for _ in range(counts[name])]
    rng.shuffle(seq)
    return seq


def _arrivals(n: int, period: float, rng: random.Random) -> List[float]:
    """``n`` Poisson arrival offsets, scaled to fill ``period`` seconds."""
    gaps = [rng.expovariate(SERVE_RATE) for _ in range(n)]
    scale = period / sum(gaps)
    offsets, clock = [], 0.0
    for gap in gaps:
        offsets.append(clock)
        clock += gap * scale
    return offsets


def serve_plan(seed: int, seconds: float) -> Dict[str, Any]:
    """Pre-warm batch plus the seeded open-loop arrival schedule.

    The schedule is ``SERVE_ROUNDS`` back-to-back rounds of one seeded
    set of slots: slot ``j`` of every round has the same class, the same
    warm request, or a cold request of the same graph with a fresh table
    (so it still misses).  Each round draws fresh Poisson arrivals and
    sends the slots in a fresh order, so a slot meets different
    neighbours each round.  Each slot thus has one latency per round,
    which lets ``p50_ms`` take each slot's best round.

    Each op is one ``POST /v1/batch``.  ``checks`` lists, per request in
    the body, the plain instance and deadline its response is checked
    against; warm ops also name the pre-warm entry (and the label map)
    their response must equal.
    """
    rng = _rng(seed, "serve")
    warm = []
    for k, name in enumerate(SERVE_WARM):
        inst = with_table(suite_structure(name), rng)
        deadline = stratified_deadlines(tmin(inst), 1, rng)[0]
        warm.append({"id": f"prewarm-{k}", "inst": inst, "deadline": deadline})
    cold = {name: suite_structure(name) for name in SERVE_COLD}

    period = seconds / SERVE_ROUNDS
    n = max(1, round(SERVE_RATE * period))
    warm_sources = [k % len(warm) for k in range(n)]
    cold_graphs = [SERVE_COLD[k % len(SERVE_COLD)] for k in range(n)]
    rng.shuffle(warm_sources)
    rng.shuffle(cold_graphs)
    slots = []
    for cls, src, graph in zip(_class_sequence(n, rng), warm_sources, cold_graphs):
        slot: Dict[str, Any] = {"class": cls, "warm": src, "graph": graph}
        if cls == "warm_twin":
            slot["twin"] = relabel(warm[src]["inst"], rng)
        slots.append(slot)

    ops = []
    for r in range(SERVE_ROUNDS):
        order = list(range(n))
        rng.shuffle(order)
        for offset, j in zip(_arrivals(n, period, rng), order):
            slot = slots[j]
            op_id = f"serve-{r}-{j}"
            cls = slot["class"]
            if cls.startswith("warm"):
                base = warm[slot["warm"]]
                inst, back = slot["twin"] if cls == "warm_twin" else (base["inst"], None)
                checks = [{"inst": inst, "deadline": base["deadline"], "warm": slot["warm"], "back": back}]
                requests = [_request(inst, base["deadline"], op_id)]
            elif cls == "cold_sweep":
                inst = with_table(cold[SERVE_SWEEP_GRAPH], rng)
                deadlines = stratified_deadlines(tmin(inst), SERVE_SWEEP_POINTS, rng)
                checks = [{"inst": inst, "deadline": d} for d in deadlines]
                requests = [_request(inst, d, op_id) for d in deadlines]
            elif cls == "cold_portfolio":
                inst = with_table(cold[SERVE_PORTFOLIO_GRAPH], rng)
                deadline = stratified_deadlines(tmin(inst), 1, rng)[0]
                checks = [{"inst": inst, "deadline": deadline}]
                requests = [
                    _request(
                        inst, deadline, op_id,
                        strategy="portfolio", budget_evaluations=SERVE_PORTFOLIO_BUDGET,
                    )
                ]
            else:
                inst = with_table(cold[slot["graph"]], rng)
                floor = tmin(inst)
                if cls == "cold_infeasible":
                    deadline = rng.randint((floor + 1) // 2, floor - 1)
                else:
                    deadline = stratified_deadlines(floor, 1, rng)[0]
                checks = [{"inst": inst, "deadline": deadline}]
                requests = [_request(inst, deadline, op_id)]
            ops.append({
                "id": op_id, "class": cls, "slot": j, "due": r * period + offset,
                "checks": checks, "body": _body(requests),
            })
    prewarm = [
        dict(entry, body=_body([_request(entry["inst"], entry["deadline"], entry["id"])]))
        for entry in warm
    ]
    return {"prewarm": prewarm, "ops": ops}


def fingerprint(value: Any) -> bytes:
    """Canonical bytes of generated inputs (for the determinism test)."""
    def default(obj: Any) -> Any:
        if isinstance(obj, bytes):
            return obj.decode("utf-8")
        raise TypeError(type(obj).__name__)

    return json.dumps(value, sort_keys=True, default=default).encode("utf-8")
