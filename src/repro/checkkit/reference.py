"""Scalar references for the tree DP sweeps: the production oracle.

Every single-instance solve runs the packed engine
(:class:`~repro.assign.incremental.PackedAssignDP`); the python
:class:`~repro.assign.incremental.IncrementalTreeDP` is what it is
checked against.  The ``reference_tree_frontier``/``_dfg_*``
functions build a fresh python engine per deadline — per pin round in
the Repeat loop — so they check the pin loop and the sweep's cache
reuse too; :func:`reference_engine_sweep` isolates the kernel.  Each
returns what its production twin returns — same types, same errors —
for comparison with ``==``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..assign.assignment import Assignment, min_completion_time
from ..assign.dfg_assign import _finish, _min_time_choice, _resolve, choose_expansion
from ..assign.dfg_expand import ExpandedTree
from ..assign.frontier import _repeat_sweep
from ..assign.incremental import DPStats, IncrementalTreeDP
from ..assign.knees import FrontierPoint, _sweep_floor, _sweep_knees, frontier_knees
from ..assign.result import AssignResult
from ..assign.tree_assign import _normalize
from ..errors import GraphError, InfeasibleError, NotATreeError
from ..fu.table import TimeCostTable
from ..graph.classify import is_in_forest, is_out_forest
from ..graph.dag import require_acyclic
from ..graph.dfg import DFG, Node

__all__ = [
    "reference_tree_frontier",
    "reference_dfg_assign_repeat",
    "reference_dfg_frontier",
    "reference_engine_sweep",
]


def _tree_engine(tree: DFG, table: TimeCostTable, deadline: int) -> IncrementalTreeDP:
    """A fresh reference engine refreshed once at ``deadline``.

    Runs `tree_dp`'s input checks, in its order, so it raises the same
    errors.
    """
    tree = _normalize(tree)
    for n in tree.nodes():
        table.times(n)  # validates coverage eagerly
    if deadline < 0:
        raise InfeasibleError(f"deadline must be >= 0, got {deadline}")
    return IncrementalTreeDP(tree, deadline).refresh(table)


def reference_tree_frontier(
    tree: DFG, table: TimeCostTable, *, max_deadline: int
) -> List[FrontierPoint]:
    """`tree_frontier` as one cold reference DP per deadline.

    Each point's cost is read off that deadline's own forest curve, the
    same float the production sweep reads off its one shared curve.
    Each engine is dropped once its cost is read, and each knee deadline
    gets a fresh one for its witness traceback, so at most one curve
    set is alive at a time.
    """
    if len(tree) and not (is_out_forest(tree) or is_in_forest(tree)):
        raise NotATreeError(
            f"{tree.name!r} is not a tree/forest; use dfg_frontier"
        )
    _tree_engine(tree, table, max_deadline)  # tree_dp's errors, in its order
    floor = min_completion_time(tree, table)
    if max_deadline < floor:
        raise InfeasibleError(
            f"no assignment of {tree.name!r} completes within {max_deadline}"
        )
    costs = [
        (d, float(_tree_engine(tree, table, d).total_curve()[d]))
        for d in range(floor, max_deadline + 1)
    ]
    return [
        FrontierPoint(
            d, cost, Assignment.of(_tree_engine(tree, table, d).traceback_at(d))
        )
        for d, cost in frontier_knees(costs)
    ]


def reference_dfg_assign_repeat(
    dfg: DFG,
    table: TimeCostTable,
    deadline: int,
    *,
    expansion: Optional[ExpandedTree] = None,
    fix_order: Optional[List[Node]] = None,
) -> AssignResult:
    """`dfg_assign_repeat` with a cold reference DP per pin round.

    The pin loop is spelled out here rather than shared with the
    production path, and no curve survives from one round to the next,
    so the oracle checks the loop and the incremental engine's cache
    keying as well: initial DP, then per duplicated node a pin and a
    cold DP, keeping the cheapest resolved round (the latest on ties).
    """
    require_acyclic(dfg)
    table.validate_for(dfg)
    tree = expansion if expansion is not None else choose_expansion(dfg)
    order = fix_order if fix_order is not None else tree.duplicated_originals()
    for v in order:
        if v not in tree.copies:
            raise GraphError(f"fix_order names unknown node {v!r}")

    def solve(work_table: TimeCostTable) -> Dict[Node, int]:
        engine = IncrementalTreeDP(tree.tree, deadline, node_key=tree.origin_of)
        return engine.refresh(work_table).traceback_at(deadline)

    work_table = table
    tree_mapping = solve(work_table)
    pinned: Dict[Node, int] = {}
    best = _resolve(dfg, table, tree, tree_mapping, pinned)
    best_cost = best.total_cost(dfg, table)
    for v in order:
        pinned[v] = _min_time_choice(tree, work_table, tree_mapping, v)
        work_table = work_table.with_fixed(v, pinned[v])
        tree_mapping = solve(work_table)
        # Pinned rows are copies of ``table`` entries, so resolving
        # against the original table is exact.
        candidate = _resolve(dfg, table, tree, tree_mapping, pinned)
        cost = candidate.total_cost(dfg, table)
        if cost <= best_cost:
            best, best_cost = candidate, cost
    return _finish(dfg, table, best, deadline, "dfg_assign_repeat")


def reference_dfg_frontier(
    dfg: DFG, table: TimeCostTable, *, max_deadline: int
) -> List[FrontierPoint]:
    """Heuristic `dfg_frontier` as one cold Repeat per deadline."""
    floor = _sweep_floor(dfg, table, max_deadline)
    expansion = choose_expansion(dfg)
    return _sweep_knees(
        reference_dfg_assign_repeat(dfg, table, d, expansion=expansion)
        for d in range(floor, max_deadline + 1)
    )


def reference_engine_sweep(
    engine_cls: Callable[..., Any],
    dfg: DFG,
    table: TimeCostTable,
    *,
    max_deadline: int,
    stats: Optional[DPStats] = None,
) -> List[FrontierPoint]:
    """Heuristic `dfg_frontier`'s own sweep with ``engine_cls`` as its engine.

    With ``IncrementalTreeDP`` only the kernel differs from
    `dfg_frontier`: same points, same ``stats`` counters.
    """
    floor = _sweep_floor(dfg, table, max_deadline)
    expansion = choose_expansion(dfg)
    engine = engine_cls(
        expansion.tree, max_deadline, node_key=expansion.origin_of, stats=stats
    )
    deadlines = range(floor, max_deadline + 1)
    return _repeat_sweep(dfg, table, engine, expansion, deadlines)
