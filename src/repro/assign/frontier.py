"""Cost/latency Pareto frontiers.

The DP cost curves computed by `Tree_Assign` already contain, for free,
the *entire* trade-off between the timing constraint and the minimum
achievable system cost.  This module surfaces that as a first-class
API — the designer's view the paper's tables sample at six points:

* :func:`tree_frontier` — exact frontier for trees/forests (and simple
  paths), straight from the DP curve;
* :func:`dfg_frontier` — frontier for general DAGs via
  `DFG_Assign_Repeat` at every distinct deadline (heuristic,
  upper-bounds the true frontier), or via `exact_assign` when
  ``exact=True``.

A frontier is a list of :class:`FrontierPoint` knees — deadlines where
the minimum cost strictly improves, starting at the minimum feasible
completion time — each carrying the witnessing
:class:`~repro.assign.assignment.Assignment`.  Points iterate as
``(deadline, cost)`` pairs, so tuple-era call sites
(``dict(frontier)``, ``for d, c in frontier``) keep working.

The heuristic sweep is *incremental*: one
:class:`~repro.assign.incremental.PackedAssignDP` is shared across
every deadline, so each point costs one O(n) traceback plus a refresh
per pin round — and because pin choices rarely change between adjacent
deadlines, those refreshes are almost entirely curve-cache hits.  The
per-deadline reference re-run lives in :mod:`repro.checkkit.reference`
(the equivalence is pinned by tests and
``benchmarks/bench_incremental.py``).

Both sweeps publish their engine counters as ``dp.*`` metrics to the
ambient :mod:`repro.obs` tracer when one is enabled.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..errors import EngineError, NotATreeError
from ..fu.table import TimeCostTable
from ..graph.classify import is_in_forest, is_out_forest
from ..graph.dfg import DFG
from ..obs import current_tracer
from .assignment import Assignment
from .dfg_assign import _finish, _packed_engine, _repeat_rounds, choose_expansion
from .dfg_expand import ExpandedTree
from .exact import exact_assign
from .incremental import DPStats, PackedAssignDP
from .knees import (
    KNEE_RTOL,
    FrontierPoint,
    _curve_knees,
    _sweep_floor,
    _sweep_knees,
    frontier_knees,
)
from .tree_assign import tree_dp

__all__ = [
    "FrontierPoint",
    "KNEE_RTOL",
    "tree_frontier",
    "dfg_frontier",
    "frontier_knees",
]


def tree_frontier(
    tree: DFG,
    table: TimeCostTable,
    *,
    max_deadline: int,
) -> List[FrontierPoint]:
    """Exact Pareto frontier of a tree/forest up to ``max_deadline``.

    One DP pass (O(n · max_deadline · M)) yields every point; each knee
    additionally gets its witnessing assignment via an O(n) traceback.
    Raises :class:`NotATreeError` for general DAGs (matching
    `tree_assign`'s contract — use :func:`dfg_frontier` there) and
    :class:`InfeasibleError` when even ``max_deadline`` is infeasible.

    Many forests at once go through
    :func:`repro.assign.batch.tree_frontier_batch`.
    """
    if len(tree) and not (is_out_forest(tree) or is_in_forest(tree)):
        raise NotATreeError(
            f"{tree.name!r} is not a tree/forest; use dfg_frontier"
        )
    with current_tracer().span(
        "tree_frontier", graph=tree.name, nodes=len(tree), max_deadline=max_deadline
    ):
        engine = tree_dp(tree, table, max_deadline)
        knees = _curve_knees(tree.name, engine.total_curve(), max_deadline)
        return [
            FrontierPoint(
                deadline=deadline,
                cost=cost,
                assignment=Assignment.of(engine.traceback_at(deadline)),
            )
            for deadline, cost in knees
        ]


def dfg_frontier(
    dfg: DFG,
    table: TimeCostTable,
    *,
    max_deadline: int,
    exact: bool = False,
    stats: Optional[DPStats] = None,
    workers: int = 0,
    batch: bool = False,
) -> List[FrontierPoint]:
    """Pareto frontier of a general DAG up to ``max_deadline``.

    Heuristic by default (`DFG_Assign_Repeat` per deadline, sharing one
    expansion across the sweep); ``exact=True`` certifies each point
    with branch-and-bound (small graphs only).  The heuristic frontier
    upper-bounds the true one and is itself monotone by construction.

    The heuristic sweep shares one packed incremental engine built at
    ``max_deadline``: curves are prefix-identical across deadlines, so
    every point's initial tree assignment is a single traceback, and
    the per-pin refreshes hit the curve cache whenever adjacent
    deadlines pin the same choices.  ``stats`` optionally collects
    engine counters, which are also published as ``dp.*`` metrics to
    the ambient tracer.  The per-deadline reference loop lives in
    :mod:`repro.checkkit.reference`.

    ``batch=True`` routes the heuristic sweep through
    :func:`~repro.assign.batch.dfg_frontier_batch` — every deadline
    becomes one lane of a :class:`~repro.engine.batch.BatchedTreeDP`
    and the whole sweep runs in a few numpy passes; ``workers`` fans
    those lanes out over processes, so a nonzero ``workers`` without
    ``batch`` raises :class:`~repro.errors.EngineError`.  Knees, costs,
    witness assignments and engine counters are identical either way;
    ``exact=True`` ignores ``batch``.
    """
    if workers and not batch:
        raise EngineError("dfg_frontier(workers=) applies only with batch=True")
    if batch and not exact:
        from .batch import dfg_frontier_batch

        return dfg_frontier_batch(
            dfg, table, max_deadline=max_deadline, workers=workers, stats=stats
        )
    floor = _sweep_floor(dfg, table, max_deadline)
    deadlines = range(floor, max_deadline + 1)
    with current_tracer().span(
        "dfg_frontier",
        graph=dfg.name,
        nodes=len(dfg),
        max_deadline=max_deadline,
        exact=exact,
    ):
        if exact:
            return _sweep_knees(exact_assign(dfg, table, d) for d in deadlines)
        expansion = choose_expansion(dfg)
        with _packed_engine(expansion, max_deadline, stats) as engine:
            return _repeat_sweep(dfg, table, engine, expansion, deadlines)


def _repeat_sweep(
    dfg: DFG,
    table: TimeCostTable,
    engine: PackedAssignDP,
    expansion: ExpandedTree,
    deadlines: Iterable[int],
) -> List[FrontierPoint]:
    """Repeat at each deadline on one shared engine, collapsed to knees."""
    order = expansion.duplicated_originals()
    return _sweep_knees(
        _finish(
            dfg,
            table,
            _repeat_rounds(dfg, engine, table, d, expansion, order),
            d,
            "dfg_assign_repeat",
        )
        for d in deadlines
    )
