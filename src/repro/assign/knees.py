"""Frontier knees: the shared vocabulary of the sweep entry points.

:class:`FrontierPoint` and the knee-collapsing helpers live below both
:mod:`repro.assign.frontier` (the scalar sweeps, which re-export them
as their public home) and :mod:`repro.assign.batch` (the batched
sweeps), so the two can share them without importing each other —
``frontier`` dispatches ``batch=True`` calls into ``batch``, and an
import back up would close a module cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..errors import InfeasibleError
from ..fu.table import TimeCostTable
from ..graph.dfg import DFG
from .assignment import Assignment, min_completion_time
from .result import AssignResult

__all__ = ["KNEE_RTOL", "FrontierPoint", "frontier_knees"]

#: Relative improvement below which two costs count as the same knee.
#: Relative (not absolute): frontiers over large cost scales — energy
#: tables in the thousands and beyond — would otherwise record spurious
#: knees from float round-off, while an absolute epsilon larger than the
#: cost quantum would miss real ones on tiny scales.  The ``max(1, |c|)``
#: floor keeps near-zero costs on an absolute footing.
KNEE_RTOL = 1e-9


@dataclass(frozen=True)
class FrontierPoint:
    """One knee of a cost/latency frontier.

    ``assignment`` is the witnessing assignment achieving ``cost``
    within ``deadline`` (``None`` for curve-only frontiers that never
    materialized one).  Iterating yields ``(deadline, cost)`` so the
    tuple-era idioms — ``dict(frontier)``, ``for d, c in frontier``,
    comparison against ``(d, c)`` via ``tuple(point)`` — stay valid.
    """

    deadline: int
    cost: float
    assignment: Optional[Assignment] = None

    def __iter__(self) -> Iterator[Union[int, float]]:
        yield self.deadline
        yield self.cost


def frontier_knees(points: List[Tuple[int, float]]) -> List[Tuple[int, float]]:
    """Collapse a (deadline, cost) series to its strictly-improving knees.

    "Strictly improving" is judged to relative tolerance
    :data:`KNEE_RTOL`, so the scale of the cost axis does not change
    which knees are recorded.
    """
    knees: List[Tuple[int, float]] = []
    for deadline, cost in points:
        if not knees:
            knees.append((deadline, cost))
            continue
        prev = knees[-1][1]
        if cost < prev - KNEE_RTOL * max(1.0, abs(prev)):
            knees.append((deadline, cost))
    return knees


def _curve_knees(
    name: str, curve: np.ndarray, max_deadline: int
) -> List[Tuple[int, float]]:
    """Knees of a forest's cost curve; raises when no deadline is feasible."""
    finite = np.isfinite(curve)
    if not finite.any():
        raise InfeasibleError(
            f"no assignment of {name!r} completes within {max_deadline}"
        )
    return frontier_knees([(int(j), float(curve[j])) for j in np.flatnonzero(finite)])


def _sweep_floor(dfg: DFG, table: TimeCostTable, max_deadline: int) -> int:
    """First deadline of a `dfg_frontier` sweep; raises past ``max_deadline``."""
    floor = min_completion_time(dfg, table)
    if max_deadline < floor:
        raise InfeasibleError(
            f"max_deadline {max_deadline} below minimum completion {floor}",
            min_feasible=floor,
        )
    return floor


def _sweep_knees(results: Iterable[AssignResult]) -> List[FrontierPoint]:
    """Knees of per-deadline results, each point the best so far.

    Keeping the best-so-far assignment makes a heuristic frontier
    monotone even where a larger deadline's run came out costlier.
    """
    raw: List[FrontierPoint] = []
    best = np.inf
    best_assignment: Optional[Assignment] = None
    for result in results:
        if result.cost < best:
            best, best_assignment = result.cost, result.assignment
        raw.append(FrontierPoint(result.deadline, float(best), best_assignment))
    return _knee_points(raw)


def _knee_points(raw: List[FrontierPoint]) -> List[FrontierPoint]:
    """Keep the :class:`FrontierPoint` at each strictly-improving knee."""
    knees = frontier_knees([(p.deadline, p.cost) for p in raw])
    keep = {deadline for deadline, _ in knees}
    return [p for p in raw if p.deadline in keep]
