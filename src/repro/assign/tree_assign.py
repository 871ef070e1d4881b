"""`Tree_Assign` — optimal assignment for trees and forests (paper Fig. 7).

Operates on *out-forests*: DAGs where every node has at most one
parent, the shape `DFG_Expand` produces.  In such a graph the subtrees
hanging off the children of a node are disjoint, so cost curves
compose by summation under a shared budget:

    D_{v+}[j] = Σ over children c of  D_c[j]          (parallel subtrees)
    D_v[j]    = min over types k of  D_{v+}[j - t_k(v)] + c_k(v)

Multiple roots are handled exactly like the paper's pseudo root ``vr``
with zero time and cost: the forest curve is the sum of the root
curves, read at the deadline.  Complexity O(n · L · M).

An *in-forest* input (every node ≤ 1 child) is transposed internally —
root→leaf paths of the transpose visit the same node sets, so times,
costs, and feasibility are unchanged.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..errors import InfeasibleError, NotATreeError
from ..fu.table import TimeCostTable
from ..graph.classify import is_in_forest, is_out_forest
from ..graph.dfg import DFG, Node
from ..obs import current_tracer
from .incremental import PackedAssignDP
from .result import AssignResult

__all__ = ["tree_assign", "tree_cost_curve", "tree_dp"]

#: Maps a tree node to the key under which its table row is stored.
#: Expanded trees pass ``origin_of``; plain trees use the identity.
NodeKey = Callable[[Node], Node]


def _normalize(dfg: DFG) -> DFG:
    """Return ``dfg`` as an out-forest, transposing in-forests.

    The empty graph is a (trivial) forest: zero roots, zero curves to
    combine — the engine returns the zero curve / the empty assignment.
    """
    if len(dfg) == 0 or is_out_forest(dfg):
        return dfg
    if is_in_forest(dfg):
        return dfg.transpose()
    raise NotATreeError(
        f"{dfg.name!r} is neither an out-forest nor an in-forest; "
        "run DFG_Expand (or dfg_assign_once/_repeat) for general DAGs"
    )


def tree_cost_curve(
    tree: DFG,
    table: TimeCostTable,
    deadline: int,
    node_key: Optional[NodeKey] = None,
) -> np.ndarray:
    """The forest's full cost curve ``D[0..deadline]``.

    ``D[j]`` is the minimum system cost of an assignment in which every
    root→leaf path finishes within ``j`` (``inf`` = infeasible).  Used
    by tests (monotonicity, agreement with brute force) and by the
    paper-figure walkthrough example.
    """
    return tree_dp(tree, table, deadline, node_key).total_curve()


def tree_dp(
    tree: DFG,
    table: TimeCostTable,
    deadline: int,
    node_key: Optional[NodeKey] = None,
) -> PackedAssignDP:
    """One DP pass that answers *every* deadline ``j ≤ deadline``.

    Returns a refreshed engine whose ``traceback_at``/``result_at``
    reproduce ``tree_assign(tree, table, j)`` for any ``j`` in O(n),
    because cost curves are prefix-identical across deadlines.  Deadline
    sweeps (`tree_frontier`, `dfg_frontier`) build on this instead of
    re-running the full O(n·L·M) DP per point.
    """
    key = node_key or (lambda n: n)
    tree = _normalize(tree)
    for n in tree.nodes():
        table.times(key(n))  # validates coverage eagerly
    if deadline < 0:
        raise InfeasibleError(f"deadline must be >= 0, got {deadline}")
    return PackedAssignDP(tree, deadline, node_key=key).refresh(table)


def tree_assign(
    tree: DFG,
    table: TimeCostTable,
    deadline: int,
    *,
    node_key: Optional[NodeKey] = None,
) -> AssignResult:
    """Minimum-cost assignment of a tree/forest within ``deadline``.

    Optimal for out-forests and in-forests (paper Theorem, Section 5.2).
    ``node_key`` redirects table lookups for expanded trees whose nodes
    are copies of original nodes.

    Raises
    ------
    NotATreeError
        If the graph has a node with several parents *and* one with
        several children (i.e. it is a general DAG).
    InfeasibleError
        If even all-fastest misses the deadline; carries the minimum
        achievable completion time.
    """
    with current_tracer().span(
        "tree_assign", nodes=len(tree), deadline=deadline
    ):
        engine = tree_dp(tree, table, deadline, node_key)
        return engine.result_at(deadline, algorithm="tree_assign")
