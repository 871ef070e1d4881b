"""repro — heterogeneous FU assignment & scheduling for real-time DSP.

A faithful, self-contained reproduction of Shao, Zhuge, He, Xue, Liu &
Sha, *"Assignment and Scheduling of Real-time DSP Applications for
Heterogeneous Functional Units"* (IPPS 2004): the NP-complete
heterogeneous assignment problem, its optimal path/tree dynamic
programs, the `DFG_Assign_Once` / `DFG_Assign_Repeat` heuristics, and
the minimum-resource scheduling phase, plus the DSP benchmark suite
the paper evaluates on.

Quickstart::

    from repro import suite, fu, synthesize

    dfg = suite.differential_equation_solver().dag()
    table = fu.random_table(dfg, num_types=3, seed=7)
    result = synthesize(dfg, table, deadline=20)
    print(result.assignment, result.configuration)
"""

from . import assign, fu, graph, obs, retiming, sched, sim, suite
from .assign import (
    Assignment,
    AssignResult,
    brute_force_assign,
    dfg_assign_once,
    dfg_assign_repeat,
    dfg_expand,
    exact_assign,
    greedy_assign,
    min_completion_time,
    path_assign,
    tree_assign,
)
from .errors import (
    AssignError,
    CyclicDependencyError,
    GraphError,
    InfeasibleError,
    LintError,
    NotAPathError,
    NotATreeError,
    ObsError,
    ReportError,
    ReproError,
    ScheduleError,
    TableError,
)
from .graph import DFG
from .synthesis import SynthesisResult, synthesize

__version__ = "2.0.0"

__all__ = [
    "DFG",
    "synthesize",
    "SynthesisResult",
    "retiming",
    "sched",
    "sim",
    "suite",
    "Assignment",
    "AssignResult",
    "min_completion_time",
    "path_assign",
    "tree_assign",
    "dfg_expand",
    "dfg_assign_once",
    "dfg_assign_repeat",
    "greedy_assign",
    "exact_assign",
    "brute_force_assign",
    "graph",
    "fu",
    "assign",
    "obs",
    "ReproError",
    "GraphError",
    "CyclicDependencyError",
    "NotAPathError",
    "NotATreeError",
    "TableError",
    "AssignError",
    "InfeasibleError",
    "ScheduleError",
    "ReportError",
    "LintError",
    "ObsError",
    "__version__",
]
