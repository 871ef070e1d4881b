"""Differential oracle registry.

Every cross-algorithm consistency relation this reproduction relies on
lives here as a named :class:`Oracle` — the machine version of "did
everything agree where theory says it must".  :func:`run_oracles`
evaluates a chain of oracles over one instance, sharing the expensive
intermediates (the algorithm portfolio, the expansion, the schedules)
through a lazy :class:`OracleContext`, and returns a
:class:`Certificate`; the first violated relation raises
:class:`~repro.errors.CheckError` (or the offending check's own
error).

:data:`CERTIFY_CHAIN` is the historical `verify.certify` portfolio
(:mod:`repro.verify` is now a thin facade over it);
:data:`FUZZ_CHAIN` adds the differential oracles that pin the packed
engine and its incremental sweeps to the scalar references in
:mod:`~repro.checkkit.reference`, and the batched engine's process
fan-out to its serial run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..assign import (
    FrontierPoint,
    brute_force_assign,
    dfg_assign_once,
    dfg_assign_repeat,
    dfg_frontier,
    dfg_frontier_batch,
    downgrade_assign,
    exact_assign,
    greedy_assign,
    path_assign,
    portfolio_assign,
    tree_assign,
    tree_frontier,
)
from ..assign.dfg_assign import choose_expansion
from ..assign.dfg_expand import ExpandedTree
from ..assign.ilp_model import build_ilp, check_solution
from ..assign.result import AssignResult
from ..errors import CheckError
from ..fu.table import TimeCostTable
from ..graph.classify import is_in_forest, is_out_forest, is_simple_path
from ..graph.dfg import DFG
from ..sched import (
    force_directed_schedule,
    lower_bound_configuration,
    min_resource_schedule,
)
from ..sched.schedule import Schedule
from .reference import (
    reference_dfg_assign_repeat,
    reference_dfg_frontier,
    reference_tree_frontier,
)

__all__ = [
    "BRUTE_FORCE_LIMIT",
    "CERTIFY_CHAIN",
    "FUZZ_CHAIN",
    "Certificate",
    "Oracle",
    "OracleContext",
    "oracle_names",
    "get_oracle",
    "run_oracles",
]

#: brute force is only attempted at or below this node count
BRUTE_FORCE_LIMIT = 10

#: cost agreement tolerance between algorithms that must coincide
_ATOL = 1e-9


@dataclass(frozen=True)
class Certificate:
    """Evidence from one oracle-chain run."""

    deadline: int
    costs: Dict[str, float]
    checks: List[str] = field(default_factory=list)

    def describe(self) -> str:
        lines = [f"deadline {self.deadline}"]
        for name, cost in sorted(self.costs.items()):
            lines.append(f"  {name:<12} cost {cost:.2f}")
        lines.extend(f"  [ok] {c}" for c in self.checks)
        return "\n".join(lines)


class OracleContext:
    """Lazily-computed shared state for one instance.

    Oracles pull the portfolio results, the shared expansion, and the
    schedules from here, so a chain never recomputes an intermediate
    two oracles both need.  ``brute_force_limit`` lets the fuzz runner
    lower the exhaustive-search cutoff below the certify default.
    """

    def __init__(
        self,
        dfg: DFG,
        table: TimeCostTable,
        deadline: int,
        brute_force_limit: int = BRUTE_FORCE_LIMIT,
    ):
        self.dfg = dfg
        self.table = table
        self.deadline = int(deadline)
        self.brute_force_limit = int(brute_force_limit)
        self._dag: Optional[DFG] = None
        self._expansion: Optional[ExpandedTree] = None
        self._results: Optional[Dict[str, AssignResult]] = None
        self._exact_skip_note: Optional[str] = None
        self._schedules: Optional[Dict[str, Schedule]] = None

    @property
    def dag(self) -> DFG:
        """The zero-delay DAG part (cached)."""
        if self._dag is None:
            self._dag = self.dfg.dag()
        return self._dag

    @property
    def expansion(self) -> ExpandedTree:
        """The shared `DFG_Expand` tree for the heuristic family."""
        if self._expansion is None:
            self._expansion = choose_expansion(self.dag)
        return self._expansion

    @property
    def results(self) -> Dict[str, AssignResult]:
        """The full portfolio on this instance.

        Always contains ``greedy``/``downgrade``/``once``/``repeat``
        and ``exact`` (anytime: only certified when ``optimal`` is
        true); ``path``/``tree`` when the shape admits the structure
        DPs.
        """
        if self._results is None:
            dag = self.dag
            results = {
                "greedy": greedy_assign(dag, self.table, self.deadline),
                "downgrade": downgrade_assign(dag, self.table, self.deadline),
                "once": dfg_assign_once(
                    dag, self.table, self.deadline, expansion=self.expansion
                ),
                "repeat": dfg_assign_repeat(
                    dag, self.table, self.deadline, expansion=self.expansion
                ),
            }
            results["exact"] = exact_assign(dag, self.table, self.deadline)
            if results["exact"].optimal is not True:
                # Branch-and-bound exhausted its budget — the same scale
                # limit the paper reports for the ILP.  The feasible
                # incumbent stays in the portfolio, but optimality
                # relations are skipped; everything else is certified.
                self._exact_skip_note = (
                    "exact search truncated (budget exceeded at this graph "
                    "size, as for the paper's ILP); incumbent kept"
                )
            if is_simple_path(dag):
                results["path"] = path_assign(dag, self.table, self.deadline)
            if is_out_forest(dag) or is_in_forest(dag):
                results["tree"] = tree_assign(dag, self.table, self.deadline)
            self._results = results
        return self._results

    @property
    def exact_skip_note(self) -> Optional[str]:
        """The skip message when branch-and-bound ran out of budget."""
        _ = self.results  # force portfolio evaluation
        return self._exact_skip_note

    @property
    def costs(self) -> Dict[str, float]:
        return {name: result.cost for name, result in self.results.items()}

    @property
    def schedules(self) -> Dict[str, Schedule]:
        """Both phase-2 schedulers on the `repeat` assignment."""
        if self._schedules is None:
            assignment = self.results["repeat"].assignment
            self._schedules = {
                "min_resource": min_resource_schedule(
                    self.dag,
                    self.table,
                    assignment=assignment,
                    deadline=self.deadline,
                ),
                "force_directed": force_directed_schedule(
                    self.dag,
                    self.table,
                    assignment=assignment,
                    deadline=self.deadline,
                ),
            }
        return self._schedules


@dataclass(frozen=True)
class Oracle:
    """One named consistency relation.

    ``applies`` guards shape/size preconditions; ``run`` returns the
    human-readable check lines for the certificate and raises
    :class:`CheckError` on a violation.
    """

    name: str
    description: str
    applies: Callable[[OracleContext], bool]
    run: Callable[[OracleContext], List[str]]


_ORACLES: Dict[str, Oracle] = {}


def _register(
    name: str,
    description: str,
    applies: Optional[Callable[[OracleContext], bool]] = None,
) -> Callable[[Callable[[OracleContext], List[str]]], Callable[[OracleContext], List[str]]]:
    def wrap(
        fn: Callable[[OracleContext], List[str]]
    ) -> Callable[[OracleContext], List[str]]:
        _ORACLES[name] = Oracle(
            name=name,
            description=description,
            applies=applies or (lambda ctx: True),
            run=fn,
        )
        return fn

    return wrap


def oracle_names() -> List[str]:
    """Every registered oracle, in registration (chain) order."""
    return list(_ORACLES)


def get_oracle(name: str) -> Oracle:
    try:
        return _ORACLES[name]
    except KeyError:
        raise CheckError(
            f"unknown oracle {name!r}; available: {sorted(_ORACLES)}"
        ) from None


def _has_exact(ctx: OracleContext) -> bool:
    """The exact search finished and its cost is a certified optimum."""
    exact = ctx.results.get("exact")
    return exact is not None and exact.optimal is True


def _is_forest(ctx: OracleContext) -> bool:
    return is_out_forest(ctx.dag) or is_in_forest(ctx.dag)


# ----------------------------------------------------------------------
# The historical certify portfolio
# ----------------------------------------------------------------------


@_register(
    "portfolio",
    "every algorithm produces a feasible, self-consistent assignment",
)
def _oracle_portfolio(ctx: OracleContext) -> List[str]:
    checks: List[str] = []
    if ctx.exact_skip_note is not None:
        checks.append(ctx.exact_skip_note)
    for result in ctx.results.values():
        result.verify(ctx.dag, ctx.table)
    checks.append(
        f"{len(ctx.results)} algorithms feasible and self-consistent"
    )
    return checks


@_register(
    "brute_force",
    "branch-and-bound equals exhaustive enumeration (small graphs)",
    applies=lambda ctx: _has_exact(ctx) and len(ctx.dag) <= ctx.brute_force_limit,
)
def _oracle_brute_force(ctx: OracleContext) -> List[str]:
    exact_cost = ctx.costs["exact"]
    bf = brute_force_assign(ctx.dag, ctx.table, ctx.deadline)
    if abs(bf.cost - exact_cost) > _ATOL:
        raise CheckError(
            f"branch-and-bound {exact_cost} != brute force {bf.cost}"
        )
    return ["exact == brute force"]


@_register(
    "structure_dp",
    "the path/tree DPs reach the certified optimum",
    applies=lambda ctx: _has_exact(ctx)
    and ("tree" in ctx.results or "path" in ctx.results),
)
def _oracle_structure_dp(ctx: OracleContext) -> List[str]:
    exact_cost = ctx.costs["exact"]
    for name in ("tree", "path"):
        if name in ctx.costs and abs(ctx.costs[name] - exact_cost) > _ATOL:
            raise CheckError(
                f"{name} DP {ctx.costs[name]} != exact {exact_cost}"
            )
    return ["structure DP == exact"]


@_register(
    "tree_optimal",
    "the DAG heuristics reach the tree-DP optimum on forests",
    applies=lambda ctx: "tree" in ctx.results,
)
def _oracle_tree_optimal(ctx: OracleContext) -> List[str]:
    # on trees the heuristics must reach the DP optimum exactly
    for name in ("once", "repeat"):
        if abs(ctx.costs[name] - ctx.costs["tree"]) > _ATOL:
            raise CheckError(
                f"{name} {ctx.costs[name]} != tree optimum {ctx.costs['tree']}"
            )
    return ["heuristics optimal on the tree-shaped instance"]


@_register(
    "ordering",
    "repeat <= once on a shared expansion; no heuristic beats the optimum",
)
def _oracle_ordering(ctx: OracleContext) -> List[str]:
    if _has_exact(ctx):
        exact_cost = ctx.costs["exact"]
        for name in ("greedy", "downgrade", "once", "repeat"):
            if ctx.costs[name] < exact_cost - _ATOL:
                raise CheckError(
                    f"{name} {ctx.costs[name]} beat the optimum {exact_cost}"
                )
    if ctx.costs["repeat"] > ctx.costs["once"] + _ATOL:
        raise CheckError(
            f"repeat {ctx.costs['repeat']} worse than once "
            f"{ctx.costs['once']} on a shared expansion"
        )
    return ["heuristic ordering: repeat <= once; baselines bounded below"]


@_register(
    "ilp",
    "the ILP model accepts every produced assignment at its own cost",
)
def _oracle_ilp(ctx: OracleContext) -> List[str]:
    model = build_ilp(ctx.dag, ctx.table, ctx.deadline)
    for name, result in ctx.results.items():
        objective = check_solution(model, ctx.dag, ctx.table, result.assignment)
        if abs(objective - result.cost) > _ATOL:
            raise CheckError(
                f"ILP objective {objective} != {name} cost {result.cost}"
            )
    return ["every assignment ILP-feasible at its reported cost"]


@_register(
    "schedulers",
    "both schedulers are valid, within deadline, above Lower_Bound_R",
)
def _oracle_schedulers(ctx: OracleContext) -> List[str]:
    assignment = ctx.results["repeat"].assignment
    lb = lower_bound_configuration(ctx.dag, ctx.table, assignment, ctx.deadline)
    for sched_name, schedule in ctx.schedules.items():
        schedule.validate(ctx.dag, ctx.table, assignment)
        if schedule.makespan(ctx.table) > ctx.deadline:
            raise CheckError(f"{sched_name} overran the deadline")
        if not lb.dominates(schedule.configuration):
            raise CheckError(
                f"{sched_name} configuration {schedule.configuration.counts} "
                f"below lower bound {lb.counts}"
            )
    return ["both schedulers valid, within deadline, above Lower_Bound_R"]


@_register(
    "simulation",
    "replaying each schedule computes the reference evaluation's values",
)
def _oracle_simulation(ctx: OracleContext) -> List[str]:
    # Semantic equivalence: replaying each schedule computes exactly the
    # reference evaluation's values on a shared stimulus.
    from ..sim.functional import simulate, simulate_schedule

    assignment = ctx.results["repeat"].assignment
    iterations = 3
    inputs = {n: [1.0, -2.0, 0.5] for n in ctx.dag.roots()}
    reference = simulate(ctx.dag, iterations, inputs=inputs)
    for sched_name, schedule in ctx.schedules.items():
        replay = simulate_schedule(
            ctx.dag, ctx.table, assignment, schedule, iterations, inputs=inputs
        )
        if replay != reference:
            raise CheckError(
                f"{sched_name} schedule computes different values than the "
                "reference evaluation"
            )
    return ["schedule replay matches the reference simulation"]


# ----------------------------------------------------------------------
# Differential oracles beyond the certify portfolio (fuzz chain)
# ----------------------------------------------------------------------


def _require_identical(
    what: str, packed: AssignResult, python: AssignResult
) -> None:
    """Bit-identity between the packed engine and the python reference."""
    if dict(packed.assignment.items()) != dict(python.assignment.items()):
        raise CheckError(
            f"{what}: packed assignment differs from python reference "
            f"({dict(packed.assignment.items())} != "
            f"{dict(python.assignment.items())})"
        )
    if packed.cost != python.cost:
        raise CheckError(
            f"{what}: packed cost {packed.cost!r} != python reference cost "
            f"{python.cost!r} despite identical assignments"
        )


def _knees(points: Sequence[FrontierPoint]) -> List[Tuple[int, float]]:
    return [(p.deadline, p.cost) for p in points]


@_register(
    "kernels",
    "the packed DP engine is bit-identical to the python reference",
)
def _oracle_kernels(ctx: OracleContext) -> List[str]:
    python = reference_dfg_assign_repeat(
        ctx.dag, ctx.table, ctx.deadline, expansion=ctx.expansion
    )
    _require_identical("dfg_assign_repeat", ctx.results["repeat"], python)
    checks = ["packed kernel == python reference (dfg_assign_repeat)"]
    if _is_forest(ctx):
        horizon = ctx.deadline
        packed = _knees(tree_frontier(ctx.dag, ctx.table, max_deadline=horizon))
        python = _knees(
            reference_tree_frontier(ctx.dag, ctx.table, max_deadline=horizon)
        )
        if packed != python:
            raise CheckError(
                f"tree_frontier: packed knees {packed} != reference knees "
                f"{python}"
            )
        checks.append("packed kernel == python reference (tree_frontier)")
    return checks


@_register(
    "workers",
    "the batched sweep's process fan-out returns the serial result",
)
def _oracle_workers(ctx: OracleContext) -> List[str]:
    horizon = ctx.deadline
    serial = dfg_frontier_batch(ctx.dag, ctx.table, max_deadline=horizon)
    fanned = dfg_frontier_batch(
        ctx.dag, ctx.table, max_deadline=horizon, workers=2
    )
    if serial != fanned:
        raise CheckError(
            f"dfg_frontier_batch[workers=2]: knees {_knees(fanned)} != "
            f"serial knees {_knees(serial)}"
        )
    return ["pmap fan-out (workers=2) == serial (dfg_frontier_batch)"]


@_register(
    "metaheuristics",
    "the portfolio race never loses to DFG_Assign_Repeat and its gap is sound",
)
def _oracle_metaheuristics(ctx: OracleContext) -> List[str]:
    # A small-budget race keeps fuzz throughput; the anytime contract
    # must hold at every budget, so a tight one is the harsher test.
    race = portfolio_assign(
        ctx.dag,
        ctx.table,
        ctx.deadline,
        evaluations=200,
        seed=2004,
        exact_node_budget=5_000,
    )
    race.best.verify(ctx.dag, ctx.table)
    if race.best.cost > ctx.costs["repeat"] + _ATOL:
        raise CheckError(
            f"portfolio {race.best.cost} worse than repeat "
            f"{ctx.costs['repeat']} despite seeding"
        )
    if race.gap < 0:
        raise CheckError(f"negative optimality gap {race.gap}")
    if race.best.cost < race.lower_bound - _ATOL:
        raise CheckError(
            f"portfolio cost {race.best.cost} beat its own lower bound "
            f"{race.lower_bound}"
        )
    checks = ["portfolio <= repeat; gap sound"]
    if race.certified and race.gap > _ATOL:
        raise CheckError(
            f"certified race reports nonzero gap {race.gap}"
        )
    if _has_exact(ctx):
        if race.best.cost < ctx.costs["exact"] - _ATOL:
            raise CheckError(
                f"portfolio {race.best.cost} beat the certified optimum "
                f"{ctx.costs['exact']}"
            )
        checks.append("portfolio bounded below by the certified optimum")
    return checks


@_register(
    "frontier",
    "incremental deadline sweeps equal cold per-deadline reference runs",
)
def _oracle_frontier(ctx: OracleContext) -> List[str]:
    horizon = ctx.deadline
    warm = dfg_frontier(ctx.dag, ctx.table, max_deadline=horizon)
    cold = reference_dfg_frontier(ctx.dag, ctx.table, max_deadline=horizon)
    if warm != cold:
        raise CheckError(
            f"dfg_frontier: incremental knees {_knees(warm)} != "
            f"reference knees {_knees(cold)}"
        )
    costs = [p.cost for p in warm]
    if any(b > a for a, b in zip(costs, costs[1:])):
        raise CheckError(f"dfg_frontier costs not non-increasing: {costs}")
    return ["incremental sweep == cold sweep (reference); frontier non-increasing"]


#: The `verify.certify` chain — the paper's cross-algorithm relations.
CERTIFY_CHAIN: Tuple[str, ...] = (
    "portfolio",
    "brute_force",
    "structure_dp",
    "tree_optimal",
    "ordering",
    "ilp",
    "schedulers",
    "simulation",
)

#: Everything, including the engine/parallel/incremental differentials.
FUZZ_CHAIN: Tuple[str, ...] = CERTIFY_CHAIN + (
    "kernels",
    "workers",
    "frontier",
    "metaheuristics",
)


def run_oracles(
    dfg: DFG,
    table: TimeCostTable,
    deadline: int,
    names: Optional[Sequence[str]] = None,
    brute_force_limit: int = BRUTE_FORCE_LIMIT,
) -> Certificate:
    """Evaluate an oracle chain on one instance.

    ``names`` defaults to :data:`CERTIFY_CHAIN`; oracles whose
    ``applies`` precondition fails are skipped silently (e.g. no brute
    force on large graphs).  Raises :class:`CheckError` (or the
    offending check's own error) on the first violated relation.
    """
    ctx = OracleContext(
        dfg, table, deadline, brute_force_limit=brute_force_limit
    )
    checks: List[str] = []
    for name in names if names is not None else CERTIFY_CHAIN:
        oracle = get_oracle(name)
        if not oracle.applies(ctx):
            continue
        checks.extend(oracle.run(ctx))
    return Certificate(deadline=ctx.deadline, costs=dict(ctx.costs), checks=checks)
