"""Deciding fair termination of finite-state systems.

"A program P fairly terminates if every infinite computation of P is
unfair."  For a finite reachable graph this is decidable: a *fair* infinite
computation exists iff some reachable sub-SCC hosts a **fair cycle** — a
cycle along which every command enabled at a visited state is also executed.
Strong fairness is a Streett condition (one pair per command:
"infinitely often enabled ⇒ infinitely often executed"), and we use the
classic SCC-refinement emptiness check:

1. Decompose the candidate region into SCCs.
2. In an SCC ``S`` with internal transitions, let ``E`` be the commands
   enabled somewhere in ``S`` and ``X`` those executed on transitions inside
   ``S``.  If ``E ⊆ X``, a grand tour of all internal transitions is a fair
   cycle — report it.
3. Otherwise every fair computation confined to ``S`` would have to
   eventually avoid all states enabling a command in ``E − X`` (such a
   command may be enabled only finitely often on a fair run that never
   executes it); remove those states and decompose the remainder again.

The loop is :func:`repro.fairness.refine.find_fair_region`, iterative
over stamped regions and shared with generalized fairness
(:mod:`repro.fairness.generalized`); here its masks are the graph's
enabled masks and ``cmd`` column.  It terminates because each level
strictly shrinks the region.  On a *complete* graph the verdict is exact;
on a bounded graph a found fair cycle is still a genuine counterexample,
while "no fair cycle" only covers the explored region (the result says
which).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Sequence, Tuple

from repro.fairness.refine import (
    RefinementScratch,
    find_fair_region,
    requirement_masks,
)
from repro.fairness.spec import STRONG_FAIRNESS
from repro.telemetry import core as telemetry
from repro.telemetry import events
from repro.ts.explore import ReachableGraph, explore
from repro.ts.graph import decompose
from repro.ts.lasso import Lasso, grand_tour_lasso
from repro.ts.system import TransitionSystem


@dataclass(frozen=True)
class FairCycle:
    """A fair lasso together with the SCC region that hosts its cycle."""

    lasso: Lasso
    region: Tuple[int, ...]
    enabled_on_cycle: FrozenSet[str]
    executed_on_cycle: FrozenSet[str]


@dataclass(frozen=True)
class FairTerminationResult:
    """Outcome of the fair-termination decision.

    ``fairly_terminates`` is the verdict over the explored region;
    ``decisive`` tells whether that verdict is a theorem about the whole
    program (complete exploration, or a counterexample which is always
    genuine).  ``witness`` is the fair lasso when one exists.
    """

    fairly_terminates: bool
    decisive: bool
    witness: Optional[FairCycle]
    states_explored: int
    transitions_explored: int

    def __str__(self) -> str:
        verdict = "fairly terminates" if self.fairly_terminates else "admits a fair infinite computation"
        scope = "" if self.decisive else " (within the explored region only)"
        return f"{verdict}{scope} [{self.states_explored} states]"


def find_fair_cycle(
    graph: ReachableGraph,
    restrict_to: Sequence[int] | None = None,
) -> Optional[FairCycle]:
    """Find a reachable fair cycle, or ``None`` if none exists (in region).

    ``restrict_to`` limits the search to a sub-region; indices are
    deduplicated, and out-of-range ones raise :class:`ValueError`.
    """
    # Frontier states have unexplored successors; a cycle through them could
    # not be trusted, but they only ever *lose* outgoing transitions in our
    # graph (kept transitions all originate from fully expanded states), so
    # they simply cannot appear on any explored cycle — no special-casing.
    if restrict_to is None:
        # The memoized full decomposition (its components are shared with
        # every other full-graph analysis).
        components = decompose(graph).components
    else:
        region = sorted(set(restrict_to))
        n = len(graph)
        if region and (region[0] < 0 or region[-1] >= n):
            bad = next(i for i in region if i < 0 or i >= n)
            raise ValueError(
                f"restrict_to index {bad} out of range for a graph with "
                f"{n} states (valid indices: 0..{n - 1})"
            )
        components = decompose(graph, restrict_to=region).components
    return _fair_cycle(graph, components)


def _fair_cycle(
    graph: ReachableGraph,
    components: Sequence[Sequence[int]],
    scratch: Optional[RefinementScratch] = None,
) -> Optional[FairCycle]:
    """Refine ``components`` under command fairness; the fair cycle on
    the first region that starves no command, or ``None``."""
    region = find_fair_region(graph, requirement_masks(graph), components, scratch)
    if region is None:
        return None
    return FairCycle(
        lasso=grand_tour_lasso(graph, region),
        region=region,
        enabled_on_cycle=graph.commands_enabled_within(region),
        executed_on_cycle=graph.commands_executed_within(region),
    )


def _validated_counterexample(
    graph: ReachableGraph, witness: FairCycle
) -> FairTerminationResult:
    """Package a found fair cycle, sanity-checking its fairness first.

    Defence in depth — the spec module re-derives fairness from the lasso
    itself; a found counterexample is genuine even on a bounded graph.
    The enabled sets come from the graph's recorded masks (exact for every
    explored state, frontier included — guards already ran there), so
    validation reads columns instead of re-running guards; a state the
    graph somehow does not know falls back to the system.
    """

    def enabled(state):
        try:
            return graph.enabled_at(graph.index_of(state))
        except KeyError:
            return graph.system.enabled(state)

    violations = STRONG_FAIRNESS.violations(
        witness.lasso, enabled, graph.system.commands()
    )
    if violations:
        raise AssertionError(
            f"internal error: claimed fair cycle is unfair: {violations[0]}"
        )
    return FairTerminationResult(
        fairly_terminates=False,
        decisive=True,
        witness=witness,
        states_explored=len(graph),
        transitions_explored=len(graph.transitions),
    )


def _emit_verdict(
    result: FairTerminationResult, streaming: bool, stages: Optional[int] = None
) -> None:
    """One ``decide.verdict`` event per decision (a phase boundary)."""
    events.emit(
        events.DECIDE_VERDICT,
        fairly_terminates=result.fairly_terminates,
        decisive=result.decisive,
        streaming=streaming,
        states=result.states_explored,
        transitions=result.transitions_explored,
        stages=stages,
    )


def check_fair_termination(graph: ReachableGraph) -> FairTerminationResult:
    """Decide fair termination over (the explored region of) ``graph``."""
    with telemetry.span("decide", streaming=False, states=len(graph)) as sp:
        witness = find_fair_cycle(graph)
        if witness is not None:
            result = _validated_counterexample(graph, witness)
        else:
            result = FairTerminationResult(
                fairly_terminates=True,
                decisive=graph.complete,
                witness=None,
                states_explored=len(graph),
                transitions_explored=len(graph.transitions),
            )
        sp.set("fairly_terminates", result.fairly_terminates)
    _emit_verdict(result, streaming=False)
    return result


#: First-stage state budget of the streaming decision procedure.
STREAM_FIRST_BUDGET = 1024

#: Geometric budget growth between stages: re-exploration overhead is a
#: convergent series — at factor 4, at most a third of the final stage.
STREAM_GROWTH = 4


def check_fair_termination_streaming(
    system: TransitionSystem,
    max_states: Optional[int] = None,
    max_depth: Optional[int] = None,
    n_jobs: Optional[int] = None,
    first_budget: int = STREAM_FIRST_BUDGET,
    growth: int = STREAM_GROWTH,
) -> FairTerminationResult:
    """Decide fair termination with early exit: hunt for a fair lasso
    *during* bounded exploration instead of after materializing all of it.

    Exploration proceeds in stages of geometrically growing state budgets
    (``first_budget``, then ``× growth``, capped by ``max_states``).
    After each stage the fair-cycle refinement runs — but only over the
    SCCs that closed freshly in that stage, i.e. the components containing
    at least one state expanded since the previous stage.  That filter is
    sound because BFS discovery order is a stable prefix across growing
    budgets and expanded states never lose or gain outgoing transitions:
    a component whose states were all expanded in an earlier stage is the
    *same* component it was then (same members, same internal
    transitions), and it was already refined.  A fair cycle found on a
    bounded graph is a genuine counterexample, so a violating family
    yields its verdict after exploring a small prefix of the state space.

    Run to completion — a non-violating system, or one whose bounded
    exploration finds no cycle — the result equals
    ``check_fair_termination(explore(system, max_states, max_depth,
    n_jobs=...))`` field for field.  On violating systems the boolean
    verdict matches and the (independently validated) witness may differ:
    the streaming hunt reports the first fair cycle the budget schedule
    reaches, not the one full refinement would pick.  For any fixed
    bounds the result is bit-identical across job counts.
    """
    if first_budget < 1:
        raise ValueError(f"first_budget must be >= 1, got {first_budget}")
    if growth < 2:
        raise ValueError(f"growth must be >= 2, got {growth}")
    with telemetry.span(
        "decide", streaming=True, jobs=n_jobs, max_states=max_states
    ) as sp:
        result, stages = _streaming_decide(
            system, max_states, max_depth, n_jobs, first_budget, growth
        )
        if telemetry.enabled():
            telemetry.count("stream.decides")
            telemetry.count("stream.stages", stages)
            telemetry.gauge("stream.states_at_verdict", result.states_explored)
        sp.set("stages", stages)
        sp.set("fairly_terminates", result.fairly_terminates)
    _emit_verdict(result, streaming=True, stages=stages)
    return result


def _streaming_decide(
    system: TransitionSystem,
    max_states: Optional[int],
    max_depth: Optional[int],
    n_jobs: Optional[int],
    first_budget: int,
    growth: int,
) -> Tuple[FairTerminationResult, int]:
    budget = first_budget
    previous_states = 0
    previous_frontier: frozenset = frozenset()
    stages = 0
    # One scratch arena for every stage's refinement: the stamp and the
    # Tarjan work arrays grow with the graph and are never reallocated.
    scratch = RefinementScratch()
    while True:
        stages += 1
        bound = budget if max_states is None else min(budget, max_states)
        graph = explore(
            system, max_states=bound, max_depth=max_depth, n_jobs=n_jobs
        )
        frontier = graph.frontier
        # A state is *fresh* if this stage expanded it: newly discovered,
        # or frontier last stage.  Only components containing fresh states
        # can differ from a component already refined in an earlier stage
        # (every non-trivial SCC contains an expanded state, and expanded
        # states keep their transitions verbatim across stages).
        fresh = bytearray(len(graph))
        for i in range(len(graph)):
            if i in frontier:
                continue
            if i >= previous_states or i in previous_frontier:
                fresh[i] = 1
        candidates = [
            component
            for component in decompose(graph).components
            if any(fresh[i] for i in component)
        ]
        if telemetry.enabled():
            telemetry.count("stream.sccs_checked", len(candidates))
        witness = _fair_cycle(graph, candidates, scratch)
        # One stage-transition event per budget stage — the streaming
        # decide's natural unit of progress reporting.
        events.emit(
            events.STREAM_STAGE,
            stage=stages,
            budget=bound,
            states=len(graph),
            candidates=len(candidates),
            witness=witness is not None,
        )
        if witness is not None:
            return _validated_counterexample(graph, witness), stages
        budget_bound = len(graph) >= bound
        if graph.complete or not budget_bound or (
            max_states is not None and bound >= max_states
        ):
            # Final stage: the graph equals what a materialized
            # ``explore(system, max_states, max_depth)`` would return —
            # either complete, or cut by the same depth/state bounds.
            return (
                FairTerminationResult(
                    fairly_terminates=True,
                    decisive=graph.complete,
                    witness=None,
                    states_explored=len(graph),
                    transitions_explored=len(graph.transitions),
                ),
                stages,
            )
        previous_states = len(graph)
        previous_frontier = frontier
        budget *= growth


def find_weakly_fair_cycle(graph: ReachableGraph) -> Optional[FairCycle]:
    """A reachable cycle fair under *weak* fairness (justice), or ``None``.

    A lasso is weakly fair iff every command enabled at **every** cycle
    state is executed on the cycle.  Per SCC ``S``: the grand tour visits
    all of ``S``, so its continuously-enabled set is exactly the commands
    enabled everywhere in ``S`` — the tour is weakly fair iff those are all
    executed inside ``S``.  Conversely a command enabled everywhere in
    ``S`` but executed on no internal transition starves *every* cycle of
    ``S`` (it is continuously enabled along any of them), so no refinement
    is needed: the per-SCC test is complete.
    """
    analyses = graph.analyses
    enabled_masks = analyses.enabled_masks
    decomposition = decompose(graph)
    for component in decomposition.components:
        component_set = set(component)
        executed_mask = analyses.executed_mask_within(component_set)
        if not executed_mask:
            continue
        everywhere_mask = enabled_masks[component[0]]
        for i in component:
            everywhere_mask &= enabled_masks[i]
        if not (everywhere_mask & ~executed_mask):
            return FairCycle(
                lasso=grand_tour_lasso(graph, component),
                region=tuple(component),
                enabled_on_cycle=graph.commands_enabled_within(component_set),
                executed_on_cycle=analyses.labels_of_mask(executed_mask),
            )
    return None


def find_impartial_cycle(graph: ReachableGraph) -> Optional[FairCycle]:
    """A reachable cycle that is *impartial* (executes every command
    infinitely often), or ``None``.

    Exists iff some SCC's internal transitions cover the whole command set;
    the grand tour then realises it.  Impartiality is the strongest notion
    of the [LPS81] trio, so impartial termination is the weakest
    termination property: ``weak-fair term ⟹ strong-fair term ⟹
    impartial term`` (tested, not just asserted here).
    """
    all_commands = frozenset(graph.system.commands())
    analyses = graph.analyses
    decomposition = decompose(graph)
    for component in decomposition.components:
        component_set = set(component)
        executed_mask = analyses.executed_mask_within(component_set)
        if not executed_mask:
            continue
        executed = analyses.labels_of_mask(executed_mask)
        if executed == all_commands:
            return FairCycle(
                lasso=grand_tour_lasso(graph, component),
                region=tuple(component),
                enabled_on_cycle=graph.commands_enabled_within(component_set),
                executed_on_cycle=executed,
            )
    return None


def enumerate_unfair_commands(
    graph: ReachableGraph,
    component: Sequence[int],
) -> FrozenSet[str]:
    """Commands enabled somewhere in ``component`` but never executed inside.

    Non-empty for every SCC of a fairly terminating program — these are the
    candidate *unfairness hypotheses* (helpful directions) of the region,
    and the synthesiser picks its level-1 hypothesis among them.
    """
    analyses = graph.analyses
    members = set(component)
    executed_mask = analyses.executed_mask_within(members)
    enabled_mask = analyses.enabled_mask_within(members)
    return analyses.labels_of_mask(enabled_mask & ~executed_mask)
