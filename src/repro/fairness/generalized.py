"""Generalized fairness ([FK84]) — fairness over arbitrary requirements.

§2: "The approach of helpful directions has been successful at explaining
many fairness concepts, such as those involving general state predicates
[FK84]", and the paper notes its own proofs "could have been formulated for
Rabin pairs conditions (thus yielding a method for general fairness
[FK84])".  This module supplies that generality:

A :class:`FairnessRequirement` names a constraint with

* ``enabled_at(state)`` — when the requirement *demands service*, and
* ``fulfilled_by(source, command, target)`` — which transitions service it.

A computation is *fair* w.r.t. a requirement set iff every requirement
enabled infinitely often is fulfilled infinitely often.  Strong command
fairness is the instance with one requirement per command
(:func:`command_requirements`); group fairness, predicate fairness and
similar notions are other instances.

:func:`find_generally_fair_cycle` decides, for a finite reachable graph,
whether a fair infinite computation exists.  It runs the per-command
checker's loop (:func:`repro.fairness.refine.find_fair_region`) over
requirement masks: each ``enabled_at`` is evaluated once per state and
each ``fulfilled_by`` once per transition, and requirements with
``kind="command"`` are answered from the graph's columns without calling
either.  Its set-based oracle is
:func:`repro.engine.reference.find_generally_fair_cycle_reference`.
The stack-assertion machinery generalizes alongside: hypotheses may name
requirements instead of commands (see
:func:`repro.measures.verification.check_measure` with ``requirements=``),
and the synthesiser accepts a requirement set too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple

from repro.fairness.refine import find_fair_region, requirement_masks
from repro.ts.explore import ReachableGraph
from repro.ts.graph import decompose
from repro.ts.lasso import Lasso, grand_tour_lasso
from repro.ts.system import CommandLabel, State, TransitionSystem


@dataclass(frozen=True)
class FairnessRequirement:
    """One fairness constraint: when it demands service and what serves it.

    ``kind`` is a performance tag, not a semantic one: requirements built by
    :func:`command_requirements` carry ``kind="command"``, promising that
    ``enabled_at`` is exactly "the named command is enabled" and
    ``fulfilled_by`` exactly "the named command is executed" — which lets
    index-native consumers answer both from the explored graph's cached
    enabled sets instead of calling back into the predicates per state.
    """

    name: str
    enabled_at: Callable[[State], bool]
    fulfilled_by: Callable[[State, CommandLabel, State], bool]
    kind: str = "general"

    def __str__(self) -> str:
        return f"requirement {self.name!r}"


def command_requirements(
    system: TransitionSystem,
) -> Tuple[FairnessRequirement, ...]:
    """Strong command fairness as a requirement set: one per command."""
    requirements = []
    for command in system.commands():
        requirements.append(
            FairnessRequirement(
                name=command,
                enabled_at=lambda state, _c=command: _c in system.enabled(state),
                fulfilled_by=lambda s, c, t, _c=command: c == _c,
                kind="command",
            )
        )
    return tuple(requirements)


def group_requirement(
    system: TransitionSystem,
    name: str,
    members: Sequence[CommandLabel],
) -> FairnessRequirement:
    """Group fairness: the *group* must act when any member is enabled.

    Coarser than per-command fairness — the scheduler may starve individual
    members forever as long as some member runs — so group-fair computations
    form a superset of command-fair ones, and group-fair *termination* is
    the stronger property.
    """
    member_set = frozenset(members)
    unknown = member_set - set(system.commands())
    if unknown:
        raise ValueError(f"group {name!r} mentions unknown commands {sorted(unknown)}")
    return FairnessRequirement(
        name=name,
        enabled_at=lambda state: bool(member_set & system.enabled(state)),
        fulfilled_by=lambda s, c, t: c in member_set,
    )


def predicate_requirement(
    name: str,
    demands: Callable[[State], bool],
    serves: Callable[[State, CommandLabel, State], bool],
) -> FairnessRequirement:
    """General state-predicate fairness ([FK84]): free-form demand/serve."""
    return FairnessRequirement(name=name, enabled_at=demands, fulfilled_by=serves)


@dataclass(frozen=True)
class RequirementViolation:
    """A requirement the lasso treats unfairly: demanded at ``enabled_at``
    cycle states, serviced by no cycle transition."""

    requirement: FairnessRequirement
    enabled_at: Tuple[State, ...]


def requirement_violations(
    lasso: Lasso,
    requirements: Sequence[FairnessRequirement],
) -> Tuple[RequirementViolation, ...]:
    """All requirements the lasso's infinite computation starves."""
    cycle_states = lasso.cycle_states()
    cycle_transitions = list(lasso.cycle.transitions())
    result: List[RequirementViolation] = []
    for requirement in requirements:
        fulfilled = any(
            requirement.fulfilled_by(t.source, t.command, t.target)
            for t in cycle_transitions
        )
        if fulfilled:
            continue
        demanded = tuple(
            state for state in cycle_states if requirement.enabled_at(state)
        )
        if demanded:
            result.append(
                RequirementViolation(requirement=requirement, enabled_at=demanded)
            )
    return tuple(result)


def is_generally_fair(
    lasso: Lasso,
    requirements: Sequence[FairnessRequirement],
) -> bool:
    """Whether the lasso satisfies every requirement."""
    return not requirement_violations(lasso, requirements)


@dataclass(frozen=True)
class GeneralFairCycle:
    """A fair lasso (w.r.t. a requirement set) and the hosting region."""

    lasso: Lasso
    region: Tuple[int, ...]


def find_generally_fair_cycle(
    graph: ReachableGraph,
    requirements: Sequence[FairnessRequirement],
) -> Optional[GeneralFairCycle]:
    """A reachable cycle fair w.r.t. ``requirements``, or ``None``.

    Streett-emptiness refinement with one pair per requirement: an SCC
    hosts a fair cycle iff every requirement demanded somewhere inside is
    fulfilled by some internal transition; otherwise states demanding a
    starved requirement are removed and the remainder re-examined.
    """
    # Each requirement is its own Streett pair, even where names repeat
    # (the masks merge requirements by name): repeats get distinct labels.
    names = set()
    pairs = []
    for k, requirement in enumerate(requirements):
        if requirement.name in names:
            requirement = replace(
                requirement, name=(requirement.name, k), kind="general"
            )
        names.add(requirement.name)
        pairs.append(requirement)
    masks = requirement_masks(graph, pairs)
    region = find_fair_region(graph, masks, decompose(graph).components)
    if region is None:
        return None
    lasso = grand_tour_lasso(graph, region)
    if requirement_violations(lasso, requirements):
        raise AssertionError("internal error: grand tour unexpectedly unfair")
    return GeneralFairCycle(lasso=lasso, region=region)


def check_general_fair_termination(
    graph: ReachableGraph,
    requirements: Sequence[FairnessRequirement],
) -> Tuple[bool, Optional[GeneralFairCycle]]:
    """``(fairly_terminates_over_explored_region, witness)``."""
    witness = find_generally_fair_cycle(graph, requirements)
    return witness is None, witness
