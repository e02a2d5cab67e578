"""The pre-engine algorithms, preserved as baseline and oracle.

These are the seed implementations of exploration, SCC decomposition,
the fair-cycle searches, measure checking and measure synthesis, kept
byte-for-byte in behaviour (and deliberately in *cost*: the reference
``decompose`` scans every graph transition per call, and the reference
synthesis and generalized search re-evaluate requirement predicates per
region — the exact quadratic churn the engine removes).

Two consumers:

* ``benchmarks/bench_e13_engine_scaling.py`` uses them as the "before"
  column of the speedup table;
* ``tests/engine``, ``tests/fairness`` and ``tests/measures`` use them as an
  independently-written oracle that the engine fast paths must match
  bit-for-bit (:func:`explore_reference` is
  test-only: the FIFO loop the round-based explorer must reproduce).

Do not optimise this module.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.fairness.generalized import FairnessRequirement, command_requirements
from repro.measures.assignment import StackAssignment
from repro.measures.hypotheses import TERMINATION, Hypothesis
from repro.measures.stack import Stack, stacks_equal_below
from repro.measures.verification import (
    ActiveWitness,
    ActiveWitnessData,
    LevelFailure,
    MeasureCheckResult,
    TransitionViolation,
)
from repro.ts.explore import (
    ExplorationLimitError,
    IndexedTransition,
    ReachableGraph,
)
from repro.ts.graph import SccDecomposition, tarjan_scc


def explore_reference(
    system,
    max_states: Optional[int] = None,
    max_depth: Optional[int] = None,
    strict: bool = False,
) -> ReachableGraph:
    """Seed ``explore``: a FIFO queue, one ``system.expand`` per pop.

    No observer, telemetry, job count or replay hooks — the per-state
    loop the round-based explorer replaced, kept as the oracle whose
    graph (states, transition order, enabled sets, frontier, strict
    message) every exploration must reproduce.
    """
    states: List = []
    index: Dict = {}
    depth: List[int] = []
    for s in system.initial_states():
        if s not in index:
            index[s] = len(states)
            states.append(s)
            depth.append(0)
    initial_count = len(states)
    if initial_count == 0:
        raise ValueError("system has no initial states")

    labels: List[str] = list(system.commands())
    label_ids: Dict[str, int] = {label: k for k, label in enumerate(labels)}

    def mask_of(enabled) -> int:
        mask = 0
        for label in enabled:
            if label not in label_ids:
                label_ids[label] = len(labels)
                labels.append(label)
            mask |= 1 << label_ids[label]
        return mask

    edges: List[Tuple[int, str, int]] = []
    masks: List[Optional[int]] = [None] * initial_count
    expanded: List[bool] = [False] * initial_count
    frontier: Set[int] = set()
    truncated = False
    queue = deque(range(initial_count))
    while queue:
        i = queue.popleft()
        if expanded[i]:
            continue
        if max_depth is not None and depth[i] > max_depth:
            frontier.add(i)
            truncated = True
            continue
        expanded[i] = True
        enabled, posts = system.expand(states[i])
        masks[i] = mask_of(enabled)
        for command, target in posts:
            j = index.get(target)
            if j is None:
                if max_states is not None and len(states) >= max_states:
                    # A new successor lost at the budget: the source
                    # becomes frontier.
                    frontier.add(i)
                    truncated = True
                    break
                j = len(states)
                index[target] = j
                states.append(target)
                depth.append(depth[i] + 1)
                masks.append(None)
                expanded.append(False)
            edges.append((i, command, j))
            if not expanded[j]:
                queue.append(j)

    if truncated and strict:
        raise ExplorationLimitError(
            f"exploration truncated at {len(states)} states "
            f"(max_states={max_states}, max_depth={max_depth})"
        )
    frontier.update(i for i in range(len(states)) if not expanded[i])
    for i in range(len(states)):
        if masks[i] is None:
            masks[i] = mask_of(system.enabled(states[i]))
    kept = [edge for edge in edges if edge[0] not in frontier]
    cmd = array("q")
    for _, command, _ in kept:
        if command not in label_ids:
            label_ids[command] = len(labels)
            labels.append(command)
        cmd.append(label_ids[command])
    return ReachableGraph.from_arrays(
        system=system,
        states=states,
        labels=labels,
        src=array("q", [edge[0] for edge in kept]),
        cmd=cmd,
        dst=array("q", [edge[2] for edge in kept]),
        enabled_masks=masks,
        initial_count=initial_count,
        frontier=frontier,
        index=index,
    )


def decompose_reference(
    graph: ReachableGraph,
    restrict_to=None,
) -> SccDecomposition:
    """Seed ``decompose``: rebuilds the successor dict from *all* graph
    transitions on every call."""
    if restrict_to is None:
        members: Set[int] = set(range(len(graph)))
    else:
        members = set(restrict_to)
    successors: Dict[int, List[int]] = {i: [] for i in members}
    for t in graph.transitions:
        if t.source in members and t.target in members:
            successors[t.source].append(t.target)
    components = tarjan_scc(sorted(members), successors)
    component_of: Dict[int, int] = {}
    for position, component in enumerate(components):
        for node in component:
            component_of[node] = position
    return SccDecomposition(
        components=tuple(tuple(sorted(c)) for c in components),
        component_of=component_of,
    )


def internal_transitions_reference(
    graph: ReachableGraph,
    members,
) -> List[IndexedTransition]:
    """Seed ``internal_transitions`` (set-materialising, object-returning)."""
    inside = set(members)
    return [
        t
        for i in inside
        for t in graph.outgoing(i)
        if t.target in inside
    ]


def find_active_level_reference(
    source_stack: Stack,
    target_stack: Stack,
    invalidated: frozenset,
    active_subjects: frozenset,
    order,
) -> Tuple[Optional[ActiveWitnessData], List[LevelFailure]]:
    """Seed ``find_active_level_general``: per level, re-compares the
    whole prefix below it and rebuilds the invalidated prefix — O(h²)
    per transition in the stack height ``h``."""
    failures: List[LevelFailure] = []
    max_level = min(source_stack.height, target_stack.height)
    for level in range(max_level):
        before = source_stack.level(level)
        after = target_stack.level(level)
        if before.subject != after.subject:
            failures.append(
                LevelFailure(
                    level,
                    before.subject,
                    f"hypothesis changes subject across the transition "
                    f"({before.subject!r} → {after.subject!r})",
                )
            )
            # Levels above sit on a changed hypothesis; (V_NoC) can no
            # longer hold for any higher level either.
            break
        subject = before.subject
        # (V_NoC): stack unchanged strictly below the active level.
        if not stacks_equal_below(source_stack, target_stack, level):
            failures.append(
                LevelFailure(level, subject, "stack changes below this level (V_NoC)")
            )
            break
        # (V_NonI): no hypothesis at or below the level is invalidated.
        hit = [
            h.subject
            for h in source_stack.take(level + 1)
            if h.subject in invalidated
        ]
        if hit:
            failures.append(
                LevelFailure(
                    level,
                    subject,
                    f"invalidated hypothesis {hit[0]!r} at or below this "
                    "level (V_NonI)",
                )
            )
            # An invalidated hypothesis sits at some level ≤ k, so every
            # higher level includes it too — no point searching on.
            break
        # (V_A): activity by demand/enabledness or by strict measure decrease.
        if subject != TERMINATION and subject in active_subjects:
            return ActiveWitnessData(level, subject, "enabled"), failures
        if before.value is not None and after.value is not None:
            if order.gt(before.value, after.value):
                return ActiveWitnessData(level, subject, "decrease"), failures
            failures.append(
                LevelFailure(
                    level,
                    subject,
                    f"measure does not decrease: {before.value} ⊁ {after.value} (V_A)",
                )
            )
        else:
            failures.append(
                LevelFailure(
                    level,
                    subject,
                    "not enabled in p or p' and no measure value to decrease (V_A)",
                )
            )
    if max_level == 0:
        failures.append(LevelFailure(0, None, "empty stack overlap"))
    return None, failures


def check_measure_reference(
    graph: ReachableGraph,
    assignment: StackAssignment,
    keep_witnesses: bool = True,
    requirements=None,
) -> MeasureCheckResult:
    """Seed ``check_measure``: per-transition frozenset churn, no pooling."""
    order = assignment.order
    stacks: List[Stack] = []
    for index in range(len(graph)):
        state = graph.state_of(index)
        stack = assignment(state)
        for hypothesis in stack:
            if hypothesis.value is not None:
                order.check_member(hypothesis.value)
        stacks.append(stack)

    witnesses: List[ActiveWitness] = []
    violations: List[TransitionViolation] = []
    for transition in graph.transitions:
        source_stack = stacks[transition.source]
        target_stack = stacks[transition.target]
        if requirements is None:
            invalidated = frozenset({transition.command})
            active_subjects = graph.enabled_at(transition.source) | graph.enabled_at(
                transition.target
            )
        else:
            source_state = graph.state_of(transition.source)
            target_state = graph.state_of(transition.target)
            invalidated = frozenset(
                r.name
                for r in requirements
                if r.fulfilled_by(source_state, transition.command, target_state)
            )
            active_subjects = frozenset(
                r.name
                for r in requirements
                if r.enabled_at(source_state) or r.enabled_at(target_state)
            )
        data, failures = find_active_level_reference(
            source_stack,
            target_stack,
            invalidated,
            active_subjects,
            order,
        )
        plain = graph.to_transition(transition)
        if data is None:
            violations.append(
                TransitionViolation(
                    transition=plain,
                    source_stack=source_stack,
                    target_stack=target_stack,
                    failures=tuple(failures),
                )
            )
        elif keep_witnesses:
            witnesses.append(
                ActiveWitness(
                    transition=plain,
                    level=data.level,
                    subject=data.subject,
                    reason=data.reason,
                )
            )

    return MeasureCheckResult(
        witnesses=witnesses,
        violations=violations,
        transitions_checked=len(graph.transitions),
        complete=graph.complete,
        order_well_founded=order.is_well_founded(),
    )


def synthesize_measure_reference(
    graph: ReachableGraph,
    requirements: Optional[Sequence[FairnessRequirement]] = None,
):
    """Seed ``synthesize_measure``: requirement predicates re-evaluated per
    region, full-transition-scan decompositions per recursion level."""
    from repro.completeness.synthesis import (
        NotFairlyTerminatingError,
        RegionInfo,
        SynthesisResult,
    )

    if not graph.complete:
        raise ValueError(
            "synthesis needs the complete reachable graph; "
            f"exploration left {len(graph.frontier)} frontier states"
        )
    if requirements is None:
        requirements = command_requirements(graph.system)

    def demanded_within(region, requirement):
        return [
            index
            for index in region
            if requirement.enabled_at(graph.state_of(index))
        ]

    def fulfilled_within(internal, requirement):
        return any(
            requirement.fulfilled_by(
                graph.state_of(t.source), t.command, graph.state_of(t.target)
            )
            for t in internal
        )

    def process_region(region: List[int], level: int, entries) -> RegionInfo:
        members = set(region)
        internal = internal_transitions_reference(graph, region)
        helpful = None
        enabled_here: List[int] = []
        for requirement in requirements:
            demanded = demanded_within(region, requirement)
            if demanded and not fulfilled_within(internal, requirement):
                helpful = requirement
                enabled_here = demanded
                break
        if helpful is None:
            witness = find_generally_fair_cycle_reference(graph, requirements)
            raise NotFairlyTerminatingError(
                f"region of {len(region)} states fulfils every demanded "
                "requirement internally — it hosts a fair cycle, so the "
                "program does not fairly terminate",
                witness,
            )
        rest = sorted(members - set(enabled_here))
        sub = decompose_reference(graph, restrict_to=rest)
        for index in enabled_here:
            entries[index].append(Hypothesis(helpful.name, 0))
        for index in rest:
            entries[index].append(
                Hypothesis(helpful.name, 1 + sub.component_of[index])
            )
        info = RegionInfo(
            level=level,
            helpful=helpful.name,
            states=tuple(region),
            enabled_here=tuple(sorted(enabled_here)),
        )
        for component in sub.components:
            if not internal_transitions_reference(graph, component):
                continue
            info.children.append(
                process_region(list(component), level + 1, entries)
            )
        return info

    top = decompose_reference(graph)
    base_entries: Dict[int, List[Hypothesis]] = {
        index: [Hypothesis(TERMINATION, top.component_of[index])]
        for index in range(len(graph))
    }
    regions: List[RegionInfo] = []
    for component in top.components:
        if not internal_transitions_reference(graph, component):
            continue
        regions.append(
            process_region(list(component), 1, base_entries)
        )
    stacks = {index: Stack(entries) for index, entries in base_entries.items()}
    return SynthesisResult(graph=graph, stacks=stacks, regions=regions)


def find_fair_cycle_reference(graph: ReachableGraph, restrict_to=None):
    """Seed ``find_fair_cycle``: per-iteration full-scan decompositions."""
    from repro.fairness.checker import FairCycle
    from repro.ts.lasso import (
        cycle_through_all,
        find_path_indices,
        lasso_from_indices,
    )

    region: Set[int] = (
        set(range(len(graph))) if restrict_to is None else set(restrict_to)
    )
    pending: List[Set[int]] = [region]
    while pending:
        current = pending.pop()
        decomposition = decompose_reference(graph, restrict_to=current)
        for component in decomposition.components:
            internal = internal_transitions_reference(graph, component)
            if not internal:
                continue
            enabled = frozenset(
                cmd for i in component for cmd in graph.enabled_at(i)
            )
            executed = frozenset(t.command for t in internal)
            violating = enabled - executed
            if not violating:
                cycle = cycle_through_all(graph, component)
                stem = find_path_indices(
                    graph, graph.initial_indices, cycle[0].source
                )
                lasso = lasso_from_indices(graph, stem, cycle)
                return FairCycle(
                    lasso=lasso,
                    region=tuple(component),
                    enabled_on_cycle=enabled,
                    executed_on_cycle=executed,
                )
            survivors = {
                i for i in component if not (graph.enabled_at(i) & violating)
            }
            if survivors:
                pending.append(survivors)
    return None


def find_generally_fair_cycle_reference(
    graph: ReachableGraph,
    requirements: Sequence[FairnessRequirement],
):
    """Seed ``find_generally_fair_cycle``: Python sets per level, every
    requirement predicate re-evaluated per state and per internal
    transition of every candidate region."""
    from repro.fairness.generalized import GeneralFairCycle, requirement_violations
    from repro.ts.lasso import (
        cycle_through_all,
        find_path_indices,
        lasso_from_indices,
    )

    def starved_requirements(component, internal):
        starved = []
        for requirement in requirements:
            demanded = any(
                requirement.enabled_at(graph.state_of(index))
                for index in component
            )
            if not demanded:
                continue
            fulfilled = any(
                requirement.fulfilled_by(
                    graph.state_of(t.source), t.command, graph.state_of(t.target)
                )
                for t in internal
            )
            if not fulfilled:
                starved.append(requirement)
        return starved

    pending: List[Set[int]] = [set(range(len(graph)))]
    while pending:
        current = pending.pop()
        decomposition = decompose_reference(graph, restrict_to=current)
        for component in decomposition.components:
            internal = internal_transitions_reference(graph, component)
            if not internal:
                continue
            starved = starved_requirements(component, internal)
            if not starved:
                cycle = cycle_through_all(graph, component)
                stem = find_path_indices(
                    graph, graph.initial_indices, cycle[0].source
                )
                lasso = lasso_from_indices(graph, stem, cycle)
                if requirement_violations(lasso, requirements):
                    raise AssertionError(
                        "internal error: grand tour unexpectedly unfair"
                    )
                return GeneralFairCycle(lasso=lasso, region=tuple(component))
            survivors = {
                index
                for index in component
                if not any(
                    r.enabled_at(graph.state_of(index)) for r in starved
                )
            }
            if survivors:
                pending.append(survivors)
    return None
