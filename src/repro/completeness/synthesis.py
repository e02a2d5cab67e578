"""Automatic synthesis of fair termination measures for finite-state
programs.

The paper proves a measure *exists* for every fairly terminating program;
for finite-state programs we can actually *compute* one, by running the
completeness argument on the reachable graph instead of the infinite tree:

* ``μ^T`` is the reverse-topological rank of a state's SCC — every
  inter-SCC transition strictly decreases it, so the T-hypothesis is active
  there.
* Inside a non-trivial SCC ``S`` no fair cycle exists (else the program
  would not fairly terminate), so some command ``ℓ`` is enabled somewhere in
  ``S`` yet executed on no transition inside ``S``.  That ``ℓ`` becomes the
  unfairness hypothesis at the next stack level: on transitions touching a
  state where ``ℓ`` is enabled it is active by enabledness, and on the rest
  its measure — the reverse-topological rank over the sub-SCCs of
  ``S − {ℓ enabled}`` — strictly decreases or the transition stays inside a
  sub-SCC, where the construction recurses with a fresh hypothesis.

The recursion mirrors the *helpful directions* decomposition ([LPS81,
GFMdRv85]) — but the output is a single stack assignment over the unaltered
program, exactly the paper's point: the stack summarises "in a single data
structure the information obtained by the program transformations of
previous methods".  Stack heights are bounded by ``N + 1``: each nested
region disables all enclosing helpful commands, so the commands along a
nesting chain are distinct.

Synthesised measures are returned *unverified*; callers (and every test)
push them through :func:`repro.measures.verification.check_measure`, which
re-derives the verification conditions independently.

Engine notes: the requirement set becomes ints once, up front
(:func:`repro.fairness.refine.requirement_masks` — one demanded mask per
state, one fulfilled mask per transition; command fairness reads the
graph's columns and calls no predicate).  The decomposition is one
iterative loop over an explicit work stack, on the stamped region step
the fair-cycle search uses (:class:`repro.fairness.refine.RefinementScratch`):
a region's helpful requirement is its lowest starved bit, i.e. the first
starved requirement in declaration order.  Nothing recurses, so stack
height is limited by memory, not by Python's recursion limit, and every
region's sub-SCC pass shares the graph's one Tarjan scratch, so a region
costs time in its own size, not in the graph's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.fairness.generalized import (
    FairnessRequirement,
    GeneralFairCycle,
    command_requirements,
    find_generally_fair_cycle,
)
from repro.fairness.refine import RefinementScratch, requirement_masks
from repro.measures.assignment import StackAssignment
from repro.measures.hypotheses import TERMINATION, Hypothesis
from repro.measures.stack import Stack
from repro.telemetry import core as telemetry
from repro.ts.explore import ReachableGraph
from repro.ts.graph import decompose
from repro.wf.naturals import NATURALS


class NotFairlyTerminatingError(ValueError):
    """Synthesis found a region admitting a fair cycle; the program does not
    fairly terminate, so no measure exists (contrapositive of Theorem 2)."""

    def __init__(self, message: str, witness: Optional[GeneralFairCycle]) -> None:
        super().__init__(message)
        self.witness = witness


@dataclass
class RegionInfo:
    """One node of the decomposition tree, for reporting and the baselines.

    ``helpful`` is the command chosen as the region's unfairness
    hypothesis; ``level`` its stack level; ``states`` the region.
    """

    level: int
    helpful: str
    states: Tuple[int, ...]
    enabled_here: Tuple[int, ...]
    children: List["RegionInfo"] = field(default_factory=list)

    def total_regions(self) -> int:
        """Number of regions in this subtree (including itself)."""
        total = 0
        work = [self]
        while work:
            region = work.pop()
            total += 1
            work.extend(region.children)
        return total


@dataclass
class SynthesisResult:
    """A synthesised measure plus the decomposition it came from."""

    graph: ReachableGraph
    stacks: Dict[int, Stack]
    regions: List[RegionInfo]

    def assignment(self) -> StackAssignment:
        """The measure as a checkable stack assignment (values in ℕ)."""
        table = {
            self.graph.state_of(index): stack
            for index, stack in self.stacks.items()
        }
        return StackAssignment.from_dict(
            table, NATURALS, description="synthesised fair termination measure"
        )

    def max_stack_height(self) -> int:
        """The tallest stack used (≤ N + 1)."""
        return max(stack.height for stack in self.stacks.values())

    def region_count(self) -> int:
        """Total regions across the decomposition forest."""
        return sum(region.total_regions() for region in self.regions)


def _peel(
    graph: ReachableGraph,
    requirements: Sequence[FairnessRequirement],
    components: Sequence[Sequence[int]],
    entries: Sequence[List[Hypothesis]] | Dict[int, List[Hypothesis]],
    level: int,
) -> List[RegionInfo]:
    """Assign hypotheses inside each strongly connected region of
    ``components`` (level ``level``) and, level by level, inside their
    sub-SCCs.

    Appends one hypothesis per level to ``entries[index]`` of every state
    in a region and returns the regions' :class:`RegionInfo` trees.  The
    work stack is popped depth first, children in Tarjan order, so each
    parent's :class:`RegionInfo` exists before its children and a state's
    hypotheses come out in level order.  Raises
    :class:`NotFairlyTerminatingError` on the first region that starves
    nothing.
    """
    masks = requirement_masks(graph, requirements)
    labels = masks.labels
    demand = masks.demand
    packed = graph.analyses.packed
    scratch = RefinementScratch(graph.analyses.scratch())
    scratch.ensure(len(graph))
    # A singleton without a self-loop is a trivial region: skip it before
    # the region step.
    src, _, dst = graph.transition_columns
    loops = {s for s, t in zip(src, dst) if s == t}

    def nontrivial(component) -> bool:
        return len(component) > 1 or component[0] in loops

    roots: List[RegionInfo] = []
    work = [
        (component, level, roots)
        for component in reversed(components)
        if nontrivial(component)
    ]
    while work:
        region, depth, siblings = work.pop()
        _, demanded, served = scratch.region(region, packed, masks)
        starved = demanded & ~served
        if not starved:
            raise NotFairlyTerminatingError(
                f"region of {len(region)} states fulfils every demanded "
                "requirement internally — it hosts a fair cycle, so the "
                "program does not fairly terminate",
                find_generally_fair_cycle(graph, requirements),
            )
        bit = starved & -starved
        helpful = labels[bit.bit_length() - 1]
        # Measure for the helpful hypothesis: 0 on states where it demands
        # service (activity there is by demand; the value is immaterial),
        # and 1 + sub-SCC rank elsewhere, so transitions between different
        # sub-SCCs strictly decrease it.
        enabled_here = []
        rest = []
        for i in region:
            (enabled_here if demand[i] & bit else rest).append(i)
        demanding = Hypothesis(helpful, 0)
        for i in enabled_here:
            entries[i].append(demanding)
        sub = scratch.components(packed, rest)
        for rank, component in enumerate(sub, 1):
            measured = Hypothesis(helpful, rank)
            for i in component:
                entries[i].append(measured)
        info = RegionInfo(
            level=depth,
            helpful=helpful,
            states=tuple(region),
            enabled_here=tuple(enabled_here),
        )
        siblings.append(info)
        work.extend(
            (component, depth + 1, info.children)
            for component in reversed(sub)
            if nontrivial(component)
        )
    return roots


def synthesize_measure(
    graph: ReachableGraph,
    requirements: Optional[Sequence[FairnessRequirement]] = None,
    n_jobs: int | None = None,
) -> SynthesisResult:
    """Synthesise a fair termination measure over a complete finite graph.

    ``requirements`` switches to generalized fairness ([FK84]): hypotheses
    then name requirements instead of commands, helpful choices are
    demanded-but-unfulfilled requirements, and the result must be verified
    with ``check_measure(..., requirements=requirements)``.  Omitted, the
    paper's per-command strong fairness is used.

    ``n_jobs`` is accepted for interface compatibility and ignored:
    synthesis always runs in-process (only the columnar verification
    plane of :func:`~repro.measures.verification.check_measure` fans out).

    Raises :class:`NotFairlyTerminatingError` (with a fair-cycle witness)
    when none exists, and ``ValueError`` on incomplete graphs — a measure
    synthesised from a truncated graph would certify nothing.
    """
    if not graph.complete:
        raise ValueError(
            "synthesis needs the complete reachable graph; "
            f"exploration left {len(graph.frontier)} frontier states"
        )
    if requirements is None:
        requirements = command_requirements(graph.system)
    with telemetry.span("synthesize", states=len(graph), jobs=n_jobs) as sp:
        result = _synthesize_inner(graph, requirements)
        height = result.max_stack_height()
        telemetry.count("synthesize.runs")
        telemetry.gauge("synthesize.max_stack_height", height)
        sp.set("regions", result.region_count())
        sp.set("max_stack_height", height)
        return result


def _synthesize_inner(
    graph: ReachableGraph,
    requirements: Sequence[FairnessRequirement],
) -> SynthesisResult:
    top = decompose(graph)
    # Reverse-topological component position: every inter-SCC transition
    # strictly decreases it.
    base_entries: List[List[Hypothesis]] = [[]] * len(graph)
    for rank, component in enumerate(top.components):
        termination = Hypothesis(TERMINATION, rank)
        for index in component:
            base_entries[index] = [termination]
    regions = _peel(graph, requirements, top.components, base_entries, 1)
    if telemetry.enabled():
        telemetry.count("synthesize.top_sccs", len(regions))
        telemetry.count(
            "synthesize.regions", sum(info.total_regions() for info in regions)
        )
        telemetry.count(
            "synthesize.hypotheses",
            sum(len(entries) - 1 for entries in base_entries),
        )
    stacks = {index: Stack(entries) for index, entries in enumerate(base_entries)}
    return SynthesisResult(graph=graph, stacks=stacks, regions=regions)


def process_regions(
    graph: ReachableGraph,
    components: Sequence[Sequence[int]],
    requirements: Sequence[FairnessRequirement],
    entries: Dict[int, List[Hypothesis]],
    level: int = 1,
) -> List[RegionInfo]:
    """Process several disjoint strongly connected regions (each
    ascending) with one set of requirement masks.

    Trivial components (no internal transition) are skipped; raises
    :class:`NotFairlyTerminatingError` when a region hosts a fair cycle.
    Used by :mod:`repro.response.measure`, which decomposes a pending
    region and runs the standard construction inside each of its SCCs.
    """
    return _peel(graph, requirements, components, entries, level)
