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

Engine notes: requirement predicates (arbitrary Python callables) are
evaluated exactly once per state and once per transition, up front; the
recursive decomposition then runs purely on integer indices and interned
requirement names over the graph's packed CSR arrays.  Every region's
sub-SCC pass shares the graph's one Tarjan scratch, so a region costs
time in its own size, not in the graph's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.analysis import TarjanScratch, tarjan_scc_csr
from repro.engine.packed import PackedGraph
from repro.fairness.generalized import (
    FairnessRequirement,
    GeneralFairCycle,
    command_requirements,
    find_generally_fair_cycle,
)
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
        return 1 + sum(child.total_regions() for child in self.children)


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


@dataclass(frozen=True)
class _SynthesisContext:
    """Plain-data view of one synthesis problem.

    Everything a region processor needs, free of transition systems,
    assignments and requirement callables — so the recursion never calls
    back into Python predicates:

    * ``packed`` — the graph's CSR arrays;
    * ``demanded`` — per state, the frozenset of requirement names
      demanding service there (each ``enabled_at`` evaluated once);
    * ``fulfilled`` — per transition id, the frozenset of requirement
      names that transition fulfils (each ``fulfilled_by`` evaluated once);
    * ``names`` — requirement names in declaration order (the helpful
      choice scans them in this order, matching the seed exactly);
    * ``scratch`` — the graph's Tarjan work arrays, shared by every
      region's sub-SCC pass (one per region would make each pass cost
      O(states) to allocate, and synthesis O(states × regions)).
    """

    packed: PackedGraph
    demanded: Tuple[frozenset, ...]
    fulfilled: Tuple[frozenset, ...]
    names: Tuple[str, ...]
    scratch: TarjanScratch


class _RegionUnfair(Exception):
    """Internal: a (sub)region fulfils every demanded requirement, i.e. it
    hosts a fair cycle.  Carries the region size for the error message; the
    caller attaches the (expensively computed) witness."""

    def __init__(self, region_size: int) -> None:
        super().__init__(region_size)
        self.region_size = region_size


def _build_context(
    graph: ReachableGraph,
    requirements: Sequence[FairnessRequirement],
) -> _SynthesisContext:
    names = tuple(r.name for r in requirements)
    if all(r.kind == "command" for r in requirements):
        # Command fairness: "demanded" is enabledness and "fulfilled" is
        # execution of the named command, both already cached on the graph —
        # no predicate calls (and no per-state GCL guard re-evaluation).
        analyses = graph.analyses
        name_set = frozenset(names)
        demanded = tuple(
            enabled if enabled <= name_set else enabled & name_set
            for enabled in (
                graph.enabled_at(i) for i in range(len(graph))
            )
        )
        commands = analyses.commands
        empty: frozenset = frozenset()
        fulfilled = tuple(
            commands.singleton(cmd_id)
            if commands.label_of(cmd_id) in name_set
            else empty
            for cmd_id in analyses.packed.cmd
        )
    else:
        demanded = tuple(
            frozenset(
                r.name for r in requirements if r.enabled_at(graph.state_of(i))
            )
            for i in range(len(graph))
        )
        fulfilled = tuple(
            frozenset(
                r.name
                for r in requirements
                if r.fulfilled_by(
                    graph.state_of(t.source), t.command, graph.state_of(t.target)
                )
            )
            for t in graph.transitions
        )
    return _SynthesisContext(
        packed=graph.analyses.packed,
        demanded=demanded,
        fulfilled=fulfilled,
        names=names,
        scratch=graph.analyses.scratch(),
    )


def _internal_eids(ctx: _SynthesisContext, members: set) -> List[int]:
    packed = ctx.packed
    out_start, out_eid, dst = packed.out_start, packed.out_eid, packed.dst
    result: List[int] = []
    for i in sorted(members):
        for pos in range(out_start[i], out_start[i + 1]):
            eid = out_eid[pos]
            if dst[eid] in members:
                result.append(eid)
    return result


def _process_region_indexed(
    region: List[int],
    level: int,
    ctx: _SynthesisContext,
    entries: Dict[int, List[Hypothesis]],
) -> RegionInfo:
    """Assign level-``level`` hypotheses inside one strongly connected
    region and recurse into its sub-SCCs, index-natively.

    Appends to ``entries[index]`` (creating the list if absent) and returns
    the region's :class:`RegionInfo`; raises :class:`_RegionUnfair` when the
    region starves nothing.
    """
    members = set(region)
    internal = _internal_eids(ctx, members)
    demanded = ctx.demanded
    fulfilled = ctx.fulfilled
    helpful: Optional[str] = None
    enabled_here: List[int] = []
    for name in ctx.names:
        candidates = [i for i in region if name in demanded[i]]
        if candidates and not any(name in fulfilled[e] for e in internal):
            helpful = name
            enabled_here = candidates
            break
    if helpful is None:
        raise _RegionUnfair(len(region))

    rest = sorted(members - set(enabled_here))
    sub_components = tarjan_scc_csr(ctx.packed, rest, scratch=ctx.scratch)
    sub_rank: Dict[int, int] = {}
    for position, component in enumerate(sub_components):
        for node in component:
            sub_rank[node] = position

    # Measure for the helpful hypothesis: 0 on states where it demands
    # service (activity there is by demand; the value is immaterial), and
    # 1 + sub-SCC rank elsewhere, so transitions between different sub-SCCs
    # strictly decrease it.
    for index in enabled_here:
        entries.setdefault(index, []).append(Hypothesis(helpful, 0))
    for index in rest:
        entries.setdefault(index, []).append(
            Hypothesis(helpful, 1 + sub_rank[index])
        )

    info = RegionInfo(
        level=level,
        helpful=helpful,
        states=tuple(region),
        enabled_here=tuple(sorted(enabled_here)),
    )
    for component in sub_components:
        sub_members = set(component)
        if not _internal_eids(ctx, sub_members):
            continue
        info.children.append(
            _process_region_indexed(
                sorted(sub_members), level + 1, ctx, entries
            )
        )
    return info


def _process_top_regions(
    ctx: _SynthesisContext, regions: Sequence[Sequence[int]]
):
    """Process the independent top-level SCC regions, in order.

    Returns one entry per region: ``("ok", extra, info)`` with the
    hypotheses appended above the base stacks, or ``("unfair",
    region_size)``.
    """
    results = []
    traced = telemetry.enabled()
    for region in regions:
        extra: Dict[int, List[Hypothesis]] = {}
        try:
            info = _process_region_indexed(list(region), 1, ctx, extra)
        except _RegionUnfair as unfair:
            results.append(("unfair", unfair.region_size))
            if traced:
                telemetry.count("synthesize.unfair_regions")
        else:
            results.append(("ok", extra, info))
            if traced:
                telemetry.count("synthesize.regions", info.total_regions())
                telemetry.count(
                    "synthesize.hypotheses",
                    sum(len(appended) for appended in extra.values()),
                )
    return results


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
        telemetry.count("synthesize.runs")
        telemetry.gauge("synthesize.max_stack_height", result.max_stack_height())
        sp.set("regions", result.region_count())
        sp.set("max_stack_height", result.max_stack_height())
        return result


def _synthesize_inner(
    graph: ReachableGraph,
    requirements: Sequence[FairnessRequirement],
) -> SynthesisResult:
    top = decompose(graph)
    ctx = _build_context(graph, requirements)
    # Reverse-topological component position: every inter-SCC transition
    # strictly decreases it.
    base_entries: Dict[int, List[Hypothesis]] = {
        index: [Hypothesis(TERMINATION, top.component_of[index])]
        for index in range(len(graph))
    }

    nontrivial = [
        component
        for component in top.components
        if _internal_eids(ctx, set(component))
    ]
    telemetry.count("synthesize.top_sccs", len(nontrivial))

    regions: List[RegionInfo] = []
    for outcome in _process_top_regions(ctx, nontrivial):
        if outcome[0] == "unfair":
            witness = find_generally_fair_cycle(graph, requirements)
            raise NotFairlyTerminatingError(
                f"region of {outcome[1]} states fulfils every demanded "
                "requirement internally — it hosts a fair cycle, so the "
                "program does not fairly terminate",
                witness,
            )
        _, extra, info = outcome
        for index, appended in extra.items():
            base_entries[index].extend(appended)
        regions.append(info)

    stacks = {
        index: Stack(entries) for index, entries in base_entries.items()
    }
    return SynthesisResult(graph=graph, stacks=stacks, regions=regions)


def process_regions(
    graph: ReachableGraph,
    components: Sequence[Sequence[int]],
    requirements: Sequence[FairnessRequirement],
    entries: Dict[int, List[Hypothesis]],
    level: int = 1,
) -> List[RegionInfo]:
    """Process several disjoint strongly connected regions with one shared
    indexed context (requirement predicates evaluated once for all of them).

    Trivial components (no internal transition) are skipped.  Used by
    :mod:`repro.response.measure`, which decomposes a pending region and
    runs the standard construction inside each of its SCCs.
    """
    ctx = _build_context(graph, requirements)
    regions: List[RegionInfo] = []
    try:
        for component in components:
            if not _internal_eids(ctx, set(component)):
                continue
            regions.append(
                _process_region_indexed(list(component), level, ctx, entries)
            )
    except _RegionUnfair as unfair:
        witness = find_generally_fair_cycle(graph, requirements)
        raise NotFairlyTerminatingError(
            f"region of {unfair.region_size} states fulfils every demanded "
            "requirement internally — it hosts a fair cycle, so the program "
            "does not fairly terminate",
            witness,
        ) from None
    return regions


def _process_region(
    graph: ReachableGraph,
    region: List[int],
    level: int,
    requirements: Sequence[FairnessRequirement],
    entries: Dict[int, List[Hypothesis]],
) -> RegionInfo:
    """Assign hypotheses inside one strongly connected region (state-level
    compatibility entry point).

    Builds the indexed context for the *whole* graph and delegates; raises
    :class:`NotFairlyTerminatingError` like the seed implementation did.
    Callers with several regions should use :func:`process_regions`, which
    shares one context across all of them.
    """
    ctx = _build_context(graph, requirements)
    try:
        return _process_region_indexed(list(region), level, ctx, entries)
    except _RegionUnfair as unfair:
        witness = find_generally_fair_cycle(graph, requirements)
        raise NotFairlyTerminatingError(
            f"region of {unfair.region_size} states fulfils every demanded "
            "requirement internally — it hosts a fair cycle, so the program "
            "does not fairly terminate",
            witness,
        ) from None
