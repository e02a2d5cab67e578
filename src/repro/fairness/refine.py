"""The fair-region peel: requirement masks and the stamped refinement.

Theorem 3's construction and the fair-cycle decision run the same peel
over the reachable graph.  A strongly connected region with an internal
transition either fulfils every requirement demanded in it — its grand
tour is then a fair cycle — or it *starves* some requirement: demanded
at a member, fulfilled by no internal transition.  A fair computation
confined to the region may pass through a starved requirement's
demanding states only finitely often, so they are removed and the rest
is decomposed again.

This module owns the pieces every caller shares:

* :func:`requirement_masks` — per state the int of requirements
  demanded there, per transition the int of requirements it fulfils
  (bit ``k`` = ``labels[k]``).  Command fairness reads the graph's
  enabled masks and ``cmd`` column and calls no predicate;
* :class:`RefinementScratch` — one generation-stamp array plus Tarjan
  work arrays.  :meth:`~RefinementScratch.region` stamps a region and
  ORs its demanded and fulfilled masks in one pass over its CSR slices;
  :meth:`~RefinementScratch.components` decomposes a stamped survivor
  set.  No per-level sets are built;
* :func:`find_fair_region` — the decision loop, iterative over an
  explicit work stack: it removes *every* starved requirement and
  returns the first region that starves none.  Command decide,
  streaming decide and generalized decide all run it.

Synthesis (:mod:`repro.completeness.synthesis`) runs its own loop over
the same masks and region step: it removes only the lowest starved bit
per region and records it as that level's unfairness hypothesis.
"""

from __future__ import annotations

from array import array
from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.engine.analysis import TarjanScratch, tarjan_scc_csr
from repro.engine.packed import PackedGraph
from repro.ts.explore import ReachableGraph


class RequirementMasks(NamedTuple):
    """A requirement set as ints over the graph.

    ``labels`` are the requirement names in declaration order, duplicates
    dropped (requirements sharing a name count as one); ``demand[i]`` has
    bit ``k`` set when ``labels[k]`` demands service at state ``i``, and
    ``fulfilled[eid]`` when transition ``eid`` fulfils it.
    """

    labels: Tuple[str, ...]
    demand: Sequence[int]
    fulfilled: Sequence[int]


def requirement_masks(
    graph: ReachableGraph, requirements=None
) -> RequirementMasks:
    """The masks of ``requirements`` over ``graph``.

    ``None`` means strong command fairness over the graph's command
    table.  When every requirement has ``kind="command"`` no predicate is
    called: demand is the graph's enabled masks (remapped once when the
    labels are not the command table's own order) and a transition
    fulfils exactly its command's requirement.  Otherwise each
    ``enabled_at`` runs once per state and each ``fulfilled_by`` once per
    transition.
    """
    analyses = graph.analyses
    table = analyses.commands.labels
    if requirements is None:
        return RequirementMasks(table, graph.enabled_masks, analyses.executed_bits())
    requirements = tuple(requirements)
    labels = tuple(dict.fromkeys(r.name for r in requirements))
    ids = {label: k for k, label in enumerate(labels)}
    if all(r.kind == "command" for r in requirements):
        if labels == table:
            return RequirementMasks(
                labels, graph.enabled_masks, analyses.executed_bits()
            )
        # Bit of each command id in label space (0 for commands that no
        # requirement names).
        bits = [1 << ids[label] if label in ids else 0 for label in table]
        remapped = {}
        demand = []
        for mask in graph.enabled_masks:
            out = remapped.get(mask)
            if out is None:
                out = 0
                for c, bit in enumerate(bits):
                    if (mask >> c) & 1:
                        out |= bit
                remapped[mask] = out
            demand.append(out)
        return RequirementMasks(
            labels, demand, [bits[c] for c in analyses.packed.cmd]
        )
    pairs = [(r, 1 << ids[r.name]) for r in requirements]
    states = [graph.state_of(i) for i in range(len(graph))]
    demand = []
    for state in states:
        mask = 0
        for requirement, bit in pairs:
            if requirement.enabled_at(state):
                mask |= bit
        demand.append(mask)
    src, cmd, dst = graph.transition_columns
    fulfilled = []
    for eid in range(len(src)):
        source, command, target = states[src[eid]], table[cmd[eid]], states[dst[eid]]
        mask = 0
        for requirement, bit in pairs:
            if requirement.fulfilled_by(source, command, target):
                mask |= bit
        fulfilled.append(mask)
    return RequirementMasks(labels, demand, fulfilled)


class RefinementScratch:
    """Recycled allocations of the refinement, and its region step.

    Holds the generation-stamp array and the Tarjan work arrays
    (:class:`~repro.engine.analysis.TarjanScratch`; the graph's own by
    default).  Each region step bumps the generation and stamps the
    region's members, so membership is one array read and nothing is
    cleared between levels.  The *streaming* decision procedure runs a
    refinement per budget stage over the same growing graph and threads
    one scratch through all of them; the generation counter persists, so
    a stale stamp can never equal a fresh generation.
    """

    __slots__ = ("stamp", "generation", "tarjan")

    def __init__(self, tarjan: Optional[TarjanScratch] = None) -> None:
        self.stamp = array("q")
        self.generation = 0
        self.tarjan = TarjanScratch() if tarjan is None else tarjan

    def ensure(self, n: int) -> None:
        """Grow the stamp to cover ``n`` states (never shrinks)."""
        grow = n - len(self.stamp)
        if grow > 0:
            self.stamp.frombytes(bytes(8 * grow))

    def _stamp(self, members: Sequence[int]) -> int:
        self.generation += 1
        generation = self.generation
        stamp = self.stamp
        for i in members:
            stamp[i] = generation
        return generation

    def region(
        self, members: Sequence[int], packed: PackedGraph, masks: RequirementMasks
    ) -> Tuple[bool, int, int]:
        """Stamp ``members``; return ``(internal, demanded, fulfilled)``.

        ``internal`` — some transition stays inside the region (it may
        fulfil nothing); ``demanded`` — the OR of the members' demand;
        ``fulfilled`` — the OR over the internal transitions.
        """
        generation = self._stamp(members)
        stamp = self.stamp
        demand = masks.demand
        fulfilled = masks.fulfilled
        out_start = packed.out_start
        out_eid = packed.out_eid
        dst = packed.dst
        internal = False
        demanded = 0
        served = 0
        for i in members:
            demanded |= demand[i]
            for pos in range(out_start[i], out_start[i + 1]):
                eid = out_eid[pos]
                if stamp[dst[eid]] == generation:
                    internal = True
                    served |= fulfilled[eid]
        return internal, demanded, served

    def components(
        self, packed: PackedGraph, members: Sequence[int]
    ) -> List[List[int]]:
        """SCCs of the subgraph induced by the ascending ``members``.

        Reverse topological order, each component ascending — the
        contract of :func:`repro.ts.graph.decompose`.
        """
        generation = self._stamp(members)
        sub = tarjan_scc_csr(
            packed,
            members,
            stamp=self.stamp,
            stamp_value=generation,
            scratch=self.tarjan,
        )
        return [sorted(c) for c in sub]


def find_fair_region(
    graph: ReachableGraph,
    masks: RequirementMasks,
    components: Sequence[Sequence[int]],
    scratch: Optional[RefinementScratch] = None,
) -> Optional[Tuple[int, ...]]:
    """The first region that hosts a fair cycle, or ``None``.

    ``components`` are the SCCs to refine (each ascending).  A region
    with an internal transition that starves nothing is returned; one
    that starves some requirements loses every state demanding one of
    them, and its survivors are decomposed again.  Components are
    refined in order and survivor sets last-in first-out, so the region
    found (and every witness built on it) is the one the set-based
    oracles of :mod:`repro.engine.reference` find.

    ``scratch`` recycles the stamp and the Tarjan work arrays across
    passes; omitted, a fresh stamp over the graph's Tarjan scratch is
    used — the answer is identical either way.
    """
    if scratch is None:
        scratch = RefinementScratch(graph.analyses.scratch())
    scratch.ensure(len(graph))
    packed = graph.analyses.packed
    demand = masks.demand
    pending: List[List[int]] = []
    batch = components
    while True:
        for component in batch:
            internal, demanded, served = scratch.region(component, packed, masks)
            if not internal:
                continue
            starved = demanded & ~served
            if not starved:
                return tuple(component)
            # Iterating the (ascending) component keeps survivors
            # ascending, which is what the stamped Tarjan requires.
            survivors = [i for i in component if not demand[i] & starved]
            if survivors:
                pending.append(survivors)
        if not pending:
            return None
        batch = scratch.components(packed, pending.pop())
