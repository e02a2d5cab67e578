"""Memoized graph analyses over the packed representation.

The seed implementation recomputed SCC decompositions by scanning *every*
graph transition per call and rebuilt ``frozenset`` command sets per query;
synthesis on a 2 500-state grid spent ~60 % of its time in exactly that
churn.  :class:`GraphAnalyses` computes the packed arrays, per-state
enabled bitmasks, and the full-graph SCC decomposition once, caches them on
the graph, and answers restricted queries by walking only the region's CSR
slices.

Determinism contract: :func:`tarjan_scc_csr` visits roots in ascending
index order and successors in original transition order — exactly what the
seed's dict-based Tarjan did — so component order (reverse topological,
sinks first) and every downstream witness are bit-identical to the old
path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence

from repro.engine.packed import CommandTable, PackedGraph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (explore → here)
    from repro.ts.explore import ReachableGraph


class TarjanScratch:
    """Recycled work arrays for :func:`tarjan_scc_csr`.

    One SCC pass needs a visitation index, a lowlink, an on-stack flag and
    a DFS work stack per state.  The refinement loop of the fair-cycle
    search runs *many* passes over shrinking regions of the same graph;
    allocating those arrays per call made every level O(n) even when its
    region held three states.  A scratch is allocated once, grows
    monotonically to the largest graph it has served, and is reset between
    passes in O(1): visitation indices are epoch-encoded (``order[i] <
    base`` means unseen this pass), so nothing is ever cleared.

    Not thread-safe; callers that share one (e.g.
    :class:`GraphAnalyses`, the streaming checker's
    :class:`~repro.fairness.refine.RefinementScratch`) are single-threaded.
    """

    __slots__ = ("n", "base", "order", "lowlink", "on_stack", "flags",
                 "stack", "work_node", "work_pos")

    def __init__(self) -> None:
        self.n = 0
        # Epoch 0 would collide with freshly zeroed ``order`` entries.
        self.base = 1
        self.order: List[int] = []
        self.lowlink: List[int] = []
        self.on_stack = bytearray()
        self.flags = bytearray()
        self.stack: List[int] = []
        self.work_node: List[int] = []
        self.work_pos: List[int] = []

    def ensure(self, n: int) -> None:
        """Grow capacity to ``n`` states (never shrinks)."""
        grow = n - self.n
        if grow <= 0:
            return
        self.order.extend([0] * grow)
        self.lowlink.extend([0] * grow)
        self.on_stack.extend(bytes(grow))
        self.flags.extend(bytes(grow))
        self.work_node.extend([0] * grow)
        self.work_pos.extend([0] * grow)
        self.n = n


def tarjan_scc_csr(
    packed: PackedGraph,
    members: Optional[Sequence[int]] = None,
    stamp: Optional[Sequence[int]] = None,
    stamp_value: int = 0,
    scratch: Optional[TarjanScratch] = None,
) -> List[List[int]]:
    """Tarjan's SCC algorithm over CSR arrays, iterative form.

    ``members`` restricts to an induced subgraph (edges leaving it are
    ignored); ``None`` means all states.  Components come out in reverse
    topological order (sinks first), nodes visited in ascending order —
    matching :func:`repro.ts.graph.tarjan_scc` on the equivalent dict input
    exactly.

    When ``stamp`` is given (a generation array with ``stamp[i] ==
    stamp_value`` marking membership), it replaces the per-call
    ``bytearray`` rebuild: ``members`` must then be pre-stamped and in
    ascending order.  The SCC-refinement loop of the fair-cycle search
    reuses one stamp array across all its recursion levels this way.

    ``scratch`` recycles the per-state work arrays across calls
    (:class:`TarjanScratch`); omitted, a private one is used.  The DFS
    work stack is two flat int arrays with an explicit depth pointer —
    no per-visit list objects — so the inner loop allocates only the
    output components and the boxed counters Python cannot avoid.
    """
    n = packed.n
    out_start = packed.out_start
    out_eid = packed.out_eid
    dst = packed.dst

    if scratch is None:
        scratch = TarjanScratch()
    scratch.ensure(n)

    flags = None
    if stamp is not None:
        if members is None:
            raise ValueError("stamped mode needs the stamped members")
        nodes = members
    elif members is None:
        nodes = range(n)
    else:
        nodes = sorted(members)
        flags = scratch.flags
        for i in nodes:
            flags[i] = 1

    base = scratch.base
    order = scratch.order
    lowlink = scratch.lowlink
    on_stack = scratch.on_stack
    stack = scratch.stack
    work_node = scratch.work_node
    work_pos = scratch.work_pos
    result: List[List[int]] = []
    counter = base

    try:
        for root in nodes:
            if order[root] >= base:
                continue
            depth = 0
            work_node[0] = root
            work_pos[0] = out_start[root]
            while depth >= 0:
                node = work_node[depth]
                pos = work_pos[depth]
                if pos == out_start[node]:
                    order[node] = counter
                    lowlink[node] = counter
                    counter += 1
                    stack.append(node)
                    on_stack[node] = 1
                end = out_start[node + 1]
                advanced = False
                while pos < end:
                    child = dst[out_eid[pos]]
                    pos += 1
                    if flags is not None:
                        if not flags[child]:
                            continue
                    elif stamp is not None and stamp[child] != stamp_value:
                        continue
                    if order[child] < base:
                        work_pos[depth] = pos
                        depth += 1
                        work_node[depth] = child
                        work_pos[depth] = out_start[child]
                        advanced = True
                        break
                    if on_stack[child] and order[child] < lowlink[node]:
                        lowlink[node] = order[child]
                if advanced:
                    continue
                work_pos[depth] = pos
                if lowlink[node] == order[node]:
                    component: List[int] = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = 0
                        component.append(w)
                        if w == node:
                            break
                    result.append(component)
                depth -= 1
                if depth >= 0:
                    parent = work_node[depth]
                    if lowlink[node] < lowlink[parent]:
                        lowlink[parent] = lowlink[node]
    finally:
        # Retire this pass's epoch window and restore the member flags, so
        # the scratch is clean for its next caller in O(|members|), not
        # O(n) — even when a pathological CSR raised mid-walk.
        scratch.base = counter + 1
        if flags is not None:
            for i in nodes:
                flags[i] = 0
        while stack:  # non-empty only if the walk raised
            on_stack[stack.pop()] = 0
    return result


class GraphAnalyses:
    """Packed arrays + cached analyses for one :class:`ReachableGraph`.

    Built lazily by :attr:`ReachableGraph.analyses` and shared by every
    downstream query; nothing here mutates after construction except the
    memo fields.
    """

    __slots__ = (
        "commands",
        "packed",
        "enabled_masks",
        "_full_components",
        "_scratch",
        "_executed_bits",
    )

    def __init__(self, graph: "ReachableGraph") -> None:
        # The graph already owns the interned command table, the packed
        # transition columns (CSR-indexed lazily) and the per-state enabled
        # bitmasks — exploration streamed straight into them.  Reuse them:
        # construction does no per-transition work, so sub-cutoff graphs
        # never pay engine setup they don't use.
        self.commands: CommandTable = graph.command_table
        self.packed: PackedGraph = graph.packed
        self.enabled_masks: Sequence[int] = graph.enabled_masks
        self._full_components: Optional[List[List[int]]] = None
        self._scratch: Optional[TarjanScratch] = None
        self._executed_bits: Optional[List[int]] = None

    # -- SCC ------------------------------------------------------------

    def scratch(self) -> TarjanScratch:
        """This graph's recycled Tarjan scratch (lazy; shared by every
        region query, so repeated restricted decompositions — synthesis
        probes hundreds per graph — allocate their work arrays once)."""
        if self._scratch is None:
            self._scratch = TarjanScratch()
        return self._scratch

    def full_components(self) -> List[List[int]]:
        """SCCs of the whole graph (computed once, then cached)."""
        if self._full_components is None:
            self._full_components = tarjan_scc_csr(
                self.packed, scratch=self.scratch()
            )
        return self._full_components

    def components(
        self, members: Optional[Sequence[int]] = None
    ) -> List[List[int]]:
        """SCCs of the graph or of the subgraph induced by ``members``."""
        if members is None:
            return self.full_components()
        return tarjan_scc_csr(self.packed, members, scratch=self.scratch())

    # -- region command sets --------------------------------------------

    def internal_eids(self, members: Iterable[int]) -> List[int]:
        """Transition ids with both endpoints in ``members``, by source
        in ascending order (within a source: original transition order)."""
        inside = members if isinstance(members, (set, frozenset)) else set(members)
        packed = self.packed
        out_start = packed.out_start
        out_eid = packed.out_eid
        dst = packed.dst
        result: List[int] = []
        for i in sorted(inside):
            for pos in range(out_start[i], out_start[i + 1]):
                eid = out_eid[pos]
                if dst[eid] in inside:
                    result.append(eid)
        return result

    def enabled_mask_within(self, members: Iterable[int]) -> int:
        """Bitmask of commands enabled at some state of ``members``."""
        masks = self.enabled_masks
        mask = 0
        for i in members:
            mask |= masks[i]
        return mask

    def executed_mask_within(self, members: Iterable[int]) -> int:
        """Bitmask of commands executed on transitions inside ``members``."""
        inside = members if isinstance(members, (set, frozenset)) else set(members)
        packed = self.packed
        out_start = packed.out_start
        out_eid = packed.out_eid
        dst = packed.dst
        cmd = packed.cmd
        mask = 0
        for i in inside:
            for pos in range(out_start[i], out_start[i + 1]):
                eid = out_eid[pos]
                if dst[eid] in inside:
                    mask |= 1 << cmd[eid]
        return mask

    def executed_bits(self) -> List[int]:
        """Per transition id, the bit of its command (``1 << cmd[eid]``).

        Built once per graph: the fulfilled column of command fairness
        (:func:`repro.fairness.refine.requirement_masks`), read by every
        decide and synthesis over this graph.
        """
        if self._executed_bits is None:
            bits = [1 << c for c in range(len(self.commands))]
            self._executed_bits = [bits[c] for c in self.packed.cmd]
        return self._executed_bits

    def labels_of_mask(self, mask: int) -> frozenset:
        """Frozenset of command labels for a bitmask (cached)."""
        return self.commands.labels_of_mask(mask)
