"""Unit tests for the engine primitives: packed arrays, chunking."""

import pytest

from repro.engine import (
    CommandTable,
    PackedGraph,
    chunk_items,
    parallel_map,
    resolve_jobs,
    tarjan_scc_csr,
)


class TestCommandTable:
    def test_ids_are_dense_in_declaration_order(self):
        table = CommandTable(["a", "b"])
        assert table.id_of("a") == 0
        assert table.id_of("b") == 1
        assert table.label_of(1) == "b"
        assert len(table) == 2

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            CommandTable(["a", "a"])

    def test_singleton_and_masks(self):
        table = CommandTable(["a", "b"])
        a, b = table.id_of("a"), table.id_of("b")
        assert table.singleton(a) == frozenset({"a"})
        mask = table.mask_of(["a", "b"])
        assert table.labels_of_mask(mask) == frozenset({"a", "b"})
        assert table.labels_of_mask(0) == frozenset()
        # The mask cache must not conflate distinct masks.
        assert table.labels_of_mask(1 << b) == frozenset({"b"})


class TestPackedGraph:
    def test_csr_roundtrip_preserves_transition_order(self):
        triples = [(0, 0, 1), (0, 1, 2), (1, 0, 0), (2, 0, 2), (0, 0, 0)]
        packed = PackedGraph.build(3, triples)
        # out_eids yields each state's transitions in original insertion order.
        assert list(packed.out_eids(0)) == [0, 1, 4]
        assert list(packed.out_eids(1)) == [2]
        assert list(packed.out_eids(2)) == [3]
        assert [packed.dst[e] for e in packed.out_eids(0)] == [1, 2, 0]

    def test_empty_graph(self):
        packed = PackedGraph.build(0, [])
        assert len(packed.src) == 0

    def test_successors(self):
        packed = PackedGraph.build(2, [(0, 0, 1), (0, 0, 1), (1, 0, 0)])
        assert list(packed.successors(0)) == [1, 1]


class TestTarjanCsr:
    def test_two_sccs_in_reverse_topological_order(self):
        # 0 <-> 1 -> 2 <-> 3 : the sink SCC {2,3} must come first.
        packed = PackedGraph.build(
            4, [(0, 0, 1), (1, 0, 0), (1, 0, 2), (2, 0, 3), (3, 0, 2)]
        )
        components = tarjan_scc_csr(packed)
        assert [sorted(c) for c in components] == [[2, 3], [0, 1]]

    def test_restriction_to_members(self):
        packed = PackedGraph.build(
            4, [(0, 0, 1), (1, 0, 0), (1, 0, 2), (2, 0, 3), (3, 0, 2)]
        )
        components = tarjan_scc_csr(packed, members={0, 1})
        assert [sorted(c) for c in components] == [[0, 1]]

    def test_singletons(self):
        packed = PackedGraph.build(3, [(0, 0, 1), (1, 0, 2)])
        components = tarjan_scc_csr(packed)
        assert [list(c) for c in components] == [[2], [1], [0]]


class TestTarjanScratch:
    """The recycled work arrays (DESIGN §6f) must be invisible: any
    sequence of passes through one scratch returns exactly what fresh
    per-call arrays would, even across different graphs and after an
    aborted pass."""

    GRAPHS = [
        PackedGraph.build(
            4, [(0, 0, 1), (1, 0, 0), (1, 0, 2), (2, 0, 3), (3, 0, 2)]
        ),
        PackedGraph.build(3, [(0, 0, 1), (1, 0, 2)]),
        PackedGraph.build(
            5, [(0, 0, 1), (1, 0, 2), (2, 0, 0), (3, 0, 4), (4, 0, 3)]
        ),
    ]

    def test_reuse_across_graphs_matches_fresh(self):
        from repro.engine.analysis import TarjanScratch

        scratch = TarjanScratch()
        for packed in self.GRAPHS * 3:  # interleave sizes, revisit graphs
            assert tarjan_scc_csr(packed, scratch=scratch) == (
                tarjan_scc_csr(packed)
            )

    def test_reuse_across_restrictions_matches_fresh(self):
        from repro.engine.analysis import TarjanScratch

        packed = self.GRAPHS[0]
        scratch = TarjanScratch()
        regions = [{0, 1}, {2, 3}, {0, 1, 2, 3}, {1, 2}, {3}]
        for members in regions * 2:
            assert tarjan_scc_csr(packed, members, scratch=scratch) == (
                tarjan_scc_csr(packed, members)
            )

    def test_stamped_mode_reuses_scratch(self):
        from repro.engine.analysis import TarjanScratch

        packed = self.GRAPHS[0]
        scratch = TarjanScratch()
        stamp = [0, 0, 0, 0]
        for generation, members in enumerate([[2, 3], [0, 1, 2, 3]], start=1):
            for i in members:
                stamp[i] = generation
            got = tarjan_scc_csr(
                packed, members, stamp=stamp, stamp_value=generation,
                scratch=scratch,
            )
            assert got == tarjan_scc_csr(packed, set(members))

    def test_scratch_recovers_after_raising_walk(self):
        from repro.engine.analysis import TarjanScratch

        class Hostile:
            """A CSR facade whose dst access raises mid-walk."""

            def __init__(self, packed):
                self.n = packed.n
                self.out_start = packed.out_start
                self.out_eid = packed.out_eid
                self.dst = _RaisingSeq(packed.dst)

        class _RaisingSeq:
            def __init__(self, inner):
                self.inner = inner
                self.reads = 0

            def __getitem__(self, index):
                self.reads += 1
                if self.reads > 2:
                    raise RuntimeError("corrupt CSR")
                return self.inner[index]

        packed = self.GRAPHS[0]
        scratch = TarjanScratch()
        with pytest.raises(RuntimeError):
            tarjan_scc_csr(Hostile(packed), scratch=scratch)
        # The aborted pass retired its epoch and drained its stack — the
        # scratch serves the next caller exactly like a fresh one.
        assert not scratch.stack
        assert tarjan_scc_csr(packed, scratch=scratch) == (
            tarjan_scc_csr(packed)
        )


class TestParallelPlumbing:
    def test_resolve_jobs(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(0) == 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3

    def test_chunk_items_contiguous_ordered_balanced(self):
        items = list(range(10))
        chunks = chunk_items(items, 3)
        assert [x for chunk in chunks for x in chunk] == items
        sizes = [len(chunk) for chunk in chunks]
        assert max(sizes) - min(sizes) <= 1

    def test_chunk_items_more_chunks_than_items(self):
        chunks = chunk_items([1, 2], 5)
        assert [x for chunk in chunks for x in chunk] == [1, 2]
        assert all(chunk for chunk in chunks)

    def test_parallel_map_serial_path(self):
        assert parallel_map(_double, [1, 2, 3], n_jobs=1) == [2, 4, 6]

    def test_parallel_map_pool_preserves_order(self):
        items = list(range(20))
        assert parallel_map(_double, items, n_jobs=2) == [x * 2 for x in items]


def _double(x):
    return x * 2
