"""The content-addressed graph store: bit-identity, chunks, incremental.

Everything here is differential: warm loads and incremental
re-explorations are compared against fresh explorations via :func:`~repro.engine.shard.graph_digest` (and full
object-level fingerprints), so a wrong graph — not just a crash — fails.
"""

import json
import os
from array import array
from pathlib import Path

import pytest

from repro.engine import (
    evict_cache,
    exploration_cache_key,
    explore_with_cache,
    graph_digest,
    load_cached_graph,
    store_graph,
)
from repro.engine import graphstore
from repro.engine.graphstore import (
    ValueColumnStates,
    explore_incremental,
    family_key,
    find_incremental_base,
    last_outcome,
)
from repro.gcl import Program, parse_program
from repro.ts import explore
from repro.workloads import (
    counter_grid,
    grid_hypercube_rebound,
    modulus_chain,
    p2,
)


def _fingerprint(graph):
    return (
        list(graph.states),
        list(graph.transitions),
        [graph.enabled_at(i) for i in range(len(graph))],
        list(graph.initial_indices),
        sorted(graph.frontier),
    )


@pytest.fixture
def tiny_chunks(monkeypatch):
    """Shrink chunks so toy graphs exercise multi-chunk columns."""
    monkeypatch.setenv("REPRO_GRAPHSTORE_CHUNK_WORDS", "8")


class TestRoundTrip:
    @pytest.mark.parametrize(
        "factory", [lambda: p2(5), lambda: counter_grid(3, 3),
                    lambda: modulus_chain(2)],
        ids=["p2", "grid", "chain"],
    )
    def test_reload_is_bit_identical(self, factory, tmp_path):
        program = factory()
        graph, hit = explore_with_cache(program, cache_dir=tmp_path)
        assert not hit
        reloaded, hit = explore_with_cache(factory(), cache_dir=tmp_path)
        assert hit
        assert _fingerprint(reloaded) == _fingerprint(graph)
        assert graph_digest(reloaded) == graph_digest(graph)
        # The reloaded graph is attached to the *new* program instance.
        assert reloaded.system is not graph.system

    def test_reload_is_bit_identical_multichunk(self, tiny_chunks, tmp_path):
        graph, hit = explore_with_cache(counter_grid(4, 4), cache_dir=tmp_path)
        assert not hit
        assert len(list(tmp_path.glob("chunk-*.bin"))) > 5
        reloaded, hit = explore_with_cache(
            counter_grid(4, 4), cache_dir=tmp_path
        )
        assert hit
        assert _fingerprint(reloaded) == _fingerprint(graph)

    def test_bounded_exploration_round_trips_frontier(self, tmp_path):
        graph, hit = explore_with_cache(
            p2(50), max_states=10, cache_dir=tmp_path
        )
        assert not hit
        assert graph.frontier  # the bound actually truncated something
        reloaded, hit = explore_with_cache(
            p2(50), max_states=10, cache_dir=tmp_path
        )
        assert hit
        assert _fingerprint(reloaded) == _fingerprint(graph)

    def test_none_cache_dir_is_plain_exploration(self):
        graph, hit = explore_with_cache(p2(5), cache_dir=None)
        assert not hit
        assert last_outcome().kind == "bypass"
        assert _fingerprint(graph) == _fingerprint(explore(p2(5)))

    def test_warm_load_is_lazy(self, tmp_path):
        program = p2(5)
        key = exploration_cache_key(program)
        store_graph(explore(program), tmp_path, key)
        reloaded = load_cached_graph(p2(5), tmp_path, key)
        # States and the index dict are not materialized by the load...
        assert isinstance(reloaded.states, ValueColumnStates)
        assert reloaded._index is None
        # ...but object-level access works and agrees with exploration.
        fresh = explore(p2(5))
        assert reloaded.index_of(fresh.state_of(3)) == 3
        assert reloaded.contains(fresh.state_of(0))
        assert reloaded._index is not None

    def test_single_chunk_columns_are_zero_copy(self, tmp_path):
        program = counter_grid(3, 3)
        key = exploration_cache_key(program)
        store_graph(explore(program), tmp_path, key)
        reloaded = load_cached_graph(counter_grid(3, 3), tmp_path, key)
        src, cmd, dst = reloaded.transition_columns
        assert isinstance(src, memoryview)  # a cast over the mapping
        assert isinstance(reloaded.enabled_masks, memoryview)
        # The engine paths consume the views like arrays.
        assert len(reloaded.analyses.full_components()) > 0
        assert len(reloaded.outgoing(0)) > 0

    def test_value_column_states_sequence_protocol(self):
        column = array("q", [0, 1, 2, 3, 4, 5])
        states = ValueColumnStates(("x", "y"), column, 3)
        assert len(states) == 3
        assert states[1].values == (2, 3)
        assert states[-1].values == (4, 5)
        assert [s.values for s in states] == [(0, 1), (2, 3), (4, 5)]
        assert tuple(s.values for s in states[1:]) == ((2, 3), (4, 5))
        with pytest.raises(IndexError):
            states[3]


class TestCacheKey:
    def test_insensitive_to_formatting(self):
        dense = parse_program(
            "program T var x := 0 do a: x < 3 -> x := x + 1 od"
        )
        spaced = parse_program(
            """
            program T
            var x := 0
            do
                a: x < 3 -> x := x + 1
            od
            """
        )
        assert exploration_cache_key(dense) == exploration_cache_key(spaced)

    def test_sensitive_to_program_semantics(self):
        base = parse_program(
            "program T var x := 0 do a: x < 3 -> x := x + 1 od"
        )
        changed = parse_program(
            "program T var x := 0 do a: x < 4 -> x := x + 1 od"
        )
        assert exploration_cache_key(base) != exploration_cache_key(changed)

    def test_sensitive_to_bounds(self):
        program = p2(5)
        keys = {
            exploration_cache_key(program),
            exploration_cache_key(program, max_states=10),
            exploration_cache_key(program, max_depth=10),
            exploration_cache_key(program, max_states=10, max_depth=10),
        }
        assert len(keys) == 4

    def test_different_bounds_do_not_share_entries(self, tmp_path):
        explore_with_cache(p2(50), max_states=10, cache_dir=tmp_path)
        graph, hit = explore_with_cache(p2(50), cache_dir=tmp_path)
        assert not hit
        assert not graph.frontier

    def test_serial_spellings_share_one_key(self, tmp_path):
        explore_with_cache(p2(5), cache_dir=tmp_path, n_jobs=0)
        for jobs in (None, 1):
            _, hit = explore_with_cache(p2(5), cache_dir=tmp_path, n_jobs=jobs)
            assert hit
        assert len(list(tmp_path.glob("manifest-*.json"))) == 1

    def test_every_job_count_hits_one_entry(self, tmp_path):
        # Every job count explores the bit-identical graph, so an entry
        # published without jobs serves a parallel request and back.
        graph, hit = explore_with_cache(p2(5), cache_dir=tmp_path)
        assert not hit
        reloaded, hit = explore_with_cache(p2(5), cache_dir=tmp_path, n_jobs=2)
        assert hit
        assert last_outcome().kind == "hit"
        assert graph_digest(reloaded) == graph_digest(graph)
        explore_with_cache(p2(6), cache_dir=tmp_path, n_jobs=2)
        _, hit = explore_with_cache(p2(6), cache_dir=tmp_path)
        assert hit

    def test_sharded_entry_round_trips(self, tmp_path):
        graph, hit = explore_with_cache(p2(5), cache_dir=tmp_path, n_jobs=4)
        assert not hit
        reloaded, hit = explore_with_cache(p2(5), cache_dir=tmp_path, n_jobs=4)
        assert hit
        assert _fingerprint(reloaded) == _fingerprint(graph)

    def test_family_key_ignores_command_edits(self):
        kicked = family_key(grid_hypercube_rebound(2, 2, kick=1))
        rekicked = family_key(grid_hypercube_rebound(2, 2, kick=2))
        assert kicked == rekicked
        assert kicked != family_key(
            grid_hypercube_rebound(2, 2, kick=1), max_states=10
        )


class TestCorruption:
    """Satellite: every corruption degrades to a clean miss, never a
    wrong graph — re-exploration after the miss matches serial digests."""

    def _stored(self, tmp_path):
        program = p2(5)
        key = exploration_cache_key(program)
        report = store_graph(explore(program), tmp_path, key)
        return key, report

    def _assert_clean_miss(self, tmp_path, key):
        assert load_cached_graph(p2(5), tmp_path, key) is None
        reloaded, hit = explore_with_cache(p2(5), cache_dir=tmp_path)
        assert not hit
        assert graph_digest(reloaded) == graph_digest(explore(p2(5)))
        again, hit = explore_with_cache(p2(5), cache_dir=tmp_path)
        assert hit
        assert graph_digest(again) == graph_digest(reloaded)

    def test_truncated_chunk_is_a_miss(self, tmp_path):
        key, report = self._stored(tmp_path)
        chunk = next(tmp_path.glob("chunk-*.bin"))
        chunk.write_bytes(chunk.read_bytes()[:-8])
        self._assert_clean_miss(tmp_path, key)

    def test_digest_mismatch_is_a_miss(self, tmp_path):
        key, report = self._stored(tmp_path)
        chunk = max(
            tmp_path.glob("chunk-*.bin"), key=lambda p: p.stat().st_size
        )
        raw = bytearray(chunk.read_bytes())
        raw[0] ^= 0xFF  # same length, different content
        chunk.write_bytes(bytes(raw))
        self._assert_clean_miss(tmp_path, key)

    def test_torn_manifest_is_a_miss(self, tmp_path):
        key, report = self._stored(tmp_path)
        text = report.manifest.read_text()
        report.manifest.write_text(text[: len(text) // 2])
        self._assert_clean_miss(tmp_path, key)

    def test_version_mismatch_is_a_miss(self, tmp_path):
        key, report = self._stored(tmp_path)
        payload = json.loads(report.manifest.read_text())
        payload["format"] = -1
        report.manifest.write_text(json.dumps(payload))
        assert load_cached_graph(p2(5), tmp_path, key) is None

    def test_entry_for_other_program_is_a_miss(self, tmp_path):
        key = exploration_cache_key(p2(5))
        store_graph(explore(p2(5)), tmp_path, key)
        # Same key on disk, but the program shape disagrees: reject.
        assert load_cached_graph(counter_grid(2, 2), tmp_path, key) is None

    def test_missing_entry_is_a_miss(self, tmp_path):
        assert load_cached_graph(p2(5), tmp_path, "0" * 64) is None

    def test_vanished_chunk_is_a_miss(self, tmp_path):
        key, _ = self._stored(tmp_path)
        next(tmp_path.glob("chunk-*.bin")).unlink()
        self._assert_clean_miss(tmp_path, key)

    def test_chunk_deleted_between_manifest_read_and_mmap(
        self, tmp_path, monkeypatch
    ):
        # The eviction race of the LRU satellite: the manifest parses
        # fine, then a concurrent eviction removes a chunk before the
        # load maps it.  Must be a clean miss, not an exception.
        key, _ = self._stored(tmp_path)
        chunk = next(tmp_path.glob("chunk-*.bin"))
        real = graphstore._read_manifest

        def racing_read(path):
            manifest = real(path)
            if chunk.exists():
                chunk.unlink()  # eviction wins the race
            return manifest

        monkeypatch.setattr(graphstore, "_read_manifest", racing_read)
        assert load_cached_graph(p2(5), tmp_path, key) is None
        monkeypatch.undo()
        self._assert_clean_miss(tmp_path, key)

    def test_only_programs_are_cacheable(self, tmp_path):
        from repro.workloads import nested_rings

        graph = explore(nested_rings(2))
        with pytest.raises(TypeError):
            store_graph(graph, tmp_path, "0" * 64)

    def test_verify_can_be_disabled(self, tmp_path, monkeypatch):
        key, _ = self._stored(tmp_path)
        monkeypatch.setenv("REPRO_GRAPHSTORE_VERIFY", "0")
        reloaded = load_cached_graph(p2(5), tmp_path, key)
        assert graph_digest(reloaded) == graph_digest(explore(p2(5)))

    def test_no_temp_files_left_behind(self, tmp_path):
        explore_with_cache(p2(5), cache_dir=tmp_path)
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []


class TestChunkDedup:
    def test_identical_graph_under_second_key_writes_nothing(self, tmp_path):
        graph = explore(p2(5))
        first = store_graph(graph, tmp_path, "0" * 64)
        assert first.chunks_reused == 0
        assert first.bytes_written > 0
        second = store_graph(graph, tmp_path, "1" * 64)
        assert second.chunks_total == first.chunks_total
        assert second.chunks_reused == second.chunks_total
        assert second.bytes_written == 0

    def test_single_command_edit_shares_most_chunks(
        self, tiny_chunks, tmp_path
    ):
        base = grid_hypercube_rebound(2, 4, kick=1)
        explore_with_cache(base, cache_dir=tmp_path)
        edited = grid_hypercube_rebound(2, 4, kick=2)
        graph, hit = explore_with_cache(edited, cache_dir=tmp_path)
        assert not hit
        outcome = last_outcome()
        assert outcome.kind == "incremental"
        # The kick edit moves one transition target; everything else —
        # state rows, masks, src/cmd columns — re-publishes from the
        # chunks the base exploration wrote.
        assert outcome.chunks_reused >= outcome.chunks_total // 2
        assert graph_digest(graph) == graph_digest(explore(edited))


class TestIncremental:
    def test_replay_is_bit_identical(self, tmp_path):
        explore_with_cache(
            grid_hypercube_rebound(2, 3, kick=1), cache_dir=tmp_path
        )
        edited = grid_hypercube_rebound(2, 3, kick=2)
        graph, hit = explore_with_cache(edited, cache_dir=tmp_path)
        assert not hit
        outcome = last_outcome()
        assert outcome.kind == "incremental"
        assert outcome.reused_states > 0
        fresh = explore(grid_hypercube_rebound(2, 3, kick=2))
        assert graph_digest(graph) == graph_digest(fresh)
        assert _fingerprint(graph) == _fingerprint(fresh)

    def test_replay_with_bounded_base_is_bit_identical(self, tmp_path):
        # Base-frontier states were never fully expanded there: their
        # posts must not be replayed (their masks may be).
        explore_with_cache(p2(50), max_states=20, cache_dir=tmp_path)
        edited = parse_program(_edited_p2_50_source())
        graph, hit = explore_with_cache(
            edited, max_states=20, cache_dir=tmp_path
        )
        assert not hit
        assert last_outcome().kind == "incremental"
        fresh = explore(
            parse_program(_edited_p2_50_source()), max_states=20
        )
        assert _fingerprint(graph) == _fingerprint(fresh)

    def test_disjoint_commands_find_no_base(self, tmp_path):
        explore_with_cache(
            grid_hypercube_rebound(2, 3, kick=1), cache_dir=tmp_path
        )
        # Same name/variables but every command renamed: nothing to
        # replay, so the run is an ordinary cold exploration.
        source = """
        program HypercubeRebound
        var x0 := 3, x1 := 3
        do
             other0: x0 > 0 -> x0 := x0 - 1
          [] other1: x1 > 0 -> x1 := x1 - 1
        od
        """
        graph, hit = explore_with_cache(
            parse_program(source), cache_dir=tmp_path
        )
        assert not hit
        assert last_outcome().kind == "cold"
        assert graph_digest(graph) == graph_digest(
            explore(parse_program(source))
        )

    def test_base_respects_bounds_family(self, tmp_path):
        explore_with_cache(
            grid_hypercube_rebound(2, 3, kick=1), cache_dir=tmp_path
        )
        # A bounded run must not replay the unbounded base.
        assert (
            find_incremental_base(
                grid_hypercube_rebound(2, 3, kick=2),
                tmp_path,
                max_states=5,
            )
            is None
        )

    def test_interpreted_program_cannot_replay(self, tmp_path):
        explore_with_cache(
            grid_hypercube_rebound(2, 3, kick=1), cache_dir=tmp_path
        )
        base = find_incremental_base(
            grid_hypercube_rebound(2, 3, kick=2), tmp_path
        )
        assert base is not None
        from repro.gcl.parser import parse_program_ast
        from repro.gcl.program import Program

        interpreted = Program(
            parse_program_ast(_rebound_source(2, 3, 2)), compiled=False
        )
        assert explore_incremental(interpreted, base) is None

    def test_freshest_base_wins(self, tmp_path):
        explore_with_cache(
            grid_hypercube_rebound(2, 3, kick=1), cache_dir=tmp_path
        )
        first = next(tmp_path.glob("manifest-*.json"))
        os.utime(first, (1000, 1000))
        explore_with_cache(
            grid_hypercube_rebound(2, 3, kick=2), cache_dir=tmp_path
        )
        base = find_incremental_base(
            grid_hypercube_rebound(2, 3, kick=3), tmp_path
        )
        assert base is not None
        # The kick=2 graph (fresher mtime) is the replay base: its
        # rebound digest matches kick's... no — all three kicks differ;
        # freshness is what picks.  The base's own digests expose which.
        digests2 = grid_hypercube_rebound(2, 3, kick=2).command_digests()
        assert base.command_digests["rebound"] == digests2["rebound"]


def _rebound_source(dims, side, kick):
    from repro.gcl.pretty import render_program

    return render_program(grid_hypercube_rebound(dims, side, kick).ast)


def _edited_p2_50_source():
    from repro.gcl.pretty import render_program

    # One-command edit of p2(50): same labels/variables, la's body changed.
    source = render_program(p2(50).ast)
    assert "x := x + 1" in source
    return source.replace("x := x + 1", "x := x + 2", 1)


class TestWideProgramsBypass:
    def _wide_program(self):
        commands = "\n  [] ".join(
            f"c{i}: x == {i} -> x := x + 1" for i in range(65)
        )
        return parse_program(
            f"program Wide var x := 0 do {commands} od"
        )

    def test_over_64_commands_bypass_the_cache(self, tmp_path):
        program = self._wide_program()
        graph, hit = explore_with_cache(program, cache_dir=tmp_path)
        assert not hit
        assert last_outcome().kind == "bypass"
        assert list(tmp_path.iterdir()) == []

    def test_store_graph_rejects_over_64_commands(self, tmp_path):
        graph = explore(self._wide_program())
        with pytest.raises(ValueError):
            store_graph(graph, tmp_path, "0" * 64)


class TestEviction:
    def _store(self, tmp_path, program, mtime):
        key = exploration_cache_key(program)
        report = store_graph(explore(program), tmp_path, key)
        paths = [report.manifest] + [
            tmp_path / f"chunk-{digest}.bin"
            for digests in report.column_digests.values()
            for digest in digests
        ]
        for path in paths:
            os.utime(path, (mtime, mtime))
        return report

    def _entry_mb(self, report):
        size = report.manifest.stat().st_size
        for digests in report.column_digests.values():
            for digest in digests:
                size += (
                    report.manifest.parent / f"chunk-{digest}.bin"
                ).stat().st_size
        return size / (1024 * 1024)

    def test_none_budget_is_unbounded(self, tmp_path):
        self._store(tmp_path, p2(5), 1000)
        assert evict_cache(tmp_path, None) == []
        assert list(tmp_path.glob("manifest-*.json"))

    def test_oldest_entries_evicted_first_with_chunks(self, tmp_path):
        oldest = self._store(tmp_path, p2(5), 1000)
        newest = self._store(tmp_path, p2(7), 3000)
        removed = evict_cache(tmp_path, self._entry_mb(newest))
        assert oldest.manifest in removed
        assert not oldest.manifest.exists()
        assert newest.manifest.exists()
        # The survivor's chunks all survive; the victim's are gone.
        for digests in newest.column_digests.values():
            for digest in digests:
                assert (tmp_path / f"chunk-{digest}.bin").exists()
        survivors = {
            d for ds in newest.column_digests.values() for d in ds
        }
        for path in tmp_path.glob("chunk-*.bin"):
            assert path.name[len("chunk-"):-len(".bin")] in survivors

    def test_shared_chunks_survive_partial_eviction(self, tmp_path):
        # Same graph under two keys: all chunks shared.  Evicting one
        # manifest must keep every chunk the survivor references.
        graph = explore(p2(5))
        a = store_graph(graph, tmp_path, "0" * 64)
        b = store_graph(graph, tmp_path, "1" * 64)
        os.utime(a.manifest, (1000, 1000))
        os.utime(b.manifest, (3000, 3000))
        removed = evict_cache(tmp_path, self._entry_mb(b))
        assert a.manifest in removed
        assert b.manifest.exists()
        for digests in b.column_digests.values():
            for digest in digests:
                assert (tmp_path / f"chunk-{digest}.bin").exists()

    def test_load_touches_chunk_recency(self, tmp_path):
        a = self._store(tmp_path, p2(5), 1000)
        b = self._store(tmp_path, p2(6), 2000)
        key = exploration_cache_key(p2(5))
        assert load_cached_graph(p2(5), tmp_path, key) is not None
        # The load refreshed the manifest *and every chunk* of entry a...
        assert a.manifest.stat().st_mtime > b.manifest.stat().st_mtime
        for digests in a.column_digests.values():
            for digest in digests:
                chunk = tmp_path / f"chunk-{digest}.bin"
                assert chunk.stat().st_mtime > b.manifest.stat().st_mtime
        # ...so entry b is now the LRU victim.
        removed = evict_cache(tmp_path, self._entry_mb(a))
        assert b.manifest in removed
        assert a.manifest.exists()

    def test_budget_is_a_hard_cap(self, tmp_path):
        only = self._store(tmp_path, p2(5), 1000)
        removed = evict_cache(tmp_path, 1e-9)
        assert only.manifest in removed
        assert list(tmp_path.glob("manifest-*.json")) == []
        assert list(tmp_path.glob("chunk-*.bin")) == []

    def test_legacy_v1_files_are_ignored(self, tmp_path):
        # A whole-graph graph-*.json file of the v1 cache is an unknown
        # file: never read, never evicted, never counted.
        legacy = tmp_path / ("graph-" + "e" * 64 + ".json")
        legacy.write_text('{"format": 1}')
        os.utime(legacy, (500, 500))
        keeper = self._store(tmp_path, p2(6), 2000)
        assert evict_cache(tmp_path, self._entry_mb(keeper)) == []
        assert legacy.exists()
        graph, hit = explore_with_cache(p2(5), cache_dir=tmp_path)
        assert not hit
        assert graph_digest(graph) == graph_digest(explore(p2(5)))
        assert legacy.exists()

    def test_corrupt_manifests_are_ordinary_victims(self, tmp_path):
        junk = tmp_path / ("manifest-" + "f" * 64 + ".json")
        junk.write_text("{ not json")
        os.utime(junk, (500, 500))
        keeper = self._store(tmp_path, p2(5), 2000)
        removed = evict_cache(tmp_path, self._entry_mb(keeper))
        assert junk in removed
        assert keeper.manifest.exists()

    def test_unknown_files_are_never_touched(self, tmp_path):
        debris = tmp_path / "README.txt"
        debris.write_text("not ours")
        os.utime(debris, (1, 1))
        self._store(tmp_path, p2(5), 2000)
        evict_cache(tmp_path, 1e-9)
        assert debris.exists()

    def test_orphan_chunks_are_collected_after_grace(self, tmp_path):
        keeper = self._store(tmp_path, p2(5), 2000)
        orphan = tmp_path / ("chunk-" + "a" * 64 + ".bin")
        orphan.write_bytes(b"\0" * 64)
        os.utime(orphan, (500, 500))  # ancient: past any grace period
        evict_cache(tmp_path, self._entry_mb(keeper))
        assert not orphan.exists()
        assert keeper.manifest.exists()

    def test_fresh_orphans_survive_the_grace_period(self, tmp_path):
        # A payload-before-manifest publish in flight looks like an
        # orphan; eviction must not tear it down.
        keeper = self._store(tmp_path, p2(5), 2000)
        orphan = tmp_path / ("chunk-" + "a" * 64 + ".bin")
        orphan.write_bytes(b"\0" * 64)  # fresh mtime = now
        evict_cache(tmp_path, self._entry_mb(keeper))
        assert orphan.exists()

    def test_vanished_entry_is_tolerated(self, tmp_path, monkeypatch):
        victim = self._store(tmp_path, p2(5), 1000)
        keeper = self._store(tmp_path, p2(6), 2000)
        real_unlink = Path.unlink

        def racing_unlink(self, *args, **kwargs):
            if self == victim.manifest:
                real_unlink(self)  # somebody else deleted it first
                raise FileNotFoundError(str(self))
            return real_unlink(self, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", racing_unlink)
        removed = evict_cache(tmp_path, 1e-9)
        assert victim.manifest in removed and keeper.manifest in removed
        assert not victim.manifest.exists()
        assert not keeper.manifest.exists()

    def test_missing_directory_is_a_noop(self, tmp_path):
        assert evict_cache(tmp_path / "never-created", 1.0) == []

    def test_explore_with_cache_trims_after_store(self, tmp_path):
        self._store(tmp_path, p2(5), 1000)
        graph, hit = explore_with_cache(
            p2(50), cache_dir=tmp_path, cache_max_mb=1e-9
        )
        assert not hit
        # The budget is tiny: no manifest survives, including the new one
        # (fresh chunks may linger inside the orphan grace period).
        assert list(tmp_path.glob("manifest-*.json")) == []
        assert list(tmp_path.glob("graph-*.json")) == []


class TestSuccessorCacheStats:
    def test_exploration_populates_then_hits(self):
        # Interpreted programs have no value plane: exploration expands
        # them through ``Program.expand`` and its successor cache.
        program = Program(counter_grid(3, 3).ast, compiled=False)
        explore(program)
        hits, misses = program.successor_cache_stats()
        assert misses > 0
        explore(program)
        hits_after, misses_after = program.successor_cache_stats()
        assert misses_after == misses  # second pass re-executes nothing
        assert hits_after > hits
        program.clear_successor_cache()
        assert program.successor_cache_stats() == (0, 0)

    def test_post_replay_fills_the_cache_value_plane_exploration_skips(self):
        program = counter_grid(3, 3)
        graph = explore(program)
        assert program.successor_cache_stats() == (0, 0)
        for state in graph.states:
            program.post(state)
        hits, misses = program.successor_cache_stats()
        assert (hits, misses) == (0, len(graph))
        for state in graph.states:
            program.post(state)
        assert program.successor_cache_stats() == (len(graph), len(graph))


class TestCommandDigests:
    def test_digest_ignores_formatting(self):
        dense = parse_program(
            "program T var x := 0 do a: x < 3 -> x := x + 1 od"
        )
        spaced = parse_program(
            "program T var x := 0 do a: x<3 ->   x := x+1 od"
        )
        assert dense.command_digests() == spaced.command_digests()

    def test_digest_tracks_guard_and_body(self):
        base = parse_program(
            "program T var x := 0 do a: x < 3 -> x := x + 1 od"
        )
        guard = parse_program(
            "program T var x := 0 do a: x < 4 -> x := x + 1 od"
        )
        body = parse_program(
            "program T var x := 0 do a: x < 3 -> x := x + 2 od"
        )
        assert base.command_digests() != guard.command_digests()
        assert base.command_digests() != body.command_digests()

    def test_per_command_isolation(self):
        one = grid_hypercube_rebound(2, 3, kick=1).command_digests()
        two = grid_hypercube_rebound(2, 3, kick=2).command_digests()
        assert one["dec0"] == two["dec0"]
        assert one["dec1"] == two["dec1"]
        assert one["rebound"] != two["rebound"]


class TestTelemetrySchema:
    def test_graphstore_counters_validate_in_snapshot(self, tmp_path):
        from repro import telemetry
        from repro.telemetry.schema import validate_snapshot

        telemetry.reset()
        telemetry.enable()
        try:
            explore_with_cache(
                grid_hypercube_rebound(2, 3, kick=1), cache_dir=tmp_path
            )
            explore_with_cache(
                grid_hypercube_rebound(2, 3, kick=1), cache_dir=tmp_path
            )
            explore_with_cache(
                grid_hypercube_rebound(2, 3, kick=2), cache_dir=tmp_path
            )
            snapshot = telemetry.snapshot()
        finally:
            telemetry.disable()
            telemetry.reset()
        validate_snapshot(snapshot)  # raises on any schema violation
        counters = snapshot["metrics"]["counters"]
        for name in (
            "graphstore.hit",
            "graphstore.miss",
            "graphstore.store",
            "graphstore.chunk.hit",
            "graphstore.chunk.miss",
            "graphstore.bytes.mapped",
            "graphstore.bytes.written",
            "graphstore.incremental.runs",
            "graphstore.incremental.reused_states",
        ):
            assert counters.get(name, 0) > 0, name
