"""The shared-memory data plane (DESIGN §6f).

Two contracts under test.  **Correctness**: columns published through
:class:`~repro.engine.shm.ShmArena` read back exactly, survive capacity
growth (a new generation segment), and refuse mismatched tags or
under-published lengths loudly.  **Lifecycle** (the leak contract):
``/dev/shm`` holds no ``repro-shm*`` segment after a worker process dies
mid-attach — only the owning process ever unlinks — nor after any
exploration, which publishes nothing.

The value-plane tests pin that a job count on exploration changes
neither the expand step nor the graph.
"""

import os
import pathlib

import pytest

from repro.engine import shm
from repro.engine.shard import graph_digest
from repro.telemetry import core as telemetry
from repro.ts import StopExploration, ExplorationObserver, explore
from repro.workloads import counter_grid, dining_philosophers, grid_hypercube

pytestmark = pytest.mark.skipif(
    shm.shared_memory is None, reason="multiprocessing.shared_memory missing"
)


@pytest.fixture
def force_parallel(monkeypatch):
    monkeypatch.setenv("REPRO_FORCE_PARALLEL", "1")


def shm_dir_segments():
    """``repro-shm*`` names currently present in ``/dev/shm``."""
    try:
        return sorted(
            p.name
            for p in pathlib.Path("/dev/shm").glob(f"{shm.SEGMENT_PREFIX}*")
        )
    except OSError:  # pragma: no cover - no tmpfs
        return []


@pytest.fixture(autouse=True)
def no_leaked_segments():
    """Every test in this module must leave /dev/shm as it found it."""
    before = shm_dir_segments()
    yield
    shm.detach_all()
    assert shm_dir_segments() == before
    assert shm.live_segment_names() == []


class TestShmColumn:
    def test_roundtrip(self):
        with shm.ShmArena(b"roundtrip") as arena:
            column = arena.column("src")
            column.sync([3, 1, 4, 1, 5])
            view = shm.attach_column(column.name, arena.tag, 5)
            base = shm.HEADER_WORDS
            assert list(view[base:base + 5]) == [3, 1, 4, 1, 5]
            assert view[0] == 5  # published length
        shm.detach_all()

    def test_sync_is_append_only(self):
        with shm.ShmArena(b"append") as arena:
            column = arena.column("dst")
            assert column.sync([1, 2]) == 2 * 8
            # Republishing a prefix is free; only the suffix moves.
            assert column.sync([1, 2]) == 0
            assert column.sync([1, 2, 3, 4]) == 2 * 8
            view = shm.attach_column(column.name, arena.tag, 4)
            base = shm.HEADER_WORDS
            assert list(view[base:base + 4]) == [1, 2, 3, 4]
        shm.detach_all()

    def test_sync_length_caps_publication(self):
        with shm.ShmArena(b"cap") as arena:
            column = arena.column("emask")
            column.sync([7, 8, 9, 10], length=2)
            assert column.length == 2
            view = shm.attach_column(column.name, arena.tag, 2)
            assert view[0] == 2
            # The unpublished tail is not promised to the reader.
            with pytest.raises(shm.ShmUnavailable):
                shm.attach_column(column.name, arena.tag, 4)
        shm.detach_all()

    def test_growth_allocates_new_generation(self):
        with shm.ShmArena(b"growth") as arena:
            column = arena.column("values", capacity=4)
            first_name = column.name
            column.sync(list(range(4)))
            column.sync(list(range(4)) + [99] * (shm.MIN_CAPACITY + 4))
            assert column.name != first_name
            assert column.name.rsplit(".g", 1)[0] == (
                first_name.rsplit(".g", 1)[0]
            )
            # The pre-growth prefix survived the copy.
            view = shm.attach_column(column.name, arena.tag, column.length)
            base = shm.HEADER_WORDS
            assert list(view[base:base + 4]) == [0, 1, 2, 3]
            assert view[base + 4] == 99
            # The old generation's name is gone from the filesystem.
            assert first_name not in shm_dir_segments()
        shm.detach_all()

    def test_attach_remaps_grown_column(self):
        telemetry.reset()
        telemetry.enable()
        try:
            with shm.ShmArena(b"remap") as arena:
                column = arena.column("values", capacity=4)
                column.sync([1, 2, 3])
                shm.attach_column(column.name, arena.tag, 3)
                column.sync([1, 2, 3] + [0] * (shm.MIN_CAPACITY + 2))
                view = shm.attach_column(column.name, arena.tag, 3)
                assert list(view[shm.HEADER_WORDS:shm.HEADER_WORDS + 3]) == [1, 2, 3]
            counters = telemetry.registry().snapshot()["counters"]
            assert counters.get("shm.remaps") == 1
            assert counters.get("shm.attaches", 0) >= 2
        finally:
            telemetry.disable()
            shm.detach_all()

    def test_tag_mismatch_rejected(self):
        with shm.ShmArena(b"tagged") as arena:
            column = arena.column("src")
            column.sync([1])
            with pytest.raises(shm.ShmUnavailable):
                shm.attach_column(column.name, arena.tag ^ 1, 1)
        shm.detach_all()

    def test_attach_unknown_segment_rejected(self):
        with pytest.raises(shm.ShmUnavailable):
            shm.attach_column(f"{shm.SEGMENT_PREFIX}-nonexistent.src.g0", 0, 1)


class TestShmArena:
    def test_close_is_idempotent_and_unlinks(self):
        arena = shm.ShmArena(b"close")
        name = arena.column("src").name
        arena.sync("src", [1, 2, 3])
        assert name in shm_dir_segments()
        arena.close()
        assert name not in shm_dir_segments()
        arena.close()  # second close is a no-op
        with pytest.raises(shm.ShmUnavailable):
            arena.column("dst")

    def test_manifest_lists_published_columns(self):
        with shm.ShmArena(b"manifest") as arena:
            arena.sync("src", [1, 2])
            arena.sync("dst", [3])
            manifest = arena.manifest()
            assert set(manifest) == {"src", "dst"}
            assert manifest["src"][1] == 2
            assert manifest["dst"][1] == 1
            for key, (name, _length) in manifest.items():
                assert name.startswith(shm.SEGMENT_PREFIX)
                assert f".{key}.g" in name

    def test_exception_inside_with_still_unlinks(self):
        with pytest.raises(RuntimeError):
            with shm.ShmArena(b"exc") as arena:
                arena.sync("src", [1, 2, 3])
                raise RuntimeError("mid-round failure")
        assert arena.closed

    def test_distinct_arenas_have_distinct_tags(self):
        with shm.ShmArena(b"same-seed") as a, shm.ShmArena(b"same-seed") as b:
            assert a.tag != b.tag  # prefix (pid+seq) feeds the tag
            assert a.prefix != b.prefix


class TestWorkerDeath:
    def test_dead_worker_leaks_and_kills_nothing(self):
        """A worker that attaches and then dies hard must neither unlink
        the owner's segment (bpo-39959: tracked attachments would) nor
        leave anything of its own behind."""
        with shm.ShmArena(b"death") as arena:
            column = arena.column("src")
            column.sync([42, 43])
            name, tag = column.name, arena.tag
            pid = os.fork()
            if pid == 0:  # worker: attach, then die without cleanup
                try:
                    view = shm.attach_column(name, tag, 2)
                    ok = view[shm.HEADER_WORDS] == 42
                finally:
                    os._exit(0 if ok else 9)
            _, status = os.waitpid(pid, 0)
            assert os.waitstatus_to_exitcode(status) == 0
            # The owner's segment survived the worker's death intact.
            view = shm.attach_column(name, tag, 2)
            assert view[shm.HEADER_WORDS + 1] == 43
        shm.detach_all()


class _Boom(ExplorationObserver):
    def __init__(self, limit):
        self.limit = limit
        self.seen = 0

    def on_state(self, index, state, depth):
        self.seen += 1
        if self.seen >= self.limit:
            raise StopExploration(f"saw {self.seen}")


class TestExplorationLeakContract:
    """Exploration runs in-process at every job count: it must publish
    no shared-memory segment, however it ends."""

    def test_normal_exit_leaves_no_segments(self, force_parallel):
        graph = explore(counter_grid(12, 12), n_jobs=2)
        assert len(graph) == 169
        # autouse fixture asserts /dev/shm is clean

    def test_stop_exploration_leaves_no_segments(self, force_parallel):
        explore(counter_grid(12, 12), n_jobs=2, observer=_Boom(40))

    def test_observer_exception_leaves_no_segments(self, force_parallel):
        class Hostile(ExplorationObserver):
            def on_expanded(self, index, enabled):
                if index > 30:
                    raise ValueError("observer bug")

        with pytest.raises(ValueError):
            explore(counter_grid(12, 12), n_jobs=2, observer=Hostile())


class TestValuePlaneDifferential:
    def test_values_rounds_counted(self, force_parallel):
        # A hypercube has wide BFS rounds; counter_grid explores one state
        # per round, and single-row rounds skip the batch kernels.
        telemetry.reset()
        telemetry.enable()
        try:
            explore(grid_hypercube(3, 4), n_jobs=2)
            counters = telemetry.registry().snapshot()["counters"]
            assert counters.get("shard.values_rounds", 0) > 0
            assert counters.get("batch.calls", 0) > 0
            assert counters.get("batch.rows", 0) >= counters["batch.calls"]
        finally:
            telemetry.disable()

    def test_composed_system_has_no_plane_and_still_agrees(
        self, force_parallel
    ):
        # dining_philosophers composes ExplicitSystems — no value plane —
        # so every round expands in-process, bit-identically.
        system = dining_philosophers(3)
        assert system.value_plane() is None
        serial = graph_digest(explore(dining_philosophers(3)))
        sharded = graph_digest(explore(dining_philosophers(3), n_jobs=2))
        assert serial == sharded
