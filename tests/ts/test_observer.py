"""The exploration observer protocol and its cancellation signal.

Contract (see ``docs/METHOD.md`` §11): ``on_state`` fires at interning
time in index order (initial states first, at depth 0), ``on_transition``
fires as each kept transition is recorded (contiguous per source),
``on_expanded`` fires exactly once per *fully expanded* source — i.e.
exactly the states whose transitions survive into the graph — and the
whole event stream is bit-identical for every job count.  Raising :class:`StopExploration` from any callback stops
exploration cleanly: the graph stays well-formed, half-expanded states
revert to the frontier, and no further BFS round is expanded.
"""

import pytest

from repro.engine.shard import graph_digest
from repro.telemetry import core as telemetry
from repro.ts import ExplorationObserver, StopExploration, explore
from repro.workloads import (
    counter_grid,
    dining_philosophers,
    distractor_loop,
    modulus_chain,
    nested_rings,
)

JOB_COUNTS = (2, 4)

FAMILIES = [
    ("grid", lambda: counter_grid(5, 5)),
    ("chain", lambda: modulus_chain(2, fuel=3)),
    ("rings", lambda: nested_rings(3)),
    ("distractors", lambda: distractor_loop(2, 2)),
    ("philosophers", lambda: dining_philosophers(3)),
]


@pytest.fixture
def force_parallel(monkeypatch):
    monkeypatch.setenv("REPRO_FORCE_PARALLEL", "1")


class Recorder(ExplorationObserver):
    """Records the full event stream as comparable tuples."""

    def __init__(self):
        self.events = []

    def on_state(self, index, state, depth):
        self.events.append(("state", index, state, depth))

    def on_transition(self, source, command, target):
        self.events.append(("transition", source, command, target))

    def on_expanded(self, index, enabled):
        self.events.append(("expanded", index, enabled))


class StopAfterStates(ExplorationObserver):
    """Stops once ``limit`` states have been discovered."""

    def __init__(self, limit):
        self.limit = limit
        self.depths = {}
        self.stop_depth = None

    def on_state(self, index, state, depth):
        self.depths[index] = depth
        if len(self.depths) >= self.limit:
            self.stop_depth = depth
            raise StopExploration(f"saw {len(self.depths)} states")


class TestEventStream:
    @pytest.mark.parametrize("name,make", FAMILIES)
    def test_events_match_graph(self, name, make):
        recorder = Recorder()
        graph = explore(make(), observer=recorder)
        states = [e for e in recorder.events if e[0] == "state"]
        transitions = [e for e in recorder.events if e[0] == "transition"]
        expanded = [e for e in recorder.events if e[0] == "expanded"]
        # Every state reported once, in interning (index) order.
        assert [e[1] for e in states] == list(range(len(graph)))
        assert all(graph.state_of(e[1]) == e[2] for e in states)
        # Initial states lead, at depth 0.
        initials = len(graph.initial_indices)
        assert [e[1] for e in states[:initials]] == list(graph.initial_indices)
        assert all(e[3] == 0 for e in states[:initials])
        # Transitions: exactly the kept ones, in graph order.
        assert [
            (e[1], e[2], e[3]) for e in transitions
        ] == [(t.source, t.command, t.target) for t in graph.transitions]
        # Expanded: exactly the non-frontier states, with their enabled sets.
        assert {e[1] for e in expanded} == (
            set(range(len(graph))) - set(graph.frontier)
        )
        assert all(
            e[2] == frozenset(graph.enabled_at(e[1])) for e in expanded
        )

    @pytest.mark.parametrize("name,make", FAMILIES)
    @pytest.mark.parametrize("jobs", JOB_COUNTS)
    def test_sharded_stream_identical(self, force_parallel, name, make, jobs):
        serial, sharded = Recorder(), Recorder()
        g1 = explore(make(), observer=serial)
        g2 = explore(make(), n_jobs=jobs, observer=sharded)
        assert graph_digest(g1) == graph_digest(g2)
        assert serial.events == sharded.events

    @pytest.mark.parametrize("jobs", (None,) + JOB_COUNTS)
    def test_bounded_stream_identical(self, force_parallel, jobs):
        serial = Recorder()
        explore(counter_grid(6, 6), max_states=17, observer=serial)
        other = Recorder()
        explore(counter_grid(6, 6), max_states=17, n_jobs=jobs, observer=other)
        assert serial.events == other.events

    def test_noop_observer_leaves_graph_unchanged(self):
        bare = explore(counter_grid(5, 5))
        observed = explore(counter_grid(5, 5), observer=ExplorationObserver())
        assert graph_digest(bare) == graph_digest(observed)


class TestStopExploration:
    @pytest.mark.parametrize("jobs", (None, 2))
    def test_stop_yields_wellformed_prefix(self, force_parallel, jobs):
        observer = StopAfterStates(10)
        graph = explore(counter_grid(8, 8), n_jobs=jobs, observer=observer)
        assert len(graph) >= 10
        # Every kept transition originates from a fully expanded state and
        # both endpoints are interned — the graph is a usable prefix.
        frontier = set(graph.frontier)
        for t in graph.transitions:
            assert t.source not in frontier
            assert 0 <= t.target < len(graph)

    def test_stop_from_on_expanded_keeps_final_transitions(self):
        class StopOnExpand(ExplorationObserver):
            def __init__(self):
                self.expanded = []
                self.transitions = []

            def on_transition(self, source, command, target):
                self.transitions.append((source, command, target))

            def on_expanded(self, index, enabled):
                self.expanded.append(index)
                if len(self.expanded) >= 3:
                    raise StopExploration()

        observer = StopOnExpand()
        graph = explore(counter_grid(8, 8), observer=observer)
        # Transitions declared final via on_expanded survive into the graph.
        kept = [(t.source, t.command, t.target) for t in graph.transitions]
        frontier = set(graph.frontier)
        assert set(observer.expanded) == set(range(len(graph))) - frontier
        assert [
            t for t in observer.transitions if t[0] in set(observer.expanded)
        ] == kept

    def test_sharded_stop_halts_within_one_round(self, force_parallel):
        """After the stopping round merges, no further round is expanded:
        BFS rounds are depth layers, so a stop raised at the discovery of a
        depth-``d`` state (during the merge of the round expanding depth
        ``d-1``) must leave every state of depth ``>= d`` unexpanded."""
        telemetry.reset()
        telemetry.enable()
        try:
            observer = StopAfterStates(10)
            graph = explore(counter_grid(10, 10), n_jobs=4, observer=observer)
            counters = telemetry.registry().snapshot()["counters"]
            assert counters.get("stream.stops") == 1
            assert counters.get("stream.states_at_stop") == len(graph)
        finally:
            telemetry.disable()
        assert observer.stop_depth is not None
        frontier = set(graph.frontier)
        expanded_depths = [
            observer.depths[i] for i in range(len(graph)) if i not in frontier
        ]
        assert max(expanded_depths, default=0) < observer.stop_depth

    def test_serial_stop_counters(self):
        telemetry.reset()
        telemetry.enable()
        try:
            graph = explore(
                counter_grid(8, 8), observer=StopAfterStates(10)
            )
            counters = telemetry.registry().snapshot()["counters"]
            assert counters.get("stream.stops") == 1
            assert counters.get("stream.states_at_stop") == len(graph)
        finally:
            telemetry.disable()


class RecordingStopper(Recorder):
    """Records the stream and stops after ``limit`` discovered states —
    the combination that pins *where* a mid-round cancellation lands."""

    def __init__(self, limit):
        super().__init__()
        self.limit = limit
        self.discovered = 0

    def on_state(self, index, state, depth):
        super().on_state(index, state, depth)
        self.discovered += 1
        if self.discovered >= self.limit:
            raise StopExploration(f"saw {self.discovered} states")


class TestStopOnShmPath:
    """``StopExploration`` raised mid-round on the value-plane path with a
    job count requested (and the pool forced) must revert half-expanded
    states to the frontier *identically* to a default exploration — same
    events, same graph, same frontier — and must leave no shared-memory
    segment behind."""

    # Limits chosen to land the stop in the middle of a wide BFS round,
    # i.e. while its merge has finalized some of the round's sources but
    # not others (the half-expanded revert case).
    STOP_LIMITS = (10, 23, 40)

    @pytest.mark.parametrize("limit", STOP_LIMITS)
    def test_midround_stop_reverts_identically(self, force_parallel, limit):
        serial = RecordingStopper(limit)
        g1 = explore(counter_grid(9, 9), observer=serial)
        sharded = RecordingStopper(limit)
        g2 = explore(counter_grid(9, 9), n_jobs=2, observer=sharded)
        assert serial.events == sharded.events
        assert graph_digest(g1) == graph_digest(g2)
        # The revert itself: identical frontier means identical decisions
        # about which half-expanded states were rolled back.
        assert tuple(sorted(g1.frontier)) == tuple(sorted(g2.frontier))
        assert tuple(g1.states) == tuple(g2.states)

    def test_stop_on_shm_path_leaks_no_segments(self, force_parallel):
        import pathlib

        from repro.engine.shm import SEGMENT_PREFIX

        def segments():
            try:
                return sorted(
                    p.name
                    for p in pathlib.Path("/dev/shm").glob(f"{SEGMENT_PREFIX}*")
                )
            except OSError:  # pragma: no cover - no tmpfs
                return []

        before = segments()
        explore(counter_grid(9, 9), n_jobs=2, observer=StopAfterStates(23))
        assert segments() == before

    def test_stop_counters_match_serial_on_shm_path(self, force_parallel):
        results = {}
        for jobs in (None, 2):
            telemetry.reset()
            telemetry.enable()
            try:
                graph = explore(
                    counter_grid(9, 9), n_jobs=jobs,
                    observer=StopAfterStates(23),
                )
                counters = telemetry.registry().snapshot()["counters"]
                results[jobs] = (
                    len(graph),
                    counters.get("stream.stops"),
                    counters.get("stream.states_at_stop"),
                )
            finally:
                telemetry.disable()
        assert results[None] == results[2]
