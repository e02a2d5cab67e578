"""``n_jobs`` on exploration is accepted and changes nothing (DESIGN §6d).

Exploration always runs in-process; a job count (even with
``REPRO_FORCE_PARALLEL=1``, which forces the pool elsewhere) must leave
the graph bit-identical for every workload family and every truncation
mode — same state interning order, same transition order, same enabled
sets, same frontier, same strict-mode error message.  Also covers the
canonical :func:`graph_digest` and program pickling.  The full
differential table against the FIFO reference loop lives in
``test_explore_paths.py``.
"""

import pickle

import pytest

from repro.engine.reference import explore_reference
from repro.engine.shard import graph_digest
from repro.gcl.compile import CompiledProgram
from repro.ts import ExplorationLimitError, explore
from repro.ts.system import TransitionSystem
from repro.workloads import (
    counter_grid,
    engine_scaling_suite,
    large_scaling_suite,
)

JOB_COUNTS = (2, 4)


@pytest.fixture
def force_parallel(monkeypatch):
    monkeypatch.setenv("REPRO_FORCE_PARALLEL", "1")


def _families():
    """Every smoke-scale family from both suites, deduplicated by name."""
    seen = {}
    for name, make in engine_scaling_suite("smoke"):
        seen.setdefault(name, make)
    for name, make in large_scaling_suite("smoke"):
        seen.setdefault(name, make)
    return sorted(seen.items())


def _fingerprint(graph):
    """Every observable of a ReachableGraph, including orderings."""
    return (
        tuple(graph.states),
        tuple((t.source, t.command, t.target) for t in graph.transitions),
        tuple(frozenset(graph.enabled_at(i)) for i in range(len(graph))),
        tuple(graph.initial_indices),
        tuple(sorted(graph.frontier)),
    )


class TestDifferentialComplete:
    """Unbounded exploration: any job count == serial on every family."""

    @pytest.mark.parametrize("name,make", _families())
    def test_bit_identical_graphs(self, force_parallel, name, make):
        serial = explore(make())
        expected = _fingerprint(serial)
        expected_digest = graph_digest(serial)
        for jobs in JOB_COUNTS:
            sharded = explore(make(), n_jobs=jobs)
            assert _fingerprint(sharded) == expected, (
                f"{name}: n_jobs={jobs} differs from serial"
            )
            assert graph_digest(sharded) == expected_digest

    def test_two_sharded_runs_agree(self, force_parallel):
        first = explore(counter_grid(3, 4), n_jobs=4)
        second = explore(counter_grid(3, 4), n_jobs=4)
        assert graph_digest(first) == graph_digest(second)
        assert _fingerprint(first) == _fingerprint(second)

    def test_jobs_one_is_the_serial_path(self):
        assert _fingerprint(explore(counter_grid(2, 5), n_jobs=1)) == (
            _fingerprint(explore(counter_grid(2, 5)))
        )


class TestDifferentialBounded:
    """Truncated exploration: budgets, depth bounds and strict errors."""

    @pytest.mark.parametrize("name,make", _families())
    @pytest.mark.parametrize("jobs", JOB_COUNTS)
    def test_max_states_identical(self, force_parallel, name, make, jobs):
        serial = explore(make(), max_states=10)
        sharded = explore(make(), max_states=10, n_jobs=jobs)
        assert _fingerprint(sharded) == _fingerprint(serial)
        assert sharded.frontier == serial.frontier

    @pytest.mark.parametrize("name,make", _families())
    @pytest.mark.parametrize("jobs", JOB_COUNTS)
    def test_max_depth_identical(self, force_parallel, name, make, jobs):
        serial = explore(make(), max_depth=2)
        sharded = explore(make(), max_depth=2, n_jobs=jobs)
        assert _fingerprint(sharded) == _fingerprint(serial)

    @pytest.mark.parametrize("name,make", _families())
    def test_strict_error_message_identical(self, force_parallel, name, make):
        try:
            explore(make(), max_states=5, strict=True)
        except ExplorationLimitError as error:
            serial_message = str(error)
        else:
            pytest.skip(f"{name} has fewer than 5 states")
        for jobs in JOB_COUNTS:
            with pytest.raises(ExplorationLimitError) as excinfo:
                explore(make(), max_states=5, strict=True, n_jobs=jobs)
            assert str(excinfo.value) == serial_message


class _Opaque(TransitionSystem):
    """A system without a value plane (inherits the None default)."""

    def __init__(self, inner):
        self._inner = inner

    def initial_states(self):
        return self._inner.initial_states()

    def commands(self):
        return self._inner.commands()

    def enabled(self, state):
        return self._inner.enabled(state)

    def post(self, state):
        return self._inner.post(state)


class TestFallbacks:
    def test_unshardable_system_falls_back_to_serial(self, force_parallel):
        # No value plane: every round expands in-process, whatever n_jobs.
        assert _Opaque(counter_grid(3, 3)).value_plane() is None
        serial = explore(counter_grid(3, 3))
        fallback = explore(_Opaque(counter_grid(3, 3)), n_jobs=4)
        assert _fingerprint(fallback) == _fingerprint(serial)

    def test_serial_request_never_imports_sharding(self):
        graph = explore(counter_grid(2, 4), n_jobs=None)
        assert len(graph) > 0


class TestPicklability:
    """Programs pickle as their syntax tree and recompile on arrival."""

    def test_program_pickle_roundtrip(self):
        program = counter_grid(2, 4)
        clone = pickle.loads(pickle.dumps(program))
        assert _fingerprint(explore(clone)) == _fingerprint(explore(program))

    def test_compiled_program_pickle_roundtrip(self):
        program = counter_grid(2, 3)
        explore(program)  # force compilation
        compiled = program._compiled
        assert isinstance(compiled, CompiledProgram)
        clone = pickle.loads(pickle.dumps(compiled))
        assert clone.by_label.keys() == compiled.by_label.keys()


class TestGraphDigest:
    def test_digest_is_stable_across_explorations(self):
        a = explore(counter_grid(2, 5))
        b = explore(counter_grid(2, 5))
        assert graph_digest(a) == graph_digest(b)

    def test_digest_distinguishes_graphs(self):
        assert graph_digest(explore(counter_grid(2, 5))) != (
            graph_digest(explore(counter_grid(2, 4)))
        )

    def test_digest_sees_the_frontier(self):
        complete = explore(counter_grid(2, 5))
        truncated = explore(counter_grid(2, 5), max_states=10)
        assert graph_digest(complete) != graph_digest(truncated)


class TestValuePlaneWireFormats:
    """Value-plane programs expand flat int64 rows in batched rounds.  The
    FIFO reference loop, a default exploration and a forced ``n_jobs=2``
    request must stay fingerprint-identical, including under truncation,
    and exploration must publish no shared memory."""

    @pytest.mark.parametrize("name,make", _families())
    def test_three_paths_identical(self, force_parallel, monkeypatch, name, make):
        jobs_two = _fingerprint(explore(make(), n_jobs=2))
        monkeypatch.delenv("REPRO_FORCE_PARALLEL")
        in_process = _fingerprint(explore(make()))
        reference = _fingerprint(explore_reference(make()))
        assert in_process == reference, f"{name}: in-process rounds differ"
        assert jobs_two == reference, f"{name}: n_jobs=2 differs"

    @pytest.mark.parametrize("jobs", JOB_COUNTS)
    def test_bounded_value_plane_identical(self, force_parallel, jobs):
        serial = explore(counter_grid(6, 6), max_states=17)
        plane = explore(counter_grid(6, 6), max_states=17, n_jobs=jobs)
        assert _fingerprint(plane) == _fingerprint(serial)
        assert plane.frontier == serial.frontier

    def test_value_plane_strict_error_identical(self, force_parallel):
        with pytest.raises(ExplorationLimitError) as serial_error:
            explore(counter_grid(6, 6), max_states=5, strict=True)
        with pytest.raises(ExplorationLimitError) as plane_error:
            explore(counter_grid(6, 6), max_states=5, strict=True, n_jobs=2)
        assert str(plane_error.value) == str(serial_error.value)

    def test_plane_takes_coordinator_without_force(self, monkeypatch):
        """Without the force switch a job count changes nothing either."""
        monkeypatch.delenv("REPRO_FORCE_PARALLEL", raising=False)
        serial = explore(counter_grid(6, 6))
        routed = explore(counter_grid(6, 6), n_jobs=4)
        assert _fingerprint(routed) == _fingerprint(serial)

    def test_no_segments_survive_exploration(self, force_parallel):
        from repro.engine import shm

        explore(counter_grid(6, 6), n_jobs=2)
        assert shm.live_segment_names() == []
