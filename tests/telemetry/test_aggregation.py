"""Cross-process metrics aggregation: worker deltas must sum exactly.

The deterministic engine counters — transitions checked, states expanded,
posts produced — must total *identically* for jobs=1, 2 and 4: the
verification plane counts inside its chunk kernel, which is both the
serial path and the pool worker, and exploration and synthesis run
in-process at every job count.  These tests force the pool on
(``REPRO_FORCE_PARALLEL=1``) so the worker-collection path actually runs
even on single-core CI machines.
"""

import pytest

from repro import telemetry
from repro.engine.graphstore import explore_with_cache
from repro.engine.parallel import parallel_map
from repro.gcl import Program
from repro.completeness.synthesis import synthesize_measure
from repro.fairness.checker import check_fair_termination
from repro.measures.verification import check_measure
from repro.ts import explore
from repro.workloads import counter_grid

JOB_COUNTS = (1, 2, 4)


@pytest.fixture
def force_parallel(monkeypatch):
    monkeypatch.setenv("REPRO_FORCE_PARALLEL", "1")


def _counting_task(n):
    """Module-level so the fork-based pool can pickle it."""
    telemetry.count("test.tasks")
    telemetry.observe("test.value", float(n))
    return n * n


def _counters():
    return telemetry.registry().snapshot()["counters"]


class TestParallelMapCollection:
    def test_worker_counts_merge_into_parent(self, force_parallel):
        telemetry.enable()
        items = list(range(8))
        results = parallel_map(_counting_task, items, n_jobs=2)
        assert results == [n * n for n in items]
        snap = telemetry.registry().snapshot()
        assert snap["counters"]["test.tasks"] == len(items)
        histogram = snap["histograms"]["test.value"]
        assert histogram["count"] == len(items)
        assert histogram["total"] == float(sum(items))
        assert snap["histograms"]["parallel.task_s"]["count"] == len(items)
        assert snap["counters"]["parallel.tasks"] == len(items)

    def test_disabled_runs_ship_unwrapped_tasks(self, force_parallel):
        results = parallel_map(_counting_task, list(range(4)), n_jobs=2)
        assert results == [0, 1, 4, 9]
        assert _counters() == {}  # nothing collected anywhere


class TestPipelineTotalsAcrossJobCounts:
    def test_verify_transitions_identical_for_all_job_counts(
        self, force_parallel
    ):
        graph = explore(counter_grid(5, 5))
        assignment = synthesize_measure(graph).assignment()
        totals = {}
        for jobs in JOB_COUNTS:
            telemetry.reset()
            telemetry.enable()
            check = check_measure(graph, assignment, n_jobs=jobs)
            assert not check.violations
            counters = _counters()
            totals[jobs] = {
                name: counters[name]
                for name in counters
                if name.startswith("verify.")
            }
            telemetry.disable()
        assert totals[1]["verify.transitions"] == len(graph.transitions)
        # jobs>1 routes through the columnar plane, which adds its own
        # verify.plane.* bookkeeping; the semantic verify.* totals the
        # plane decodes back into must still be identical to serial.
        semantic = {
            jobs: {
                name: count
                for name, count in counted.items()
                if not name.startswith("verify.plane.")
            }
            for jobs, counted in totals.items()
        }
        assert semantic[2] == semantic[1]
        assert semantic[4] == semantic[1]
        for jobs in (2, 4):
            assert totals[jobs]["verify.plane.engaged"] == 1
            assert (
                totals[jobs]["verify.plane.rows"]
                == totals[1]["verify.transitions"]
            )

    def test_explore_totals_identical_serial_and_sharded(
        self, force_parallel
    ):
        per_jobs = {}
        for jobs in JOB_COUNTS:
            telemetry.reset()
            telemetry.enable()
            graph = explore(counter_grid(5, 5), n_jobs=jobs)
            counters = _counters()
            per_jobs[jobs] = (len(graph), counters)
            telemetry.disable()
        states, serial = per_jobs[1]
        # Every job count runs the same in-process rounds, so every total
        # is the same.
        assert serial["explore.states"] == states
        assert serial["shard.states_expanded"] == states
        for jobs in (2, 4):
            _, counters = per_jobs[jobs]
            assert counters["explore.states"] == states
            assert counters["shard.states_expanded"] == states
            assert counters["explore.transitions"] == (
                serial["explore.transitions"]
            )
            assert counters["shard.posts"] == serial["shard.posts"]
            assert counters["shard.rounds"] == serial["shard.rounds"]

    def test_synthesis_totals_identical_across_job_counts(
        self, force_parallel
    ):
        graph = explore(counter_grid(5, 5))
        totals = {}
        for jobs in JOB_COUNTS:
            telemetry.reset()
            telemetry.enable()
            synthesize_measure(graph, n_jobs=jobs)
            counters = _counters()
            totals[jobs] = {
                name: counters[name]
                for name in counters
                if name.startswith("synthesize.")
            }
            telemetry.disable()
        assert totals[1]["synthesize.regions"] > 0
        assert totals[2] == totals[1]
        assert totals[4] == totals[1]


class TestPhases:
    def test_non_streaming_decide_is_a_phase(self):
        graph = explore(counter_grid(4, 4))
        telemetry.enable()
        result = check_fair_termination(graph)
        assert result.fairly_terminates
        phases = telemetry.phase_seconds()
        assert "decide" in phases
        assert "explore" not in phases  # explored before collection began


class TestGraphStoreCounters:
    def test_miss_store_then_hit(self, tmp_path):
        telemetry.enable()
        program = counter_grid(4, 4)
        _, hit = explore_with_cache(program, cache_dir=tmp_path)
        assert not hit
        counters = _counters()
        assert counters["graphstore.miss"] == 1
        assert counters["graphstore.store"] == 1
        assert counters["graphstore.chunk.miss"] > 0
        assert counters["graphstore.bytes.written"] > 0
        _, hit = explore_with_cache(program, cache_dir=tmp_path)
        assert hit
        counters = _counters()
        assert counters["graphstore.hit"] == 1
        assert counters["graphstore.bytes.mapped"] > 0

    def test_successor_cache_counters_surface_in_explore(self):
        telemetry.enable()
        # Interpreted programs expand through ``Program.expand`` and its
        # successor cache (value-plane programs never touch it).
        program = Program(counter_grid(4, 4).ast, compiled=False)
        explore(program)
        first = _counters()
        assert first["succache.miss"] > 0
        explore(program)  # same instance: the successor cache is warm now
        second = _counters()
        assert second["succache.hit"] > first.get("succache.hit", 0)
