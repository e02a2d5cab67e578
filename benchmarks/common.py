"""Shared infrastructure for the benchmark harness.

Each bench regenerates one experiment's rows (see DESIGN.md §5 and
EXPERIMENTS.md) as an :class:`repro.analysis.Table` and registers it with
:func:`record_table`; the conftest's terminal-summary hook prints every
registered table after the benchmark run, so the tables land in
``bench_output.txt`` even under pytest's output capture.

:func:`timed_median` is the one timing primitive: warmup iterations are
discarded (first-call costs — imports, pool spin-up, allocator warm-up —
are not what the experiments measure) and the reported figure is the
*median* of at least :data:`MIN_REPEATS` timed runs, so a single
scheduling hiccup cannot swing a sub-millisecond row.

Every ``timed_median`` call also snapshots the process's peak RSS
(:func:`peak_rss_kb`, via ``resource.getrusage``) so each ``BENCH_*.json``
row records memory alongside time.  BENCH row schema note: the
``peak_rss_kb`` column is ``max(RUSAGE_SELF, RUSAGE_CHILDREN)`` — pool
workers' memory counts, not just the coordinator's.  ``ru_maxrss`` is a
*high-water mark* — monotone over the process lifetime — so within one
bench process the column reads "peak RSS up to and including this row";
benches that need per-configuration peaks (E17) measure in fresh
child processes instead.

When telemetry is collecting (``REPRO_BENCH_TELEMETRY=1``, or a bench
enabled it explicitly), ``timed_median`` additionally snapshots the
telemetry registry after the timed iterations; :func:`last_telemetry`
exposes it so rows can record engine counters (states expanded, cache
hits, shard rounds) next to time and memory.  Timing runs leave telemetry
alone by default — collection is opt-in precisely so the measured figures
are the uninstrumented ones.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis.report import Table
from repro.telemetry import core as telemetry

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None

#: Benches must time at least this many repeats — smoke runs included.
MIN_REPEATS = 3

#: Untimed iterations discarded before measurement starts.
DEFAULT_WARMUP = 1

_TABLES: List[Table] = []

_LAST_PEAK_RSS_KB: Optional[int] = None

_LAST_TELEMETRY: Optional[Dict[str, Any]] = None


def peak_rss_kb() -> Optional[int]:
    """Peak resident set size in KiB (``None`` if unknown).

    Reported as ``max(RUSAGE_SELF, RUSAGE_CHILDREN)``: sharded explorations
    do their heavy lifting in pool workers, whose memory ``RUSAGE_SELF``
    never sees — a parallel row would otherwise report only the
    coordinator's (much smaller) footprint.  ``RUSAGE_CHILDREN`` is the
    high-water mark over *reaped* children, so it covers workers once the
    pool has been shut down; benches that measure in fresh child processes
    (E17) get the child's own self+children peak the same way.

    Linux reports ``ru_maxrss`` in KiB; macOS reports bytes and is
    normalised here.  The value is a lifetime high-water mark.
    """
    if resource is None:
        return None
    try:
        maxrss = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
    except (OSError, ValueError):  # pragma: no cover - exotic sandboxes
        return None
    import sys

    if sys.platform == "darwin":  # pragma: no cover - linux CI
        return int(maxrss // 1024)
    return int(maxrss)


def last_peak_rss_kb() -> Optional[int]:
    """Peak RSS snapshotted by the most recent :func:`timed_median` call."""
    return _LAST_PEAK_RSS_KB


def last_telemetry() -> Optional[Dict[str, Any]]:
    """Telemetry snapshot from the most recent :func:`timed_median` call.

    ``None`` unless telemetry was collecting during the timed runs
    (``REPRO_BENCH_TELEMETRY=1`` or an explicit ``telemetry.enable()``).
    """
    return _LAST_TELEMETRY


def maybe_enable_bench_telemetry() -> bool:
    """Honour ``REPRO_BENCH_TELEMETRY=1``: reset and enable collection.

    Returns whether collection is on.  Called by benches that want their
    rows annotated; the default (unset) keeps timing runs uninstrumented.
    """
    if os.environ.get("REPRO_BENCH_TELEMETRY") == "1":
        telemetry.reset()
        telemetry.enable()
        return True
    return telemetry.enabled()


def record_table(table: Table) -> None:
    """Register an experiment table for end-of-run printing."""
    _TABLES.append(table)


def recorded_tables() -> List[Table]:
    """All tables registered so far (consumed by the conftest hook)."""
    return _TABLES


def timed_median(
    run: Callable[..., Any],
    *,
    repeats: int = MIN_REPEATS,
    warmup: int = DEFAULT_WARMUP,
    setup: Optional[Callable[[], Any]] = None,
) -> Tuple[float, List[Any]]:
    """``(median_seconds, timed_results)`` for ``repeats`` calls of ``run``.

    ``setup`` (if given) is called before every iteration, *outside* the
    timed region, and its value is passed to ``run`` — use it to rebuild
    per-iteration state (a fresh graph, a cold cache) without billing the
    rebuild to the measurement.  The first ``warmup`` iterations run and
    are discarded; the remaining ``repeats`` are timed and their results
    returned in order so callers can assert run-to-run agreement.
    """
    if repeats < MIN_REPEATS:
        raise ValueError(
            f"repeats must be >= {MIN_REPEATS}, got {repeats} "
            "(single-shot timings of sub-millisecond rows are pure noise)"
        )
    global _LAST_PEAK_RSS_KB, _LAST_TELEMETRY
    durations: List[float] = []
    results: List[Any] = []
    for iteration in range(warmup + repeats):
        argument = setup() if setup is not None else None
        start = time.perf_counter()
        result = run(argument) if setup is not None else run()
        elapsed = time.perf_counter() - start
        if iteration >= warmup:
            durations.append(elapsed)
            results.append(result)
    _LAST_PEAK_RSS_KB = peak_rss_kb()
    _LAST_TELEMETRY = telemetry.snapshot() if telemetry.enabled() else None
    return statistics.median(durations), results
