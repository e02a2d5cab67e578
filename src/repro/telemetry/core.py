"""Spans, counters, gauges and histograms — the engine's nervous system.

The engine (exploration, the worker pool, the disk cache,
verification, synthesis) is instrumented at *phase boundaries*: every
instrumentation site is a module-level flag check followed, only when
telemetry is enabled, by a dict update or a span push.  Disabled — the
default — the whole subsystem costs one pointer comparison per site:
:func:`span` returns a shared no-op singleton (no allocation), and
:func:`count`/:func:`gauge`/:func:`observe` return before touching the
registry.  Inner per-state/per-transition loops are never instrumented
directly; callers record totals when a phase closes.

Three primitives:

* **Spans** — hierarchical timed regions (``span("explore")`` →
  ``span("shard_round", round=k)``).  A span carries wall time, arbitrary
  attributes, its own counters and its children; the forest of root spans
  is what ``--trace`` renders and what the snapshot exports.
* **The metrics registry** — process-wide dotted-name counters, gauges
  and histograms (mergeable ``count/total/min/max`` summaries, never raw
  observation lists).  Names are stable and documented in
  ``docs/METHOD.md`` §Observability.
* **Worker deltas** — :func:`worker_collect` wraps a function call in a
  child process: it enables collection locally, resets the child's
  registry, runs the function and ships the resulting snapshot back as
  plain data; the parent merges it with :func:`merge_worker_metrics` at
  the round boundary.  Pool workers are single-threaded and run one task
  at a time, so reset-then-snapshot is exact.

Everything here is import-light and dependency-free; nothing in this
module may import the rest of :mod:`repro` (every engine module imports
*us*) except :mod:`repro.telemetry.events`, which sits below us: root
spans double as the ``phase.begin``/``phase.end`` events of the
structured event bus.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

from repro.telemetry import events as _events

#: Bumped when the snapshot layout changes; consumers (benchmarks, CI
#: schema validation) key on it.
SNAPSHOT_VERSION = 1

_enabled = False


def enabled() -> bool:
    """Whether telemetry collection is on (the module-level fast flag)."""
    return _enabled


def enable(progress: bool = False, progress_stream=None) -> None:
    """Turn collection on (spans + metrics; ``progress`` adds the live
    stderr progress line for long explorations)."""
    global _enabled, _progress
    _enabled = True
    if progress:
        from repro.telemetry.sinks import ProgressLine

        _progress = ProgressLine(stream=progress_stream)
    else:
        _progress = None


def disable() -> None:
    """Turn collection off.  Collected data survives until :func:`reset`."""
    global _enabled, _progress
    _enabled = False
    _progress = None


def reset() -> None:
    """Drop all collected metrics and spans (and any open span stack)."""
    _registry.reset()
    _span_stack.clear()
    _root_spans.clear()


# -- metrics registry -----------------------------------------------------


class HistogramSummary:
    """A mergeable summary of observations: count, total, min, max.

    Raw observations are never retained — a histogram's memory cost is
    four numbers no matter how many values it sees, and two summaries
    merge exactly (the property worker-delta aggregation relies on).
    """

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def merge(self, other: Dict[str, Any]) -> None:
        """Fold a snapshotted summary (``{"count", "total", "min", "max"}``)
        into this one."""
        if not other.get("count"):
            return
        self.count += other["count"]
        self.total += other["total"]
        if self.min is None or other["min"] < self.min:
            self.min = other["min"]
        if self.max is None or other["max"] > self.max:
            self.max = other["max"]

    def snapshot(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """Process-wide named counters, gauges and histograms."""

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, HistogramSummary] = {}

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        summary = self.histograms.get(name)
        if summary is None:
            summary = self.histograms[name] = HistogramSummary()
        summary.observe(value)

    def merge(self, delta: Dict[str, Any]) -> None:
        """Fold a snapshot produced by another process's registry into this
        one: counters add, gauges last-write-wins, histograms merge."""
        for name, value in delta.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, value in delta.get("gauges", {}).items():
            self.gauges[name] = value
        for name, summary in delta.get("histograms", {}).items():
            mine = self.histograms.get(name)
            if mine is None:
                mine = self.histograms[name] = HistogramSummary()
            mine.merge(summary)

    def snapshot(self) -> Dict[str, Any]:
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: summary.snapshot()
                for name, summary in self.histograms.items()
            },
        }

    def reset(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()


_registry = MetricsRegistry()
_progress = None  # ProgressLine when enable(progress=True), else None


def registry() -> MetricsRegistry:
    """The process-wide registry (exposed for sinks, footers and tests)."""
    return _registry


def count(name: str, n: int = 1) -> None:
    """Add ``n`` to counter ``name`` — no-op (and allocation-free) when
    telemetry is disabled."""
    if _enabled:
        _registry.count(name, n)


def gauge(name: str, value: float) -> None:
    """Set gauge ``name`` to ``value`` (no-op when disabled)."""
    if _enabled:
        _registry.gauges[name] = value


def observe(name: str, value: float) -> None:
    """Record ``value`` into histogram ``name`` (no-op when disabled)."""
    if _enabled:
        _registry.observe(name, value)


# -- spans ----------------------------------------------------------------


def _event_safe(attrs: Dict[str, Any]) -> Dict[str, Any]:
    """Span attributes coerced to the event-data contract: JSON scalars
    only, and no collision with the envelope's own ``phase`` key."""
    safe: Dict[str, Any] = {}
    for key, value in attrs.items():
        if key == "phase":
            continue
        if value is None or isinstance(value, (str, int, float, bool)):
            safe[key] = value
        else:
            safe[key] = str(value)
    return safe


class Span:
    """One timed region of the trace tree.

    Created by :func:`span` (only when telemetry is enabled), entered via
    ``with``.  ``set`` attaches attributes, ``inc`` bumps span-local
    counters; both also work after exit (callers often annotate a span
    with totals computed just before the ``with`` block closes).
    """

    __slots__ = ("name", "attrs", "counters", "children", "start", "end", "_root")

    def __init__(self, name: str, attrs: Dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self.counters: Dict[str, int] = {}
        self.children: List["Span"] = []
        self.start = 0.0
        self.end: Optional[float] = None
        self._root = False

    @property
    def seconds(self) -> float:
        """Wall time; an open span reads as elapsed-so-far."""
        return (self.end if self.end is not None else time.perf_counter()) - self.start

    def set(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def inc(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def __enter__(self) -> "Span":
        parent = _span_stack[-1] if _span_stack else None
        (parent.children if parent is not None else _root_spans).append(self)
        _span_stack.append(self)
        # Root spans are the engine's phases — they double as the
        # phase.begin/phase.end events of the structured bus (child spans
        # would flood the ring: a sharded explore has thousands).
        self._root = parent is None
        if self._root:
            _events.emit(
                _events.PHASE_BEGIN, phase=self.name, **_event_safe(self.attrs)
            )
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end = time.perf_counter()
        if _span_stack and _span_stack[-1] is self:
            _span_stack.pop()
        if self._root:
            _events.emit(
                _events.PHASE_END,
                phase=self.name,
                seconds=self.end - self.start,
                error=exc_type.__name__ if exc_type is not None else None,
            )

    def snapshot(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "seconds": self.seconds,
            "attrs": dict(self.attrs),
            "counters": dict(self.counters),
            "children": [child.snapshot() for child in self.children],
        }


class _NoopSpan:
    """The disabled-mode span: one shared instance, every method a no-op.

    ``span(...)`` returns *this very object* whenever telemetry is off —
    the hot path allocates nothing, and tests assert the identity.
    """

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def set(self, key: str, value: Any) -> None:
        pass

    def inc(self, name: str, n: int = 1) -> None:
        pass

    @property
    def seconds(self) -> float:
        return 0.0


NOOP_SPAN = _NoopSpan()

_span_stack: List[Span] = []
_root_spans: List[Span] = []


def span(name: str, **attrs: Any):
    """Open a trace span (use as a context manager).

    Disabled: returns the shared :data:`NOOP_SPAN` — no allocation, no
    timing.  Enabled: returns a fresh :class:`Span` that attaches itself
    to the current span (or the root forest) on ``__enter__``.
    """
    if not _enabled:
        return NOOP_SPAN
    return Span(name, attrs)


def root_spans() -> List[Span]:
    """The forest of completed/open top-level spans, in start order."""
    return _root_spans


def current_span():
    """The innermost open span, or the no-op span when none/disabled."""
    if _enabled and _span_stack:
        return _span_stack[-1]
    return NOOP_SPAN


def phase_seconds() -> Dict[str, float]:
    """Total wall time of root spans, aggregated by span name.

    The CLI footer's source of truth: repeated phases (several explores
    in one command) sum.
    """
    totals: Dict[str, float] = {}
    for root in _root_spans:
        totals[root.name] = totals.get(root.name, 0.0) + root.seconds
    return totals


# -- progress -------------------------------------------------------------


def progress_reporter():
    """The live progress sink, or ``None`` (the common case).

    Hot loops fetch this once and guard every update with
    ``if progress is not None`` — the disabled cost is one comparison.
    """
    return _progress


# -- worker-side collection ----------------------------------------------


def worker_collect(fn, item) -> Tuple[Any, Dict[str, Any], float]:
    """Run ``fn(item)`` in a pool worker, collecting its metrics delta.

    Enables collection locally for the duration (pool workers may have
    been spawned before the parent enabled telemetry), resets the
    worker's registry so the snapshot is exactly this call's delta, and
    returns ``(result, metrics_delta, elapsed_seconds)``.  Workers run
    one task at a time on one thread, so the reset cannot race another
    task.
    """
    global _enabled
    _registry.reset()
    previous = _enabled
    _enabled = True
    start = time.perf_counter()
    try:
        result = fn(item)
    finally:
        _enabled = previous
    elapsed = time.perf_counter() - start
    return result, _registry.snapshot(), elapsed


def merge_worker_metrics(delta: Dict[str, Any]) -> None:
    """Fold one worker delta into the parent registry (round boundary)."""
    if _enabled:
        _registry.merge(delta)


# -- snapshot -------------------------------------------------------------


def snapshot() -> Dict[str, Any]:
    """The full telemetry state as a JSON-ready dict (the stable schema
    validated by :func:`repro.telemetry.schema.validate_snapshot`)."""
    return {
        "version": SNAPSHOT_VERSION,
        "metrics": _registry.snapshot(),
        "spans": [root.snapshot() for root in _root_spans],
    }
