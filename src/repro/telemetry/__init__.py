"""Engine telemetry: structured tracing, counters and live progress.

Zero-dependency observability for the whole pipeline — exploration,
the persistent worker pool, the disk cache,
measure verification and synthesis all report into one process-wide
registry and one span forest.  Disabled (the default) every
instrumentation site is a single flag check and :func:`span` returns a
shared no-op object, so the hot paths cost nothing; enabled, results are
still bit-identical — telemetry observes, it never steers.

Typical use::

    from repro import telemetry

    telemetry.enable()
    graph = explore(program)
    check_measure(graph, assignment, n_jobs=4)
    print(telemetry.render_trace())          # the --trace tree
    telemetry.write_metrics("metrics.json")  # the --metrics-out export
    telemetry.reset(); telemetry.disable()

The CLI exposes the same through ``--trace``, ``--metrics-out FILE`` and
``--progress`` on every subcommand.  The metrics registry aggregates
counters incremented inside pool workers back into the parent at round
boundaries (:func:`worker_collect` / :func:`merge_worker_metrics`), so a
``--jobs 4`` run reports exactly what a serial run would.  Metric names
and the export schema are documented in ``docs/METHOD.md``
§Observability and validated by :func:`validate_snapshot`.
"""

from repro.telemetry.core import (
    NOOP_SPAN,
    SNAPSHOT_VERSION,
    HistogramSummary,
    MetricsRegistry,
    Span,
    count,
    current_span,
    disable,
    enable,
    enabled,
    gauge,
    merge_worker_metrics,
    observe,
    phase_seconds,
    progress_reporter,
    registry,
    reset,
    root_spans,
    snapshot,
    span,
    worker_collect,
)
from repro.telemetry.events import (
    CATALOGUE,
    EVENT_VERSION,
    EventKind,
    ExplorationEventObserver,
    FlightRecorder,
    emit,
    flight_recorder,
    last_seq,
    reset_events,
    subscribe,
    unsubscribe,
)
from repro.telemetry.expose import (
    ExpositionServer,
    render_prometheus,
)
from repro.telemetry.schema import (
    EventSchemaError,
    SnapshotSchemaError,
    validate_event,
    validate_event_stream,
    validate_postmortem,
    validate_snapshot,
)
from repro.telemetry.sinks import (
    NdjsonEventSink,
    ProgressLine,
    engine_counters,
    print_trace,
    render_trace,
    write_metrics,
    write_postmortem,
)

__all__ = [
    "CATALOGUE",
    "EVENT_VERSION",
    "NOOP_SPAN",
    "SNAPSHOT_VERSION",
    "EventKind",
    "EventSchemaError",
    "ExplorationEventObserver",
    "ExpositionServer",
    "FlightRecorder",
    "HistogramSummary",
    "MetricsRegistry",
    "NdjsonEventSink",
    "ProgressLine",
    "SnapshotSchemaError",
    "Span",
    "emit",
    "engine_counters",
    "flight_recorder",
    "last_seq",
    "render_prometheus",
    "reset_events",
    "subscribe",
    "unsubscribe",
    "validate_event",
    "validate_event_stream",
    "validate_postmortem",
    "count",
    "current_span",
    "disable",
    "enable",
    "enabled",
    "gauge",
    "merge_worker_metrics",
    "observe",
    "phase_seconds",
    "print_trace",
    "progress_reporter",
    "registry",
    "render_trace",
    "reset",
    "root_spans",
    "snapshot",
    "span",
    "validate_snapshot",
    "worker_collect",
    "write_metrics",
    "write_postmortem",
]
