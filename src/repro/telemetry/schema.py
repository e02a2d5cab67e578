"""The stable schema of telemetry snapshots (``--metrics-out`` JSON).

The snapshot layout is a public contract: benchmark rows embed it,
``BENCH_*.json`` consumers read it, and CI validates every exported file
against it.  The shape (version 1)::

    {
      "version": 1,
      "metrics": {
        "counters":   {"explore.states": 123, ...},
        "gauges":     {"synthesize.max_stack_height": 3, ...},
        "histograms": {"parallel.task_s":
                        {"count": 4, "total": 0.8, "min": 0.1, "max": 0.4},
                       ...}
      },
      "spans": [
        {"name": "explore", "seconds": 0.123,
         "attrs": {...}, "counters": {...}, "children": [...]},
        ...
      ]
    }

Metric names are dotted, lower-case, stable identifiers
(``subsystem.metric`` — e.g. ``explore.states``, ``graphstore.hit``); the
full catalogue lives in ``docs/METHOD.md`` §Observability.  The validator
here is hand-rolled (the repo takes no dependencies) and is deliberately
strict about shapes while open about *which* names appear — new metrics
may be added without a version bump, renames/removals require one.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, List

from repro.telemetry.core import SNAPSHOT_VERSION
from repro.telemetry.events import CATALOGUE, EVENT_VERSION

#: ``subsystem.metric`` (at least one dot), lower-case, digits and
#: underscores allowed per segment.
METRIC_NAME = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)+$")

#: Span names are single flat identifiers.
SPAN_NAME = re.compile(r"^[a-z0-9_.]+$")

class SnapshotSchemaError(ValueError):
    """A telemetry snapshot does not conform to the documented schema."""


def _fail(path: str, message: str) -> None:
    raise SnapshotSchemaError(f"{path}: {message}")


def _check_name(path: str, name: Any) -> None:
    if not isinstance(name, str) or not METRIC_NAME.match(name):
        _fail(path, f"metric name {name!r} is not a dotted lower-case identifier")


def _check_number(path: str, value: Any, allow_none: bool = False) -> None:
    if allow_none and value is None:
        return
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")


def _check_span(path: str, payload: Any) -> None:
    if not isinstance(payload, dict):
        _fail(path, "span must be an object")
    missing = {"name", "seconds", "attrs", "counters", "children"} - set(payload)
    if missing:
        _fail(path, f"span is missing keys {sorted(missing)}")
    if not isinstance(payload["name"], str) or not SPAN_NAME.match(payload["name"]):
        _fail(path, f"span name {payload['name']!r} is not an identifier")
    _check_number(f"{path}.seconds", payload["seconds"])
    if not isinstance(payload["attrs"], dict):
        _fail(f"{path}.attrs", "must be an object")
    if not isinstance(payload["counters"], dict):
        _fail(f"{path}.counters", "must be an object")
    for name, value in payload["counters"].items():
        _check_number(f"{path}.counters[{name!r}]", value)
    if not isinstance(payload["children"], list):
        _fail(f"{path}.children", "must be a list")
    for position, child in enumerate(payload["children"]):
        _check_span(f"{path}.children[{position}]", child)


def validate_snapshot(payload: Any) -> Dict[str, Any]:
    """Validate ``payload`` against the snapshot schema; returns it.

    Raises :class:`SnapshotSchemaError` (a ``ValueError``) with the JSON
    path of the first offending element.  Used by the CI metrics step and
    the telemetry tests.
    """
    if not isinstance(payload, dict):
        _fail("$", "snapshot must be an object")
    if payload.get("version") != SNAPSHOT_VERSION:
        _fail("$.version", f"expected {SNAPSHOT_VERSION}, got {payload.get('version')!r}")
    metrics = payload.get("metrics")
    if not isinstance(metrics, dict):
        _fail("$.metrics", "must be an object")
    missing = {"counters", "gauges", "histograms"} - set(metrics)
    if missing:
        _fail("$.metrics", f"missing keys {sorted(missing)}")
    for name, value in metrics["counters"].items():
        _check_name(f"$.metrics.counters[{name!r}]", name)
        if isinstance(value, bool) or not isinstance(value, int):
            _fail(f"$.metrics.counters[{name!r}]", f"counter must be an int, got {value!r}")
    for name, value in metrics["gauges"].items():
        _check_name(f"$.metrics.gauges[{name!r}]", name)
        _check_number(f"$.metrics.gauges[{name!r}]", value)
    for name, summary in metrics["histograms"].items():
        _check_name(f"$.metrics.histograms[{name!r}]", name)
        path = f"$.metrics.histograms[{name!r}]"
        if not isinstance(summary, dict):
            _fail(path, "histogram must be an object")
        missing = {"count", "total", "min", "max"} - set(summary)
        if missing:
            _fail(path, f"missing keys {sorted(missing)}")
        if isinstance(summary["count"], bool) or not isinstance(summary["count"], int):
            _fail(f"{path}.count", f"must be an int, got {summary['count']!r}")
        _check_number(f"{path}.total", summary["total"])
        empty = summary["count"] == 0
        _check_number(f"{path}.min", summary["min"], allow_none=empty)
        _check_number(f"{path}.max", summary["max"], allow_none=empty)
    spans = payload.get("spans")
    if not isinstance(spans, list):
        _fail("$.spans", "must be a list")
    for position, root in enumerate(spans):
        _check_span(f"$.spans[{position}]", root)
    return payload


# -- events ---------------------------------------------------------------
#
# The event envelope (version 2) — one NDJSON line of ``--events-out``,
# one entry of the flight recorder, one line of ``GET /events``::
#
#     {"v": 2, "seq": 17, "ts": 1754650000.1, "mono": 81.44,
#      "event": "explore.round", "data": {...}}
#
# ``event`` must name a catalogue entry (``repro.telemetry.events``,
# documented in docs/METHOD.md §13); ``data`` is a flat object of JSON
# scalars (lists of scalars allowed).  Sequence numbers are process-wide,
# start at 1, and are strictly increasing within any one stream.

#: The exact key set of an event envelope.
EVENT_KEYS = frozenset({"v", "seq", "ts", "mono", "event", "data"})

#: The exact key set of a postmortem document.
POSTMORTEM_KEYS = frozenset(
    {"version", "created_unix", "created_iso", "command", "argv", "error",
     "events", "metrics"}
)


class EventSchemaError(ValueError):
    """An event (or postmortem) does not conform to the documented schema."""


def _fail_event(path: str, message: str) -> None:
    raise EventSchemaError(f"{path}: {message}")


def _check_scalar(path: str, value: Any) -> None:
    if value is None or isinstance(value, (str, int, float, bool)):
        return
    _fail_event(path, f"expected a JSON scalar, got {type(value).__name__}")


def validate_event(payload: Any, path: str = "$") -> Dict[str, Any]:
    """Validate one event envelope; returns it.

    Raises :class:`EventSchemaError` (a ``ValueError``) naming the JSON
    path of the first offending element.  Used by the ``--events-out`` CI
    step, the postmortem validator and the telemetry tests.
    """
    if not isinstance(payload, dict):
        _fail_event(path, "event must be an object")
    extra = set(payload) - EVENT_KEYS
    missing = EVENT_KEYS - set(payload)
    if missing:
        _fail_event(path, f"event is missing keys {sorted(missing)}")
    if extra:
        _fail_event(path, f"event has unknown keys {sorted(extra)}")
    if payload["v"] != EVENT_VERSION:
        _fail_event(f"{path}.v", f"expected {EVENT_VERSION}, got {payload['v']!r}")
    seq = payload["seq"]
    if isinstance(seq, bool) or not isinstance(seq, int) or seq < 1:
        _fail_event(f"{path}.seq", f"sequence number must be an int >= 1, got {seq!r}")
    for key in ("ts", "mono"):
        value = payload[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            _fail_event(f"{path}.{key}", f"expected a number, got {value!r}")
    name = payload["event"]
    if not isinstance(name, str) or not METRIC_NAME.match(name):
        _fail_event(f"{path}.event", f"{name!r} is not a dotted lower-case name")
    if name not in CATALOGUE:
        _fail_event(f"{path}.event", f"{name!r} is not in the event catalogue")
    data = payload["data"]
    if not isinstance(data, dict):
        _fail_event(f"{path}.data", "must be an object")
    for key, value in data.items():
        if not isinstance(key, str):
            _fail_event(f"{path}.data", f"key {key!r} is not a string")
        if isinstance(value, list):
            for position, item in enumerate(value):
                _check_scalar(f"{path}.data[{key!r}][{position}]", item)
        else:
            _check_scalar(f"{path}.data[{key!r}]", value)
    return payload


def validate_event_stream(text: str) -> List[Dict[str, Any]]:
    """Validate an NDJSON event stream (the ``--events-out`` file format).

    Every non-empty line must parse as JSON on its own and validate as an
    event, and sequence numbers must be strictly increasing.  Returns the
    parsed events.
    """
    events: List[Dict[str, Any]] = []
    previous_seq = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as error:
            _fail_event(f"line {lineno}", f"not parseable JSON: {error}")
        validate_event(payload, path=f"line {lineno}")
        if payload["seq"] <= previous_seq:
            _fail_event(
                f"line {lineno}.seq",
                f"sequence numbers must increase: {payload['seq']} after "
                f"{previous_seq}",
            )
        previous_seq = payload["seq"]
        events.append(payload)
    return events


def validate_postmortem(payload: Any) -> Dict[str, Any]:
    """Validate a crash postmortem document; returns it.

    The event tail must be *contiguous* (each sequence number exactly one
    more than its predecessor) — the flight recorder drops only from the
    front, so any gap means the document was tampered with or the ring
    implementation broke.  The embedded metrics snapshot is validated
    against :func:`validate_snapshot`.
    """
    if not isinstance(payload, dict):
        _fail_event("$", "postmortem must be an object")
    missing = POSTMORTEM_KEYS - set(payload)
    if missing:
        _fail_event("$", f"postmortem is missing keys {sorted(missing)}")
    from repro.telemetry.sinks import POSTMORTEM_VERSION

    if payload["version"] != POSTMORTEM_VERSION:
        _fail_event(
            "$.version",
            f"expected {POSTMORTEM_VERSION}, got {payload['version']!r}",
        )
    if isinstance(payload["created_unix"], bool) or not isinstance(
        payload["created_unix"], (int, float)
    ):
        _fail_event("$.created_unix", "must be a number")
    if not isinstance(payload["created_iso"], str):
        _fail_event("$.created_iso", "must be a string")
    if payload["command"] is not None and not isinstance(payload["command"], str):
        _fail_event("$.command", "must be a string or null")
    if not isinstance(payload["argv"], list) or not all(
        isinstance(item, str) for item in payload["argv"]
    ):
        _fail_event("$.argv", "must be a list of strings")
    error = payload["error"]
    if not isinstance(error, dict):
        _fail_event("$.error", "must be an object")
    for key in ("type", "message"):
        if not isinstance(error.get(key), str):
            _fail_event(f"$.error.{key}", "must be a string")
    if not isinstance(error.get("traceback"), list) or not all(
        isinstance(item, str) for item in error["traceback"]
    ):
        _fail_event("$.error.traceback", "must be a list of strings")
    events = payload["events"]
    if not isinstance(events, list):
        _fail_event("$.events", "must be a list")
    previous_seq = None
    for position, event in enumerate(events):
        validate_event(event, path=f"$.events[{position}]")
        if previous_seq is not None and event["seq"] != previous_seq + 1:
            _fail_event(
                f"$.events[{position}].seq",
                f"flight-recorder tail must be contiguous: {event['seq']} "
                f"after {previous_seq}",
            )
        previous_seq = event["seq"]
    try:
        validate_snapshot(payload["metrics"])
    except SnapshotSchemaError as exc:
        _fail_event("$.metrics", str(exc))
    return payload
