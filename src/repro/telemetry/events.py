"""The structured event bus and the flight recorder.

Everything long-running in the engine reports *events* here — small,
schema-versioned dicts with a monotonic sequence number and both a wall
and a monotonic timestamp::

    {"v": 2, "seq": 17, "ts": 1754650000.123, "mono": 81.44,
     "event": "explore.round",
     "data": {"round": 12, "pending": 4096, "states": 131072}}

The bus is *typed*: every event name must come from :data:`CATALOGUE`
(documented in ``docs/METHOD.md`` §13); :func:`emit` rejects unknown
names so producers cannot silently invent streams consumers do not know
about.  New names may be added without a version bump; renaming or
reshaping an existing event's data requires bumping
:data:`EVENT_VERSION`.

Two delivery paths, both fed by every :func:`emit`:

* **The flight recorder** — a bounded in-memory ring
  (:class:`FlightRecorder`, default :data:`DEFAULT_RING_CAPACITY` events,
  overridable via :data:`RING_ENV`) that is *always on*.  Its cost is one
  deque append per event, and events themselves fire only at phase/round
  boundaries, never per state — so a crashed run always has its last
  ``N`` boundary events available for the postmortem
  (:func:`repro.telemetry.sinks.write_postmortem`), at near-zero cost to
  a healthy run.
* **Subscribers** — callables registered with :func:`subscribe` receive
  every event dict as it is emitted (the ``--events-out`` NDJSON sink,
  tests, future SSE framers).  A subscriber that raises is dropped from
  that event's delivery but never breaks the emitting engine code.

Exploration, which would be too chatty for unconditional emission, uses
the throttled :func:`round_ticker` (per-BFS-round, always on, at most one
event per :data:`ROUND_INTERVAL_S`).  Sequence numbers are process-wide and
strictly increasing, so any contiguous slice of the ring is provably
gap-free — the property the postmortem validator checks.

This module is import-light and bottom-of-the-stack: it may not import
anything else from :mod:`repro` at module level (``telemetry.core``
imports *us* to emit phase events from root spans).
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

#: Bumped when the event envelope (the ``v/seq/ts/mono/event/data`` frame)
#: or the meaning of an existing event changes; consumers key on it.
#: Version 2 dropped ``workers`` and ``dispatch`` from ``explore.round``
#: (exploration no longer fans out, so they could only read 1/serial).
EVENT_VERSION = 2

#: Default flight-recorder capacity (events).
DEFAULT_RING_CAPACITY = 1024

#: Environment override for the flight-recorder capacity.
RING_ENV = "REPRO_FLIGHT_RECORDER_EVENTS"

#: Throttle for the per-round ticker: at most one event per this many
#: seconds per ticker.
ROUND_INTERVAL_S = 0.25


# -- catalogue ------------------------------------------------------------


class EventKind:
    """One named entry of the event catalogue."""

    __slots__ = ("name", "doc")

    def __init__(self, name: str, doc: str) -> None:
        self.name = name
        self.doc = doc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EventKind({self.name!r})"


RUN_START = EventKind(
    "run.start",
    "A CLI run began: command, source file, pid, requested jobs.",
)
RUN_END = EventKind(
    "run.end",
    "A CLI run finished: exit code (None on crash), crashed flag, wall seconds.",
)
PHASE_BEGIN = EventKind(
    "phase.begin",
    "A root telemetry span opened (explore/verify/synthesize/decide): "
    "phase name plus the span's opening attributes.",
)
PHASE_END = EventKind(
    "phase.end",
    "A root telemetry span closed: phase name and wall seconds.",
)
EXPLORE_PROGRESS = EventKind(
    "explore.progress",
    "Per-round exploration progress from an ExplorationEventObserver: "
    "states discovered, queue size, BFS depth.",
)
EXPLORE_ROUND = EventKind(
    "explore.round",
    "One BFS round started (throttled): round depth, pending sources, "
    "states so far.",
)
EXPLORE_SUMMARY = EventKind(
    "explore.summary",
    "An exploration finished: system name, states, transitions, frontier "
    "size, completeness.",
)
GRAPHSTORE_OUTCOME = EventKind(
    "graphstore.outcome",
    "explore_with_cache resolved: outcome kind (bypass/hit/"
    "incremental/cold) and the chunk reuse/write accounting.",
)
POOL_SPINUP = EventKind(
    "parallel.pool_spinup",
    "The persistent worker pool was (re)created: worker count, spin-up "
    "seconds.",
)
STREAM_STAGE = EventKind(
    "stream.stage",
    "One stage of the streaming decide completed: stage number, state "
    "budget, states explored, fresh SCC candidates, witness found.",
)
DECIDE_VERDICT = EventKind(
    "decide.verdict",
    "A fair-termination decision returned: verdict, decisiveness, "
    "streaming flag, states/transitions explored, stages (streaming).",
)
VERIFY_VERDICT = EventKind(
    "verify.verdict",
    "A measure verification returned: ok, violation count, transitions "
    "checked, completeness, streaming/stopped-early flags.",
)

#: name → :class:`EventKind`; the full catalogue (docs/METHOD.md §13).
CATALOGUE: Dict[str, EventKind] = {
    kind.name: kind
    for kind in (
        RUN_START,
        RUN_END,
        PHASE_BEGIN,
        PHASE_END,
        EXPLORE_PROGRESS,
        EXPLORE_ROUND,
        EXPLORE_SUMMARY,
        GRAPHSTORE_OUTCOME,
        POOL_SPINUP,
        STREAM_STAGE,
        DECIDE_VERDICT,
        VERIFY_VERDICT,
    )
}


# -- the flight recorder --------------------------------------------------


def _default_capacity() -> int:
    raw = os.environ.get(RING_ENV)
    if raw is None:
        return DEFAULT_RING_CAPACITY
    try:
        capacity = int(raw)
    except ValueError:
        return DEFAULT_RING_CAPACITY
    return capacity if capacity > 0 else DEFAULT_RING_CAPACITY


class FlightRecorder:
    """A bounded ring of the most recent events.

    Appending is O(1) and drops the oldest event once ``capacity`` is
    reached; because sequence numbers are globally monotonic the retained
    slice is always contiguous — ``tail()`` never has gaps.
    """

    __slots__ = ("_ring",)

    def __init__(self, capacity: Optional[int] = None) -> None:
        self._ring: Deque[Dict[str, Any]] = deque(
            maxlen=capacity if capacity is not None else _default_capacity()
        )

    @property
    def capacity(self) -> int:
        return self._ring.maxlen or 0

    def __len__(self) -> int:
        return len(self._ring)

    def append(self, event: Dict[str, Any]) -> None:
        self._ring.append(event)

    def tail(self, n: Optional[int] = None) -> List[Dict[str, Any]]:
        """The most recent ``n`` events (all retained events when ``None``),
        oldest first."""
        events = list(self._ring)
        return events if n is None else events[len(events) - min(n, len(events)):]

    def clear(self) -> None:
        self._ring.clear()


_lock = threading.Lock()
_seq = 0
_recorder = FlightRecorder()
_subscribers: List[Callable[[Dict[str, Any]], None]] = []
_taps = 0  # live readers without a callback (the exposition server)


def flight_recorder() -> FlightRecorder:
    """The process-wide flight recorder (always recording)."""
    return _recorder


def last_seq() -> int:
    """The sequence number of the most recently emitted event (0 if none)."""
    return _seq


def reset_events(capacity: Optional[int] = None) -> None:
    """Clear the ring and restart sequence numbering (CLI entry / tests).

    ``capacity`` replaces the ring bound; omitted, the current environment
    default applies.  Subscribers are *kept* — the caller that attached a
    sink owns its lifecycle.
    """
    global _seq, _recorder
    with _lock:
        _seq = 0
        _recorder = FlightRecorder(capacity)


def subscribe(consumer: Callable[[Dict[str, Any]], None]) -> None:
    """Deliver every future event to ``consumer`` (idempotent)."""
    with _lock:
        if consumer not in _subscribers:
            _subscribers.append(consumer)


def unsubscribe(consumer: Callable[[Dict[str, Any]], None]) -> None:
    """Stop delivering events to ``consumer`` (a no-op if unknown)."""
    with _lock:
        try:
            _subscribers.remove(consumer)
        except ValueError:
            pass


def add_tap() -> None:
    """Mark a live ring reader (the exposition server) as attached —
    makes :func:`live` true so throttled producers start emitting."""
    global _taps
    with _lock:
        _taps += 1


def remove_tap() -> None:
    global _taps
    with _lock:
        _taps = max(0, _taps - 1)


def live() -> bool:
    """Whether anything is consuming events beyond the flight recorder.

    Chatty producers (the per-expansion exploration ticker) check this
    once per phase and stay silent when false, so a bare library call
    pays nothing for the event layer's existence.
    """
    return bool(_subscribers) or _taps > 0


def emit(kind, /, **data: Any) -> Dict[str, Any]:
    """Emit one event: stamp it, ring it, fan it out to subscribers.

    ``kind`` is an :class:`EventKind` (or its name); names outside
    :data:`CATALOGUE` raise ``ValueError`` — the bus is typed.  Returns
    the emitted event dict.  A subscriber that raises is skipped for this
    event; emission never propagates consumer failures into the engine.
    """
    global _seq
    name = kind.name if isinstance(kind, EventKind) else kind
    if name not in CATALOGUE:
        raise ValueError(f"unknown event kind {name!r} (not in the catalogue)")
    with _lock:
        _seq += 1
        event = {
            "v": EVENT_VERSION,
            "seq": _seq,
            "ts": time.time(),
            "mono": time.monotonic(),
            "event": name,
            "data": data,
        }
        _recorder.append(event)
        consumers = tuple(_subscribers)
    for consumer in consumers:
        try:
            consumer(event)
        except Exception:
            pass
    return event


# -- throttled producers --------------------------------------------------


class RoundTicker:
    """Per-BFS-round ``explore.round`` emitter, interval throttled.

    Always on: rounds are orders of magnitude rarer than expansions, so
    one clock read per round keeps the flight recorder current for
    postmortems without measurable cost.  The first round of a phase is
    always emitted.
    """

    __slots__ = ("_last",)

    def __init__(self) -> None:
        self._last: Optional[float] = None

    def tick(
        self,
        round_depth: int,
        pending: int,
        states: int,
    ) -> None:
        now = time.monotonic()
        if self._last is not None and now - self._last < ROUND_INTERVAL_S:
            return
        self._last = now
        emit(
            EXPLORE_ROUND,
            round=round_depth,
            pending=pending,
            states=states,
        )


def round_ticker() -> RoundTicker:
    """A fresh per-round emitter for one exploration."""
    return RoundTicker()


class ExplorationEventObserver:
    """An :class:`~repro.ts.explore.ExplorationObserver` that turns the
    streaming callbacks into per-round ``explore.progress`` events.

    The PR 5 observer protocol fires ``on_state`` in discovery order with
    the BFS depth, so a depth increase is exactly a round boundary; this
    adaptor emits one summary event per round (plus a final one from
    :meth:`finish`).  Useful for library callers who want event-stream
    progress from a plain :func:`~repro.ts.explore.explore` call without
    enabling the CLI machinery; the explorer itself uses the cheaper
    round ticker above.
    """

    __slots__ = ("states", "transitions", "expanded", "depth", "_queued")

    def on_state(self, index: int, state, depth: int) -> None:
        if depth > self.depth:
            emit(
                EXPLORE_PROGRESS,
                states=self.states,
                queued=self.states - self.expanded,
                depth=self.depth,
            )
            self.depth = depth
        self.states += 1

    def on_transition(self, source: int, command, target: int) -> None:
        self.transitions += 1

    def on_expanded(self, index: int, enabled: frozenset) -> None:
        self.expanded += 1

    def __init__(self) -> None:
        self.states = 0
        self.transitions = 0
        self.expanded = 0
        self.depth = 0

    def finish(self) -> Dict[str, Any]:
        """Emit (and return) the final round's summary event."""
        return emit(
            EXPLORE_PROGRESS,
            states=self.states,
            queued=self.states - self.expanded,
            depth=self.depth,
        )
