"""Shared-memory arena: the zero-copy data plane of the verification fan-out.

The columnar verification plane
(:func:`repro.measures.verification._check_measure_plane`) checks a graph
whose hot tables are flat int arrays: the encoded stack columns, the
``src``/``cmd``/``dst`` transition columns and the enabled bitmasks.
This module publishes those columns as **named shared-memory segments**
so pool workers attach once and read them in place; a worker's task then
carries only the column manifest and an edge range.

Layout of one segment (all little-endian int64 words)::

    word 0   length    -- published element count (monotone, grows in place)
    word 1   capacity  -- allocated element count (fixed per segment)
    word 2   tag       -- arena tag (derived from the system digest); a
                          worker rejects a segment whose tag mismatches,
                          so stale or colliding names fail loudly
    word 3.. payload   -- ``capacity`` int64 elements

Columns are **append-only**: a sync publishes the suffix written since the
last sync and then bumps ``length`` — readers never observe a torn row.
Growth allocates a *new* segment (next generation, doubled capacity),
copies the payload, and unlinks the old one; workers notice the new name
in the round manifest and remap.

Lifecycle guarantees (the leak contract, enforced by tests and CI):

* the owning process unlinks every segment in a ``finally`` around the
  fan-out — normal exit and exceptions both reclaim;
* a module ``atexit`` hook unlinks any arena still alive at interpreter
  shutdown (belt and braces for callers that leak the object);
* if the coordinator dies hard (SIGKILL), the stdlib resource tracker it
  registered with at creation time reclaims the segments;
* workers only ever *attach*.  Python < 3.13 wrongly re-registers attached
  segments with the worker's resource tracker (bpo-39959), which would
  unlink them behind the owner's back when the worker exits — attachment
  here immediately unregisters, so worker death leaks nothing and kills
  nothing.
"""

from __future__ import annotations

import atexit
import hashlib
import mmap
import os
from array import array
from typing import Dict, List, Optional, Tuple

from repro.telemetry import core as telemetry

try:  # pragma: no cover - import guard for minimal builds
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover
    shared_memory = None
    resource_tracker = None

#: Prefix of every segment name this module creates; the CI leak check
#: scans ``/dev/shm`` for it after the test run.
SEGMENT_PREFIX = "repro-shm"

#: Header size, in int64 words, preceding the payload of every segment.
HEADER_WORDS = 3

_WORD = 8

#: Smallest payload capacity (elements) ever allocated; tiny columns grow
#: through the same doubling path as big ones.
MIN_CAPACITY = 1024


class ShmUnavailable(RuntimeError):
    """Shared memory cannot be used here (platform or sandbox limits)."""


def _arena_tag(seed: bytes) -> int:
    """A 63-bit tag derived from the arena's identity seed."""
    return int.from_bytes(hashlib.sha256(seed).digest()[:8], "little") >> 1


class ShmColumn:
    """One append-only int64 column, owner side."""

    __slots__ = ("key", "tag", "_prefix", "_generation", "segment", "_mv",
                 "capacity", "length")

    def __init__(self, prefix: str, key: str, tag: int,
                 capacity: int = MIN_CAPACITY) -> None:
        self.key = key
        self.tag = tag
        self._prefix = prefix
        self._generation = 0
        self.segment = None
        self._mv: Optional[memoryview] = None
        self.capacity = 0
        self.length = 0
        self._allocate(max(capacity, MIN_CAPACITY))

    @property
    def name(self) -> str:
        return self.segment.name

    def _allocate(self, capacity: int) -> None:
        if shared_memory is None:
            raise ShmUnavailable("multiprocessing.shared_memory unavailable")
        name = f"{self._prefix}.{self.key}.g{self._generation}"
        size = (HEADER_WORDS + capacity) * _WORD
        try:
            segment = shared_memory.SharedMemory(
                name=name, create=True, size=size
            )
        except (OSError, ValueError) as exc:
            raise ShmUnavailable(
                f"cannot create shared-memory segment {name!r}: {exc}"
            ) from exc
        mv = memoryview(segment.buf).cast("q")
        mv[0] = self.length
        mv[1] = capacity
        mv[2] = self.tag
        if self._mv is not None:
            # Growth: copy the already-published payload into the new
            # segment, then retire the old one.  Nothing reads the old
            # segment concurrently — syncs happen before the fan-out — and
            # even a worker still mapping it keeps a valid (stale) view
            # until it remaps; unlink only drops the name.
            old_mv, old_segment = self._mv, self.segment
            mv[HEADER_WORDS:HEADER_WORDS + self.length] = (
                old_mv[HEADER_WORDS:HEADER_WORDS + self.length]
            )
            old_mv.release()
            old_segment.close()
            old_segment.unlink()
        self.segment = segment
        self._mv = mv
        self.capacity = capacity
        self._generation += 1
        telemetry.count("shm.segments_created")

    def sync(self, source, length: Optional[int] = None) -> int:
        """Publish ``source[published:length]``; returns the bytes written.

        ``source`` is any int sequence sliceable to an ``array('q')`` —
        the coordinator's live column.  Only the unpublished suffix moves.
        ``length`` caps how far publication reaches (default: all of
        ``source``); columns whose tail is still provisional publish a
        final prefix.
        """
        total = len(source) if length is None else length
        new = total - self.length
        if new <= 0:
            return 0
        if total > self.capacity:
            capacity = self.capacity
            while capacity < total:
                capacity *= 2
            self._allocate(capacity)
        chunk = source[self.length:total]
        if not isinstance(chunk, array):
            chunk = array("q", chunk)
        payload = chunk.tobytes()
        raw = memoryview(self.segment.buf)
        start = (HEADER_WORDS + self.length) * _WORD
        raw[start:start + len(payload)] = payload
        self.length = total
        self._mv[0] = total  # publish after the payload is in place
        telemetry.count("shm.bytes_published", len(payload))
        return len(payload)

    def manifest(self) -> Tuple[str, int]:
        """``(segment_name, published_length)`` for worker tasks."""
        return self.segment.name, self.length

    def close(self, unlink: bool = True) -> None:
        if self.segment is None:
            return
        segment, self.segment = self.segment, None
        if self._mv is not None:
            self._mv.release()
            self._mv = None
        segment.close()
        if unlink:
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


_LIVE_ARENAS: List["ShmArena"] = []
_ARENA_SEQ = 0


class ShmArena:
    """A named family of :class:`ShmColumn` segments with one shared tag.

    Owner-side only.  ``close()`` is idempotent and unlinks everything;
    arenas still open at interpreter exit are reclaimed by the module
    ``atexit`` hook.
    """

    __slots__ = ("prefix", "tag", "_columns", "_closed")

    def __init__(self, seed: bytes) -> None:
        global _ARENA_SEQ
        if shared_memory is None:
            raise ShmUnavailable("multiprocessing.shared_memory unavailable")
        _ARENA_SEQ += 1
        self.prefix = f"{SEGMENT_PREFIX}-{os.getpid()}-{_ARENA_SEQ}"
        self.tag = _arena_tag(seed + self.prefix.encode("utf-8"))
        self._columns: Dict[str, ShmColumn] = {}
        self._closed = False
        _LIVE_ARENAS.append(self)

    def column(self, key: str, capacity: int = MIN_CAPACITY) -> ShmColumn:
        column = self._columns.get(key)
        if column is None:
            if self._closed:
                raise ShmUnavailable(f"arena {self.prefix} is closed")
            column = ShmColumn(self.prefix, key, self.tag, capacity)
            self._columns[key] = column
        return column

    def sync(self, key: str, source) -> int:
        """Publish the unpublished suffix of ``source`` under ``key``."""
        return self.column(key, capacity=len(source)).sync(source)

    def manifest(self) -> Dict[str, Tuple[str, int]]:
        """``key → (segment_name, length)`` of every published column."""
        return {key: col.manifest() for key, col in self._columns.items()}

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for column in self._columns.values():
            column.close(unlink=True)
        self._columns.clear()
        try:
            _LIVE_ARENAS.remove(self)
        except ValueError:  # pragma: no cover - already removed
            pass

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@atexit.register
def _close_live_arenas() -> None:  # pragma: no cover - interpreter teardown
    for arena in list(_LIVE_ARENAS):
        try:
            arena.close()
        except Exception:
            pass


# ---------------------------------------------------------------------------
# Worker side: attach-only views
# ---------------------------------------------------------------------------

#: Per-process attachment cache: ``column id → (name, segment, int64 view)``.
#: The column id is the segment name minus its generation suffix, so a
#: grown column (new name, same id) evicts its predecessor's mapping.
_ATTACHED: Dict[str, Tuple[str, object, memoryview]] = {}


def _column_id(name: str) -> str:
    return name.rsplit(".g", 1)[0]


def _attach_untracked(name: str):
    """Attach to an existing segment without resource-tracker registration.

    Python < 3.13 registers *attached* segments with the attaching
    process's resource tracker (bpo-39959).  Under ``spawn`` that tracker
    would unlink the coordinator's segment when the worker exits; under
    ``fork`` the tracker is shared, so the registration collapses with the
    owner's and a later owner unlink double-unregisters.  Either way the
    registration is wrong — only the creator owns cleanup — so it is
    suppressed for the duration of the attach.  (3.13+ has ``track=False``
    for exactly this; the monkeypatch is the documented pre-3.13 idiom.)
    """
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def attach_column(name: str, tag: int, min_length: int) -> memoryview:
    """Attach (or reuse) a published column; returns its full int64 view.

    The payload of element ``i`` lives at ``view[HEADER_WORDS + i]``.
    Raises :class:`ShmUnavailable` on any mismatch — wrong tag, or fewer
    published elements than the caller was promised — so a worker racing a
    stale manifest fails loudly instead of reading garbage.
    """
    if shared_memory is None:
        raise ShmUnavailable("multiprocessing.shared_memory unavailable")
    column_id = _column_id(name)
    cached = _ATTACHED.get(column_id)
    if cached is not None and cached[0] == name:
        view = cached[2]
    else:
        if cached is not None:
            cached[2].release()
            cached[1].close()
            del _ATTACHED[column_id]
            telemetry.count("shm.remaps")
        try:
            segment = _attach_untracked(name)
        except (OSError, ValueError) as exc:
            raise ShmUnavailable(
                f"cannot attach shared-memory segment {name!r}: {exc}"
            ) from exc
        view = memoryview(segment.buf).cast("q")
        _ATTACHED[column_id] = (name, segment, view)
        telemetry.count("shm.attaches")
    if view[2] != tag:
        raise ShmUnavailable(
            f"segment {name!r} has tag {view[2]}, expected {tag}"
        )
    if view[0] < min_length:
        raise ShmUnavailable(
            f"segment {name!r} publishes {view[0]} elements, "
            f"need {min_length}"
        )
    return view


#: Per-process cache of memory-mapped *file* columns (graph-store chunks
#: adopted by the verification plane): ``(path, typecode) → (mmap, view)``.
#: Chunk files are content-addressed and immutable, so a mapping never
#: goes stale; an evicted chunk stays readable through the live mapping.
_FILE_ATTACHED: Dict[Tuple[str, str], Tuple[mmap.mmap, memoryview]] = {}


def attach_file_column(path: str, words: int, typecode: str = "q") -> memoryview:
    """Memory-map a column file read-only; returns its typed payload view.

    The file-backed twin of :func:`attach_column` for columns that
    already live on disk (graph-store chunks): element ``i`` is
    ``view[i]`` — no header.  Raises :class:`ShmUnavailable` when the
    file is missing or shorter than the ``words`` the manifest promised,
    so a stale manifest fails loudly instead of reading garbage.
    """
    key = (path, typecode)
    cached = _FILE_ATTACHED.get(key)
    if cached is not None:
        view = cached[1]
    else:
        try:
            with open(path, "rb") as handle:
                mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError) as exc:
            raise ShmUnavailable(
                f"cannot map column file {path!r}: {exc}"
            ) from exc
        view = memoryview(mapped).cast(typecode)
        _FILE_ATTACHED[key] = (mapped, view)
        telemetry.count("shm.file_attaches")
    if len(view) < words:
        raise ShmUnavailable(
            f"column file {path!r} holds {len(view)} words, need {words}"
        )
    return view


@atexit.register
def detach_all() -> None:
    """Drop every cached attachment (shared-memory and file-backed).

    Runs at interpreter exit (releasing the exported memoryviews before
    ``SharedMemory.__del__`` would trip over them) and is callable from
    tests; harmless between fan-outs — the next attach re-maps.
    """
    for _, segment, view in _ATTACHED.values():
        view.release()
        segment.close()
    _ATTACHED.clear()
    for mapped, view in _FILE_ATTACHED.values():
        view.release()
        try:
            mapped.close()
        except (BufferError, ValueError):  # pragma: no cover - exported view
            pass
    _FILE_ATTACHED.clear()


def live_segment_names() -> List[str]:
    """Names of segments currently owned by live arenas (tests/CI)."""
    names: List[str] = []
    for arena in _LIVE_ARENAS:
        for column in arena._columns.values():
            if column.segment is not None:
                names.append(column.segment.name)
    return names
