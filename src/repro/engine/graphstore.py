"""Content-addressed incremental graph store (the disk cache, format v2).

The v1 disk cache (PR 2's ``engine/diskcache.py``) serialized each explored
:class:`~repro.ts.explore.ReachableGraph` as one whole-graph JSON document
keyed on the full canonical program text.  That shape has two costs that
dominate real re-verification traffic:

* a warm hit on a million-state family re-parses hundreds of megabytes of
  JSON and rebuilds every per-state/per-transition Python object;
* **any** one-line edit to the program changes the key and invalidates the
  entire entry — nothing is reused across near-identical programs.

This module replaces it with a content-addressed binary store:

**Chunks** — the graph's columns (interned state values, ``src``/``cmd``/
``dst`` transition columns, enabled bitmasks) are written as raw little
slabs of ``array('q')``/``array('Q')`` bytes, split every
:data:`chunk_words` 8-byte words, each chunk in a file named by the
SHA-256 of its contents (``chunk-<digest>.bin``).  Identical content is
stored once: two explorations that share column regions share chunk files,
so publishing a near-identical graph writes only the chunks that differ.

**Manifests** — a small JSON document per ``(program, bounds)`` key
(``manifest-<key>.json``) naming the chunk digests of every column plus the
program shape (variable names, command labels, per-command canonical
digests) and the frontier.  Manifests are written *after* every chunk they
reference (payload-before-manifest, the same publish discipline as the
shm columns' payload-then-length), and atomically (temp file +
``os.replace``), so a torn publish leaves at worst orphaned chunks — never
a manifest naming missing payload.

**Warm loads** are ``mmap``-backed: chunk files are memory-mapped and the
columns adopted directly into the compact column representation of
:class:`~repro.ts.explore.ReachableGraph` — no JSON parse, no
per-element copies (single-chunk columns are zero-copy ``memoryview``
casts over the mapping; multi-chunk columns are assembled with bulk
``frombytes`` concatenation).  State objects and the ``State → index``
map are materialized lazily, so a warm load of a million-state graph does
not construct a million :class:`ProgramState` objects up front.  Chunk
digests are re-verified against their filenames on load (disable with
``REPRO_GRAPHSTORE_VERIFY=0``); a truncated chunk, a digest mismatch, a
vanished chunk file or a torn manifest each degrade to a clean cache miss
— the store never yields a wrong graph.

**Incremental re-exploration** — when the exact key misses but a manifest
for the same *family* (program name, variable layout, bounds)
exists, the stored graph seeds re-exploration of the edited program.
Commands whose canonical per-command digest
(:func:`repro.gcl.compile.command_digest`) is unchanged have identical
guard/body semantics at every state, so for every state the base graph
fully expanded, their enabled bits and successor rows are replayed from
the mapped columns instead of re-evaluated; only edited/added commands run
their compiled guards and bodies.  The replay is the expand step of the
ordinary BFS (same interning, same budgets, same observer stream), so the result
is **bit-identical to a from-scratch exploration of the edited program**
— enforced by digest comparison in the differential tests and the E19
bench — while the follow-up publish reuses every chunk whose content
survived the edit.

Eviction (:func:`evict_cache`, CLI ``--cache-max-mb``) trims the
directory to a size budget in least-recently-used order over manifests;
chunks are reference-counted and deleted when their last manifest goes,
and loading a manifest mtime-touches its chunks so shared chunks of hot
graphs survive.  Unknown files in the cache directory (including the v1 cache's
whole-graph ``graph-*.json`` entries) are ignored, never fatal.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import tempfile
import time
from array import array
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.gcl.pretty import render_program
from repro.gcl.program import Program
from repro.gcl.state import ProgramState
from repro.telemetry import core as telemetry
from repro.telemetry import events

if False:  # typing only — ts.explore imports this package, keep it lazy
    from repro.ts.explore import ReachableGraph

#: On-disk format version.  v1 was the whole-graph JSON cache; its files
#: are never read.
FORMAT_VERSION = 2

#: Default chunk size, in 8-byte words (8 MiB chunks).  Small enough that
#: a single-command edit leaves most chunks byte-identical, large enough
#: that a million-state column is a handful of mappings.
DEFAULT_CHUNK_WORDS = 1 << 20

#: Chunks not referenced by any manifest are garbage-collected during
#: eviction, but only once they are at least this old — a concurrent
#: store publishes payload before manifest, so very fresh orphans may be
#: a publish in flight.
ORPHAN_GRACE_SECONDS = 60.0


def chunk_words() -> int:
    """The configured chunk size in 8-byte words.

    ``REPRO_GRAPHSTORE_CHUNK_WORDS`` overrides the default — the
    differential tests shrink it so tiny graphs exercise multi-chunk
    columns and chunk-level reuse.
    """
    raw = os.environ.get("REPRO_GRAPHSTORE_CHUNK_WORDS")
    if raw:
        try:
            value = int(raw)
            if value > 0:
                return value
        except ValueError:
            pass
    return DEFAULT_CHUNK_WORDS


def _verify_on_load() -> bool:
    return os.environ.get("REPRO_GRAPHSTORE_VERIFY") != "0"


# ---------------------------------------------------------------------------
# Keys
# ---------------------------------------------------------------------------


def exploration_cache_key(
    program: Program,
    max_states: Optional[int] = None,
    max_depth: Optional[int] = None,
) -> str:
    """The content hash naming this ``(program, bounds)`` exploration.

    Canonicalising through the pretty printer makes the key insensitive to
    whitespace/comment differences in the source text while remaining
    sensitive to any semantic change (different guard, bound, initial
    range, command order — all alter the rendering).  The job count is not
    part of the key: every job count explores the bit-identical graph.
    """
    canonical = render_program(program.ast)
    payload = json.dumps(
        {
            "format": FORMAT_VERSION,
            "program": canonical,
            "max_states": max_states,
            "max_depth": max_depth,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def family_key(
    program: Program,
    max_states: Optional[int] = None,
    max_depth: Optional[int] = None,
) -> str:
    """The hash naming the *family* an entry belongs to.

    Two program versions share a family when they agree on everything the
    incremental replay needs structurally — program name, variable layout
    (names in declaration order fix the value-tuple encoding) and bounds —
    while their command texts may differ.  An exact-key miss searches its
    family for a base graph to re-explore incrementally.
    """
    payload = json.dumps(
        {
            "format": FORMAT_VERSION,
            "program": program.name,
            "names": list(program.variable_names),
            "max_states": max_states,
            "max_depth": max_depth,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _manifest_path(cache_dir: os.PathLike, key: str) -> Path:
    return Path(cache_dir) / f"manifest-{key}.json"


def _chunk_path(cache_dir: os.PathLike, digest: str) -> Path:
    return Path(cache_dir) / f"chunk-{digest}.bin"


# ---------------------------------------------------------------------------
# Outcome reporting (bench/test introspection without telemetry)
# ---------------------------------------------------------------------------


@dataclass
class CacheOutcome:
    """What the last :func:`explore_with_cache` call in this process did.

    ``kind`` is one of ``"bypass"`` (no cache directory / uncacheable
    system), ``"hit"`` (warm mmap load), ``"incremental"`` (chunk-reusing re-exploration
    from a family base) or ``"cold"`` (full exploration).  The chunk
    counters describe the *publish* that followed a miss; ``reused_states``
    counts states whose expansion was replayed from the base graph.
    """

    kind: str = "bypass"
    chunks_total: int = 0
    chunks_reused: int = 0
    bytes_written: int = 0
    bytes_mapped: int = 0
    reused_states: int = 0
    fresh_states: int = 0


_LAST_OUTCOME = CacheOutcome()


def last_outcome() -> CacheOutcome:
    """The :class:`CacheOutcome` of the most recent cached exploration."""
    return _LAST_OUTCOME


@dataclass
class StoreReport:
    """Result of one :func:`store_graph` publish."""

    manifest: Path
    chunks_total: int = 0
    chunks_reused: int = 0
    bytes_written: int = 0
    column_digests: Dict[str, List[str]] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------


def _atomic_write_bytes(directory: Path, target: Path, payload) -> None:
    handle, temp_path = tempfile.mkstemp(
        dir=directory, prefix=".chunk-", suffix=".tmp"
    )
    try:
        with os.fdopen(handle, "wb") as stream:
            stream.write(payload)
        os.replace(temp_path, target)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


def _publish_column(
    directory: Path, raw: bytes, words: int, report: StoreReport
) -> List[str]:
    """Write ``raw`` as content-addressed chunks; returns the digest list.

    Chunks already present on disk are reused (and mtime-touched so they
    read as recently used); only missing content is written.
    """
    digests: List[str] = []
    view = memoryview(raw)
    step = words * 8
    for offset in range(0, len(view), step):
        chunk = view[offset : offset + step]
        digest = hashlib.sha256(chunk).hexdigest()
        digests.append(digest)
        report.chunks_total += 1
        target = _chunk_path(directory, digest)
        if target.exists():
            report.chunks_reused += 1
            telemetry.count("graphstore.chunk.hit")
            try:
                os.utime(target)
            except OSError:
                pass
            continue
        telemetry.count("graphstore.chunk.miss")
        _atomic_write_bytes(directory, target, chunk)
        report.bytes_written += len(chunk)
        telemetry.count("graphstore.bytes.written", len(chunk))
    return digests


def _graph_columns(graph: "ReachableGraph") -> Dict[str, bytes]:
    """The graph's storable columns as raw native-endian int64 bytes."""
    program = graph.system
    values = array("q")
    for state in graph.states:
        values.extend(state.values)
    src, cmd, dst = graph.transition_columns
    masks = graph.enabled_masks
    if not isinstance(masks, array):
        masks = array("Q", masks)  # raises OverflowError for >64-bit masks
    return {
        "states": values.tobytes(),
        "src": bytes(src.tobytes() if hasattr(src, "tobytes") else src),
        "cmd": bytes(cmd.tobytes() if hasattr(cmd, "tobytes") else cmd),
        "dst": bytes(dst.tobytes() if hasattr(dst, "tobytes") else dst),
        "masks": masks.tobytes(),
    }


def store_graph(
    graph: "ReachableGraph",
    cache_dir: os.PathLike,
    key: str,
    family: Optional[str] = None,
) -> StoreReport:
    """Publish ``graph`` under ``cache_dir`` as chunks + manifest.

    The graph's system must be a :class:`Program` with at most 64 commands
    (enabled masks are stored as one machine word per state).  Chunks are
    deduplicated against the existing store; the manifest is written last
    and atomically, so a reader never sees a manifest whose payload has
    not landed.  ``family`` (the :func:`family_key` of the exploration's
    bounds) marks the manifest as an incremental-base candidate for
    edited versions of the same program; entries stored without one are
    still perfectly good exact-key hits.
    """
    program = graph.system
    if not isinstance(program, Program):
        raise TypeError(
            f"only Program graphs are cacheable, got {type(program).__name__}"
        )
    if len(program.commands()) > 64:
        raise ValueError(
            "graphs over programs with more than 64 commands are not "
            "storable (enabled masks exceed one machine word)"
        )
    directory = Path(cache_dir)
    directory.mkdir(parents=True, exist_ok=True)
    target = _manifest_path(directory, key)
    report = StoreReport(manifest=target)
    words = chunk_words()
    columns = _graph_columns(graph)
    column_digests = {
        name: _publish_column(directory, raw, words, report)
        for name, raw in columns.items()
    }
    report.column_digests = column_digests
    manifest = {
        "format": FORMAT_VERSION,
        "key": key,
        "family": family,
        "program": program.name,
        "names": list(program.variable_names),
        "commands": list(graph.command_table.labels),
        "command_digests": program.command_digests(),
        "byteorder": _BYTEORDER,
        "chunk_words": words,
        "n_states": len(graph),
        "width": len(program.variable_names),
        "n_transitions": len(graph.transition_columns[0]),
        "initial_count": len(graph.initial_indices),
        "frontier": sorted(graph.frontier),
        "columns": column_digests,
    }
    handle, temp_path = tempfile.mkstemp(
        dir=directory, prefix=".manifest-", suffix=".tmp"
    )
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as stream:
            json.dump(manifest, stream, separators=(",", ":"))
        os.replace(temp_path, target)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise
    telemetry.count("graphstore.store")
    return report


import sys as _sys

_BYTEORDER = _sys.byteorder


# ---------------------------------------------------------------------------
# Load
# ---------------------------------------------------------------------------


class ValueColumnStates(Sequence):
    """Lazy :class:`ProgramState` sequence over a flat int64 value column.

    The column is the mmap-backed (or bulk-assembled) state-values buffer
    of a stored graph: ``width`` words per state, states in discovery
    order.  Indexing materializes a fresh state on demand, so a warm load
    never constructs a million state objects up front; consumers that do
    touch every state (digesting, reports) pay construction exactly where
    the eager representation did.
    """

    __slots__ = ("_names", "_width", "_column", "_n")

    def __init__(self, names: Tuple[str, ...], column, n: int) -> None:
        self._names = names
        self._width = len(names)
        self._column = column
        self._n = n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, item):
        if isinstance(item, slice):
            return tuple(self._make(i) for i in range(self._n)[item])
        return self._make(range(self._n)[item])

    def _make(self, i: int) -> ProgramState:
        w = self._width
        return ProgramState(
            self._names, tuple(self._column[i * w : (i + 1) * w])
        )

    def __iter__(self):
        names = self._names
        w = self._width
        column = self._column
        for i in range(self._n):
            yield ProgramState(names, tuple(column[i * w : (i + 1) * w]))

    def __repr__(self) -> str:
        return f"<ValueColumnStates of {self._n} states>"


def _miss(corrupt: bool = False) -> None:
    telemetry.count("graphstore.miss")
    if corrupt:
        telemetry.count("graphstore.corrupt")


def _read_manifest(path: Path) -> Optional[dict]:
    """Parse a manifest file; ``None`` (plus counters) on any problem."""
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError:
        _miss()
        return None
    try:
        payload = json.loads(raw)
    except ValueError:
        # Present but unparseable: torn or corrupt manifest.
        _miss(corrupt=True)
        return None
    if not isinstance(payload, dict):
        _miss(corrupt=True)
        return None
    return payload


class _MappedColumns:
    """All of one manifest's columns, memory-mapped and size/digest-checked.

    ``None``-returning constructor wrapper :meth:`open` is the public
    face: any missing, truncated or corrupted chunk — including one that
    vanished between the manifest read and the mmap (an eviction race) —
    makes the whole load a clean miss.
    """

    __slots__ = ("columns", "mapped_bytes", "sources", "_mmaps")

    def __init__(self) -> None:
        self.columns: Dict[str, object] = {}
        self.mapped_bytes = 0
        #: ``column name → (path, words, typecode)`` for columns mapped
        #: zero-copy from a single chunk file — the verification plane
        #: adopts these by path so pool workers mmap the chunk themselves
        #: instead of receiving a shared-memory copy.
        self.sources: Dict[str, Tuple[str, int, str]] = {}
        self._mmaps: List[mmap.mmap] = []

    @classmethod
    def open(
        cls, directory: Path, manifest: dict
    ) -> Optional["_MappedColumns"]:
        verify = _verify_on_load()
        loaded = cls()
        try:
            words = int(manifest["chunk_words"])
            n = int(manifest["n_states"])
            width = int(manifest["width"])
            m = int(manifest["n_transitions"])
            if words <= 0 or n < 0 or width < 0 or m < 0:
                raise ValueError("negative geometry")
            if manifest.get("byteorder") != _BYTEORDER:
                raise ValueError("byte order mismatch")
            expected = {
                "states": n * width,
                "src": m,
                "cmd": m,
                "dst": m,
                "masks": n,
            }
            for name, total_words in expected.items():
                digests = manifest["columns"][name]
                if not isinstance(digests, list):
                    raise ValueError("chunk list is not a list")
                typecode = "Q" if name == "masks" else "q"
                loaded.columns[name] = loaded._map_column(
                    directory, digests, total_words, words, typecode, verify,
                )
                if len(digests) == 1 and isinstance(
                    loaded.columns[name], memoryview
                ):
                    # Single-chunk zero-copy column: its bytes are exactly
                    # one immutable content-addressed file, adoptable by
                    # path (verification-plane workers mmap it directly).
                    loaded.sources[name] = (
                        str(_chunk_path(directory, digests[0])),
                        total_words,
                        typecode,
                    )
        except (KeyError, TypeError, ValueError, IndexError):
            loaded.close()
            return None
        except OSError:
            # A chunk vanished (eviction race) or could not be mapped.
            loaded.close()
            return None
        return loaded

    @staticmethod
    def _discard_corrupt(path: Path, digest: str) -> None:
        """Unlink a chunk whose content provably does not hash to its
        name, so the next store republishes correct bytes instead of
        dedup-trusting the corrupt file.  A chunk that *does* hash to
        its name is kept: the manifest, not the chunk, is the liar, and
        the chunk may be shared with healthy manifests."""
        try:
            if hashlib.sha256(path.read_bytes()).hexdigest() != digest:
                path.unlink()
        except OSError:
            pass

    def _map_column(
        self,
        directory: Path,
        digests: List[str],
        total_words: int,
        words_per_chunk: int,
        typecode: str,
        verify: bool,
    ):
        """One column from its chunk files; raises on any inconsistency."""
        expected_chunks = (
            (total_words + words_per_chunk - 1) // words_per_chunk
            if total_words
            else 0
        )
        if len(digests) != expected_chunks:
            raise ValueError("chunk count disagrees with geometry")
        if not digests:
            return array(typecode)
        buffers: List[mmap.mmap] = []
        remaining = total_words
        for digest in digests:
            if not isinstance(digest, str):
                raise ValueError("chunk digest is not a string")
            chunk_bytes = min(words_per_chunk, remaining) * 8
            remaining -= chunk_bytes // 8
            path = _chunk_path(directory, digest)
            with open(path, "rb") as handle:
                size = os.fstat(handle.fileno()).st_size
                if size != chunk_bytes:
                    self._discard_corrupt(path, digest)
                    raise ValueError(
                        f"chunk {digest[:12]} truncated "
                        f"({size} bytes, expected {chunk_bytes})"
                    )
                mapped = mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                )
            buffers.append(mapped)
            self._mmaps.append(mapped)
            self.mapped_bytes += size
            if verify and hashlib.sha256(mapped).hexdigest() != digest:
                self._discard_corrupt(path, digest)
                raise ValueError(f"chunk {digest[:12]} digest mismatch")
        if len(buffers) == 1:
            # Zero-copy: the column *is* the mapping.
            return memoryview(buffers[0]).cast(typecode)
        column = array(typecode)
        for mapped in buffers:
            column.frombytes(mapped)
        return column

    def close(self) -> None:
        # Mappings still referenced by zero-copy memoryviews stay alive
        # (and mapped) until the views are garbage collected; close the
        # rest eagerly.
        for mapped in self._mmaps:
            try:
                mapped.close()
            except (BufferError, ValueError):
                pass
        self._mmaps = []


def _touch_entry(directory: Path, path: Path, manifest: dict) -> None:
    """LRU-touch a manifest *and its chunks* so shared chunks of hot
    graphs survive eviction; races with eviction are harmless (the next
    load is a miss and re-explores)."""
    for target in [path] + [
        _chunk_path(directory, digest)
        for digests in manifest.get("columns", {}).values()
        if isinstance(digests, list)
        for digest in digests
        if isinstance(digest, str)
    ]:
        try:
            os.utime(target)
        except OSError:
            pass


def load_cached_graph(
    program: Program,
    cache_dir: os.PathLike,
    key: str,
) -> Optional["ReachableGraph"]:
    """Reload a stored exploration of ``program``; ``None`` on any miss.

    The warm path memory-maps the chunk files and adopts the columns
    directly into the compact graph representation — states and the
    ``State → index`` map materialize lazily on first object-level access.
    """
    from repro.ts.explore import ReachableGraph

    directory = Path(cache_dir)
    path = _manifest_path(directory, key)
    manifest = _read_manifest(path)
    if manifest is None:
        return None
    try:
        if manifest["format"] != FORMAT_VERSION or manifest["key"] != key:
            _miss()
            return None
        names = tuple(manifest["names"])
        labels = tuple(manifest["commands"])
        if names != program.variable_names or labels != program.commands():
            _miss()
            return None
        n = int(manifest["n_states"])
        initial_count = int(manifest["initial_count"])
        frontier = [int(i) for i in manifest["frontier"]]
        if not 0 <= initial_count <= n:
            raise ValueError("initial count out of range")
        if any(not 0 <= i < n for i in frontier):
            raise ValueError("frontier index out of range")
    except (KeyError, TypeError, ValueError):
        _miss(corrupt=True)
        return None
    mapped = _MappedColumns.open(directory, manifest)
    if mapped is None:
        _miss(corrupt=True)
        return None
    telemetry.count("graphstore.bytes.mapped", mapped.mapped_bytes)
    _touch_entry(directory, path, manifest)
    states = ValueColumnStates(names, mapped.columns["states"], n)
    graph = ReachableGraph.from_arrays(
        system=program,
        states=states,
        labels=list(labels),
        src=mapped.columns["src"],
        cmd=mapped.columns["cmd"],
        dst=mapped.columns["dst"],
        enabled_masks=mapped.columns["masks"],
        initial_count=initial_count,
        frontier=frontier,
        index=None,
    )
    graph.column_files = dict(mapped.sources)
    telemetry.count("graphstore.hit")
    global _LAST_OUTCOME
    _LAST_OUTCOME = CacheOutcome(
        kind="hit", bytes_mapped=mapped.mapped_bytes
    )
    return graph


# ---------------------------------------------------------------------------
# Incremental re-exploration
# ---------------------------------------------------------------------------


class _IncrementalBase:
    """A family base graph's columns, indexed for expansion replay."""

    __slots__ = (
        "names",
        "labels",
        "label_ids",
        "command_digests",
        "masks",
        "frontier",
        "n",
        "width",
        "_states_col",
        "_cmd",
        "_dst",
        "_out_start",
        "_out_eid",
        "_value_index",
        "_state_memo",
        "mapped_bytes",
    )

    def __init__(self, manifest: dict, mapped: _MappedColumns) -> None:
        self.names = tuple(manifest["names"])
        self.labels = tuple(manifest["commands"])
        self.label_ids = {label: k for k, label in enumerate(self.labels)}
        self.command_digests = dict(manifest["command_digests"])
        self.masks = mapped.columns["masks"]
        self.frontier = frozenset(int(i) for i in manifest["frontier"])
        self.n = int(manifest["n_states"])
        self.width = int(manifest["width"])
        self._states_col = mapped.columns["states"]
        self._cmd = mapped.columns["cmd"]
        self._dst = mapped.columns["dst"]
        self.mapped_bytes = mapped.mapped_bytes
        src = mapped.columns["src"]
        # CSR over the base transitions: a source's recorded successors,
        # in their original (declaration-order-interleaved) order.
        counts = [0] * (self.n + 1)
        for s in src:
            counts[s + 1] += 1
        for i in range(self.n):
            counts[i + 1] += counts[i]
        out_start = array("q", counts)
        out_eid = array("q", bytes(8 * len(src)))
        cursor = list(out_start[: self.n])
        for eid in range(len(src)):
            s = src[eid]
            out_eid[cursor[s]] = eid
            cursor[s] += 1
        self._out_start = out_start
        self._out_eid = out_eid
        # Value-tuple → base index: the one eager pass over the state
        # column (interning-scale work; what it buys is skipping every
        # unchanged command's guard and body at every replayed state).
        width = self.width
        column = self._states_col
        self._value_index = {
            tuple(column[i * width : (i + 1) * width]): i
            for i in range(self.n)
        }
        self._state_memo: Dict[int, ProgramState] = {}

    def lookup(self, values: tuple) -> Optional[int]:
        return self._value_index.get(values)

    def state_of(self, index: int) -> ProgramState:
        state = self._state_memo.get(index)
        if state is None:
            w = self.width
            state = ProgramState(
                self.names,
                tuple(self._states_col[index * w : (index + 1) * w]),
            )
            self._state_memo[index] = state
        return state

    def posts_by_command(self, index: int) -> Dict[int, List[int]]:
        """Base successors of ``index`` grouped by command id, in order."""
        groups: Dict[int, List[int]] = {}
        cmd = self._cmd
        dst = self._dst
        for eid in self._out_eid[
            self._out_start[index] : self._out_start[index + 1]
        ]:
            groups.setdefault(cmd[eid], []).append(dst[eid])
        return groups


class _IncrementalReuse:
    """Expansion of an edited program, replaying a base graph's columns.

    For every state the base fully expanded, unchanged commands (equal
    canonical digest) contribute their enabled bit and successor rows
    straight from the stored columns; edited or added commands evaluate
    their compiled guard/body.  The assembled ``(enabled, posts)`` is —
    command by command, post by post — exactly what
    :meth:`Program._compute_expansion` would produce, which is the whole
    bit-identity argument: the surrounding BFS is the stock explorer.
    """

    __slots__ = ("_program", "_base", "_plan", "_names", "reused", "fresh")

    def __init__(self, program: Program, base: _IncrementalBase) -> None:
        compiled = program._compiled
        if compiled is None:
            raise ValueError("incremental replay needs a compiled program")
        digests = program.command_digests()
        self._program = program
        self._base = base
        self._names = program.variable_names
        # Per new command, in declaration order: (label, base command id
        # when the command is unchanged and replayable, compiled command).
        plan = []
        for command in compiled.commands:
            label = command.label
            base_id = base.label_ids.get(label)
            unchanged = (
                base_id is not None
                and base.command_digests.get(label) == digests[label]
            )
            plan.append((label, base_id if unchanged else None, command))
        self._plan = tuple(plan)
        self.reused = 0
        self.fresh = 0

    def replayable(self) -> int:
        """How many commands replay from the base (0 = nothing shared)."""
        return sum(1 for _, base_id, _ in self._plan if base_id is not None)

    def expand(self, state: ProgramState):
        base = self._base
        values = state.values
        index = base.lookup(values)
        if index is None or index in base.frontier:
            # Unknown to the base, or known but never fully expanded
            # there: evaluate everything (through the program's ordinary
            # successor cache).
            self.fresh += 1
            return self._program.expand(state)
        self.reused += 1
        mask = base.masks[index]
        groups = base.posts_by_command(index)
        names = self._names
        enabled: List[str] = []
        posts: List[Tuple[str, ProgramState]] = []
        for label, base_id, command in self._plan:
            if base_id is not None:
                if (mask >> base_id) & 1:
                    enabled.append(label)
                    for target in groups.get(base_id, ()):
                        posts.append((label, base.state_of(target)))
            elif command.guard(values):
                enabled.append(label)
                for post in command.execute(values):
                    posts.append((label, ProgramState(names, post)))
        return frozenset(enabled), tuple(posts)

    def enabled(self, state: ProgramState) -> frozenset:
        """Guards-only query (frontier states): base bits for unchanged
        commands — valid even for base-frontier states, whose stored
        masks are guards-only — fresh guards for the rest."""
        base = self._base
        values = state.values
        index = base.lookup(values)
        if index is None:
            return self._program.enabled(state)
        mask = base.masks[index]
        enabled = []
        for label, base_id, command in self._plan:
            if base_id is not None:
                if (mask >> base_id) & 1:
                    enabled.append(label)
            elif command.guard(values):
                enabled.append(label)
        return frozenset(enabled)


def find_incremental_base(
    program: Program,
    cache_dir: os.PathLike,
    max_states: Optional[int] = None,
    max_depth: Optional[int] = None,
) -> Optional[_IncrementalBase]:
    """The freshest same-family manifest sharing ≥1 command digest, mapped.

    ``None`` when no family sibling exists, none shares a command with the
    edited program, or the best candidate fails to map cleanly (its miss
    is as quiet as any other — the caller just explores from scratch).
    """
    directory = Path(cache_dir)
    family = family_key(program, max_states, max_depth)
    digests = program.command_digests()
    best: Optional[Tuple[float, str, Path, dict]] = None
    try:
        candidates = sorted(directory.glob("manifest-*.json"))
    except OSError:
        return None
    for path in candidates:
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
        if not isinstance(payload, dict):
            continue
        if payload.get("format") != FORMAT_VERSION:
            continue
        if payload.get("family") != family:
            continue
        try:
            if tuple(payload["names"]) != program.variable_names:
                continue
            shared = sum(
                1
                for label, digest in payload["command_digests"].items()
                if digests.get(label) == digest
            )
        except (KeyError, TypeError, AttributeError):
            continue
        if shared == 0:
            continue
        try:
            mtime = path.stat().st_mtime
        except OSError:
            continue
        rank = (mtime, path.name)
        if best is None or rank > (best[0], best[1]):
            best = (mtime, path.name, path, payload)
    if best is None:
        return None
    _, _, path, payload = best
    mapped = _MappedColumns.open(directory, payload)
    if mapped is None:
        return None
    try:
        base = _IncrementalBase(payload, mapped)
    except (KeyError, TypeError, ValueError, IndexError):
        mapped.close()
        return None
    telemetry.count("graphstore.bytes.mapped", mapped.mapped_bytes)
    return base


def explore_incremental(
    program: Program,
    base: _IncrementalBase,
    max_states: Optional[int] = None,
    max_depth: Optional[int] = None,
    strict: bool = False,
) -> Optional["ReachableGraph"]:
    """Re-explore ``program`` replaying unchanged commands from ``base``.

    Runs the stock BFS with the replaying expander as its expand step
    (:class:`~repro.ts.explore.StateStep`), so budgets,
    strictness, frontier semantics and the event stream are exactly those
    of :func:`repro.ts.explore.explore`; the result is bit-identical to a
    from-scratch exploration of ``program``.  ``None`` when the program
    cannot replay (interpreted evaluation — no compiled commands).
    """
    from repro.ts.explore import StateStep, _explore_rounds

    program.validate_commands()
    try:
        reuse = _IncrementalReuse(program, base)
    except ValueError:
        return None
    if not reuse.replayable():
        return None
    with telemetry.span(
        "explore", system=program.name, incremental=True
    ) as span:
        graph = _explore_rounds(
            program,
            StateStep(reuse.expand, reuse.enabled),
            max_states,
            max_depth,
            strict,
        )
        telemetry.count("graphstore.incremental.runs")
        telemetry.count("graphstore.incremental.reused_states", reuse.reused)
        telemetry.count("graphstore.incremental.fresh_states", reuse.fresh)
        span.set("states", len(graph))
        span.set("reused_states", reuse.reused)
    global _LAST_OUTCOME
    _LAST_OUTCOME = CacheOutcome(
        kind="incremental",
        bytes_mapped=base.mapped_bytes,
        reused_states=reuse.reused,
        fresh_states=reuse.fresh,
    )
    return graph


# ---------------------------------------------------------------------------
# Eviction
# ---------------------------------------------------------------------------


def evict_cache(
    cache_dir: os.PathLike,
    max_mb: Optional[float],
) -> List[Path]:
    """Trim the cache directory to ``max_mb`` megabytes, LRU first.

    Everything the store may contain counts toward the budget: manifests,
    the chunks they reference and orphaned chunks.  Eviction removes whole
    entries oldest-mtime-first
    (loads touch the mtimes of a manifest and its chunks, so mtime order
    is recency order); a manifest's chunks are deleted when their last
    referencing manifest goes.  Orphaned chunks older than
    :data:`ORPHAN_GRACE_SECONDS` are garbage-collected first — younger
    ones may be a payload-before-manifest publish still in flight.
    Unknown files are ignored; files that vanish mid-scan are skipped, so
    concurrent evictions never crash.  Returns the paths removed.
    ``max_mb=None`` is a no-op (unbounded cache, the default).
    """
    if max_mb is None:
        return []
    budget = int(max_mb * 1024 * 1024)
    directory = Path(cache_dir)
    manifests: List[Tuple[float, str, Path, int, List[str]]] = []
    chunk_sizes: Dict[str, int] = {}
    chunk_mtimes: Dict[str, float] = {}
    refs: Dict[str, set] = {}
    total = 0
    try:
        listing = list(directory.iterdir())
    except OSError:
        return []
    for path in listing:
        name = path.name
        try:
            stat = path.stat()
        except OSError:
            continue  # vanished under us — somebody else's eviction
        if name.startswith("manifest-") and name.endswith(".json"):
            digests: List[str] = []
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
                for column in payload.get("columns", {}).values():
                    if isinstance(column, list):
                        digests.extend(
                            d for d in column if isinstance(d, str)
                        )
            except (OSError, ValueError, AttributeError):
                digests = []  # corrupt manifest: ordinary victim, no refs
            manifests.append(
                (stat.st_mtime, name, path, stat.st_size, digests)
            )
            for digest in digests:
                refs.setdefault(digest, set()).add(name)
            total += stat.st_size
        elif name.startswith("chunk-") and name.endswith(".bin"):
            digest = name[len("chunk-") : -len(".bin")]
            chunk_sizes[digest] = stat.st_size
            chunk_mtimes[digest] = stat.st_mtime
            total += stat.st_size
        # Anything else (temp files, user debris) is not ours to delete.

    removed: List[Path] = []

    def _remove(path: Path, size: int) -> None:
        nonlocal total
        try:
            path.unlink()
        except FileNotFoundError:
            pass  # already gone — still no longer occupies the budget
        except OSError:
            return  # undeletable: leave it, keep trimming others
        total -= size
        removed.append(path)
        telemetry.count("graphstore.evict")
        telemetry.count("graphstore.bytes.evicted", size)

    if total <= budget:
        return removed

    # Orphaned chunks first: referenced by no manifest, old enough that
    # they cannot be a publish in flight.
    now = time.time()
    for digest, size in sorted(chunk_sizes.items()):
        if total <= budget:
            break
        if refs.get(digest):
            continue
        if now - chunk_mtimes[digest] < ORPHAN_GRACE_SECONDS:
            continue
        _remove(_chunk_path(directory, digest), size)

    manifests.sort()  # oldest first; name breaks mtime ties deterministically
    for _, name, path, size, digests in manifests:
        if total <= budget:
            break
        _remove(path, size)
        for digest in digests:
            holders = refs.get(digest)
            if holders is not None:
                holders.discard(name)
                if holders:
                    continue
            chunk_size = chunk_sizes.get(digest)
            if chunk_size is None:
                continue  # referenced but never existed (torn publish)
            _remove(_chunk_path(directory, digest), chunk_size)
            del chunk_sizes[digest]
    return removed


# ---------------------------------------------------------------------------
# The cached exploration entry point
# ---------------------------------------------------------------------------


def explore_with_cache(
    program: Program,
    max_states: Optional[int] = None,
    max_depth: Optional[int] = None,
    cache_dir: Optional[os.PathLike] = None,
    strict: bool = False,
    n_jobs: Optional[int] = None,
    cache_max_mb: Optional[float] = None,
) -> Tuple["ReachableGraph", bool]:
    """``(graph, was_cache_hit)`` — explore, or reuse previous runs.

    With ``cache_dir=None`` this is plain
    :func:`~repro.ts.explore.explore`.  Otherwise, in order:

    1. an exact-key **manifest hit** memory-maps the stored columns and
       skips exploration entirely — whatever ``n_jobs`` the entry was
       published under, since every job count explores the same graph;
    2. a same-family manifest with shared command digests seeds
       **incremental re-exploration** — unchanged commands replay from
       the mapped base columns, edited ones re-evaluate — bit-identical
       to a cold run;
    3. otherwise a **cold** exploration runs.

    ``n_jobs`` is accepted for interface compatibility and ignored:
    exploration always runs in-process.

    Misses publish their result (chunks deduplicated against the store)
    and — when ``cache_max_mb`` is set — trim the cache LRU-first.
    Non-``Program`` systems and programs with more than 64 commands
    bypass the cache.

    Every resolution emits one ``graphstore.outcome`` event mirroring
    :func:`last_outcome` (kind + chunk accounting) on the structured bus.
    """
    result = _explore_with_cache(
        program,
        max_states=max_states,
        max_depth=max_depth,
        cache_dir=cache_dir,
        strict=strict,
        n_jobs=n_jobs,
        cache_max_mb=cache_max_mb,
    )
    events.emit(
        events.GRAPHSTORE_OUTCOME, hit=result[1], **asdict(_LAST_OUTCOME)
    )
    return result


def _explore_with_cache(
    program: Program,
    max_states: Optional[int] = None,
    max_depth: Optional[int] = None,
    cache_dir: Optional[os.PathLike] = None,
    strict: bool = False,
    n_jobs: Optional[int] = None,
    cache_max_mb: Optional[float] = None,
) -> Tuple["ReachableGraph", bool]:
    from repro.ts.explore import explore

    global _LAST_OUTCOME
    cacheable = (
        cache_dir is not None
        and isinstance(program, Program)
        and len(program.commands()) <= 64
    )
    if not cacheable:
        _LAST_OUTCOME = CacheOutcome(kind="bypass")
        return (
            explore(
                program,
                max_states=max_states,
                max_depth=max_depth,
                strict=strict,
                n_jobs=n_jobs,
            ),
            False,
        )
    key = exploration_cache_key(program, max_states, max_depth)
    cached = load_cached_graph(program, cache_dir, key)
    if cached is not None:
        return cached, True
    graph = None
    base = find_incremental_base(program, cache_dir, max_states, max_depth)
    if base is not None:
        graph = explore_incremental(
            program, base, max_states=max_states, max_depth=max_depth,
            strict=strict,
        )
    incremental = graph is not None
    if graph is None:
        graph = explore(
            program,
            max_states=max_states,
            max_depth=max_depth,
            strict=strict,
            n_jobs=n_jobs,
        )
    outcome = _LAST_OUTCOME if incremental else CacheOutcome(kind="cold")
    report = store_graph(
        graph,
        cache_dir,
        key,
        family=family_key(program, max_states, max_depth),
    )
    outcome.chunks_total = report.chunks_total
    outcome.chunks_reused = report.chunks_reused
    outcome.bytes_written = report.bytes_written
    _LAST_OUTCOME = outcome
    evict_cache(cache_dir, cache_max_mb)
    return graph, False
