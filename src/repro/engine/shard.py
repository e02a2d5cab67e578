"""The value-plane expand step, with pool fan-out for wide rounds.

:func:`repro.ts.explore.explore` runs one level-synchronous BFS for every
system; this module supplies its expand step for *value-plane* programs
(:meth:`~repro.ts.system.TransitionSystem.value_plane`: compiled, at least
one variable, at most 64 commands).  Their states travel as flat int64
value rows, and a round of pending rows expands through the batched guard
kernels (:meth:`~repro.gcl.compile.CompiledProgram.expand_batch`) — one
kernel call per guard per round instead of one closure call per guard per
state.  A single-row round skips the batch framing and calls
:meth:`~repro.gcl.compile.CompiledProgram.expand_values` directly, so
narrow BFS levels stay as cheap as a per-state loop.

A round fans out over the persistent worker pool only when
:func:`_round_dispatch` says so (``jobs > 1``, more than one core, at
least :data:`SHARD_ROUND_CUTOFF` pending states).  The value rows are
then published once through a shared-memory arena (:mod:`repro.engine.shm`)
and each worker task is just an index array; when shared memory is
unavailable the round runs in-process instead.  Where a row is expanded
never changes the merge order, so the graph is the same either way — the
bit-identity argument lives with the merge in :mod:`repro.ts.explore`.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from array import array
from typing import Dict, List, Optional, Set, Tuple

from repro.engine import shm
from repro.engine.parallel import _FORCE_ENV, parallel_map
from repro.telemetry import core as telemetry

#: Rounds with fewer pending states than this are expanded in-process: the
#: per-round pool round-trip costs more than expanding a narrow BFS level
#: locally.  ``REPRO_FORCE_PARALLEL=1`` overrides, so tests can push
#: single-state rounds through the pool.
SHARD_ROUND_CUTOFF = 2048

#: Worker-process cache of unpickled value planes, keyed by spec digest.
#: Workers are long-lived (the pool persists), so a multi-round
#: exploration — or a sequence of explorations of the same program —
#: unpickles the plane once.
_WORKER_SYSTEMS: Dict[str, object] = {}


def _shard_system(digest: str, spec: bytes):
    system = _WORKER_SYSTEMS.get(digest)
    if system is None:
        system = pickle.loads(spec)
        _WORKER_SYSTEMS[digest] = system
    return system


def _round_dispatch(jobs: int, pending_count: int) -> Tuple[int, str]:
    """Adaptive per-round dispatch (mirrors :func:`effective_jobs`).

    Narrow BFS levels, single-core machines and serial requests stay
    in-process — the "``--jobs N`` never loses" guarantee applies per
    round, since level widths vary wildly within one exploration.
    Returns ``(workers, reason)``; the reason labels the telemetry
    counter recording why a round stayed in-process.
    """
    if jobs <= 1 or pending_count == 0:
        return 1, "serial_request"
    if os.environ.get(_FORCE_ENV) == "1":
        return jobs, "forced"
    if (os.cpu_count() or 1) <= 1:
        return 1, "single_core"
    if pending_count < SHARD_ROUND_CUTOFF:
        return 1, "narrow_round"
    return jobs, "parallel"


class ValuePlaneStep:
    """The expand step of a value-plane program: keys are value rows.

    Built by :meth:`prepare`; :func:`repro.ts.explore.explore` calls
    :meth:`dispatch` and :meth:`expand` once per round and :meth:`close`
    when the exploration ends, however it ends (the shared-memory arena
    dies with the exploration).
    """

    name = "values"
    keys_are_states = False

    __slots__ = (
        "plane",
        "jobs",
        "make_state",
        "enabled",
        "_expand_one",
        "_spec",
        "_arena",
        "_values",
    )

    def __init__(self, system, plane, jobs: int) -> None:
        self.plane = plane
        self.jobs = jobs
        self.make_state = plane.make_state
        self.enabled = system.enabled
        self._expand_one = plane.expand_values
        #: ``(digest, pickled plane)`` once a round first fans out;
        #: ``False`` once the pool path proved unusable here.
        self._spec = None
        self._arena: Optional[shm.ShmArena] = None
        #: Flat mirror of every interned row, published to the arena.
        self._values = array("q")

    @classmethod
    def prepare(cls, system, plane, jobs: int) -> Optional["ValuePlaneStep"]:
        """The step, or ``None`` when the plane cannot carry ``system``:
        its command indices must be the system's label-table ids, and the
        initial states must be canonical rows of the plane."""
        if tuple(plane.labels) != tuple(system.commands()):
            return None
        names = plane.names
        for state in system.initial_states():
            if getattr(state, "names", None) != names:
                return None
        return cls(system, plane, jobs)

    @staticmethod
    def key_of(state) -> tuple:
        return state.values

    @staticmethod
    def bind(label_ids) -> List[int]:
        """Command id → label id: the identity (checked in :meth:`prepare`)."""
        return list(range(len(label_ids)))

    def dispatch(self, pending_count: int) -> Tuple[int, str]:
        """``(workers, reason)`` for a round of ``pending_count`` rows."""
        workers, reason = _round_dispatch(self.jobs, pending_count)
        if workers > 1 and not self._fan_out_ready():
            return 1, "shm_unavailable"
        return workers, reason

    def _fan_out_ready(self) -> bool:
        if self._spec is None:
            spec = self.plane.spec()
            if spec is None:
                self._spec = False
            else:
                digest = hashlib.sha256(spec).hexdigest()
                try:
                    self._arena = shm.ShmArena(digest.encode("utf-8"))
                    self._spec = (digest, spec)
                except shm.ShmUnavailable:
                    # No shared memory here (platform/sandbox): every
                    # round runs the batched kernels in-process instead.
                    self._spec = False
                    if telemetry.enabled():
                        telemetry.count("shm.unavailable")
        return bool(self._spec)

    def expand(self, states, pending, workers: int, want_masks: bool, index):
        """``(results, row_masks)`` for one round, in pending order.

        ``results[p]`` is ``(enabled mask, [(command id, successor row)])``
        for ``states[pending[p]]``.  ``row_masks`` maps the round's fresh
        successor rows to guards-only enabled masks when ``want_masks``
        (a streaming verifier primes itself from them), else ``None``.
        """
        rows = [states[i].values for i in pending]
        if workers > 1:
            values = self._values
            width = self.plane.width
            for state in states[len(values) // width:]:
                values.extend(state.values)
            digest, spec = self._spec
            results, row_masks = _expand_round_values_parallel(
                digest, spec, self._arena, width, values, pending, rows,
                workers, want_masks,
            )
        else:
            if len(rows) == 1:
                results = [self._expand_one(rows[0])]
            else:
                if telemetry.enabled():
                    telemetry.count("batch.calls")
                    telemetry.count("batch.rows", len(rows))
                results = self.plane.expand_batch(rows)
            row_masks = (
                _round_row_masks(self.plane, results, index)
                if want_masks
                else None
            )
        return results, row_masks

    def close(self) -> None:
        if self._arena is not None:
            self._arena.close()
            self._arena = None


def _round_row_masks(plane, round_results, values_index):
    """Guards-only masks for this round's genuinely-new successor rows.

    Deduplicates the round's post rows, drops already-interned ones (their
    enabled sets are recorded or primed by earlier rounds), and runs one
    :meth:`enabled_batch` over the rest.  Returns a row → plane-mask dict;
    empty when the plane declines (``enabled_batch`` returned ``None``, a
    guard raised somewhere) — the streaming verifier then derives those
    few masks serially, exactly as before priming existed.
    """
    fresh: List[tuple] = []
    seen: Set[tuple] = set()
    for _, posts in round_results:
        for _, row in posts:
            if row not in seen and row not in values_index:
                seen.add(row)
                fresh.append(row)
    if not fresh:
        return {}
    masks = plane.enabled_batch(fresh)
    if masks is None:
        return {}
    if telemetry.enabled():
        telemetry.count("stream.mask_batch_rows", len(fresh))
    return dict(zip(fresh, masks))


def _expand_round_values_parallel(
    digest, plane_spec, arena, width, values_col, pending, rows, workers,
    want_masks,
):
    """Fan one round out over the pool through the shared-memory arena.

    Publishes the value table (workers read their rows in place, by state
    index); each task carries only its shard's index array, and results
    come back as flat int arrays, reassembled here in pending order.

    With ``want_masks`` each worker also batches guards-only enabled
    masks for its deduplicated successor rows (the round's mask *delta*),
    and the second return value maps row → plane mask for the merge to
    prime a streaming verifier with.  Returns ``(results, row_masks)``
    where ``row_masks`` is ``None`` when masks were not requested.
    """
    shards: List[List[int]] = [[] for _ in range(workers)]
    for i, row in zip(pending, rows):
        shards[hash(row) % workers].append(i)
    occupied = [shard for shard in shards if shard]
    if telemetry.enabled():
        for shard in occupied:
            telemetry.observe("shard.shard_size", len(shard))
    arena.sync("values", values_col)
    name, _ = arena.column("values").manifest()
    tasks = [
        (
            digest,
            plane_spec,
            name,
            arena.tag,
            width,
            array("q", shard).tobytes(),
            want_masks,
        )
        for shard in occupied
    ]
    outs = parallel_map(_expand_shard_values, tasks, n_jobs=workers)

    per_state: Dict[int, tuple] = {}
    row_masks: Optional[Dict[tuple, int]] = {} if want_masks else None
    for shard, (masks, counts, cmds, refs, flat, tmasks) in zip(
        occupied, outs
    ):
        targets = [
            tuple(flat[r * width:(r + 1) * width])
            for r in range(len(flat) // width)
        ]
        if row_masks is not None and len(tmasks) == len(targets):
            # Empty ``tmasks`` (worker's plane declined the batch) simply
            # leaves that shard's rows unprimed — serial fallback covers.
            for r, target in enumerate(targets):
                row_masks[target] = tmasks[r]
        base = 0
        for offset, i in enumerate(shard):
            count = counts[offset]
            per_state[i] = (
                masks[offset],
                [
                    (cmds[base + p], targets[refs[base + p]])
                    for p in range(count)
                ],
            )
            base += count
    return [per_state[i] for i in pending], row_masks


def _expand_shard_values(task):
    """Expand one shard of a value-plane round (runs in a worker process).

    ``task`` is ``(digest, plane_spec, segment, tag, width, index_bytes,
    want_masks)``.  The worker attaches the published value column, reads
    its rows in place, runs the batched kernels, and returns flat arrays:
    ``(masks, post_counts, cmd_ids, target_refs, target_values,
    target_masks)`` with targets deduplicated per shard — cheap to
    pickle, decoded by the coordinator in merge order.
    ``target_masks`` carries one guards-only enabled mask per
    deduplicated target when the round wants mask deltas (and the plane
    can batch them); otherwise it is empty.
    """
    digest, plane_spec, segment, tag, width, index_bytes, want_masks = task
    plane = _shard_system(digest, plane_spec)
    indices = array("q")
    indices.frombytes(index_bytes)
    needed = (max(indices) + 1) * width if len(indices) else 0
    view = shm.attach_column(segment, tag, needed)
    base = shm.HEADER_WORDS
    rows = [
        tuple(view[base + i * width: base + (i + 1) * width])
        for i in indices
    ]
    telemetry.count("batch.calls")
    telemetry.count("batch.rows", len(rows))
    expansions = plane.expand_batch(rows)

    masks = array("Q", bytes(8 * len(rows)))
    counts = array("q", bytes(8 * len(rows)))
    cmds = array("q")
    refs = array("q")
    flat = array("q")
    ref_of: Dict[tuple, int] = {}
    for offset, (mask, posts) in enumerate(expansions):
        masks[offset] = mask
        counts[offset] = len(posts)
        for k, row in posts:
            ref = ref_of.get(row)
            if ref is None:
                ref = len(ref_of)
                ref_of[row] = ref
                flat.extend(row)
            cmds.append(k)
            refs.append(ref)

    tmasks = array("Q")
    if want_masks and ref_of:
        batch = getattr(plane, "enabled_batch", None)
        target_rows = list(ref_of)  # insertion order == ref order
        batched = batch(target_rows) if batch is not None else None
        if batched is not None:
            tmasks.extend(batched)
            telemetry.count("stream.mask_batch_rows", len(target_rows))
    return masks, counts, cmds, refs, flat, tmasks


def graph_digest(graph) -> str:
    """A canonical SHA-256 over everything observable about ``graph``.

    Covers states (in index order), transitions (in transition order, with
    command *labels*, not table ids), per-state enabled sets (sorted), the
    initial count and the frontier — i.e. exactly the bit-identity contract
    of exploration.  Two graphs digest equal iff the object-level
    fingerprints used by the differential tests are equal.
    """
    h = hashlib.sha256()

    def text(s: str) -> None:
        h.update(s.encode("utf-8"))
        h.update(b"\x00")

    text(f"n={len(graph)};init={len(graph.initial_indices)}")
    for state in graph.states:
        text(repr(state))
    labels = graph.command_table.labels
    src, cmds, dsts = graph.transition_columns
    h.update(src.tobytes())
    h.update(dsts.tobytes())
    for c in cmds:
        text(labels[c])
    table = graph.command_table
    for mask in graph.enabled_masks:
        text(",".join(sorted(table.labels_of_mask(mask))))
    text("frontier=" + ",".join(map(str, sorted(graph.frontier))))
    return h.hexdigest()
