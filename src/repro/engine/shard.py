"""The value-plane expand step of the one exploration loop.

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

Every round expands in-process, whatever ``n_jobs`` says: measured on a
2-core machine, fanning wide rounds out over the process pool was slower
than expanding them here.  The bit-identity argument lives with the merge
in :mod:`repro.ts.explore`.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Set

from repro.telemetry import core as telemetry


class ValuePlaneStep:
    """The expand step of a value-plane program: keys are value rows.

    Built by :meth:`prepare`; :func:`repro.ts.explore.explore` calls
    :meth:`expand` once per round.
    """

    name = "values"
    keys_are_states = False

    __slots__ = ("plane", "make_state", "enabled", "_expand_one")

    def __init__(self, system, plane) -> None:
        self.plane = plane
        self.make_state = plane.make_state
        self.enabled = system.enabled
        self._expand_one = plane.expand_values

    @classmethod
    def prepare(cls, system, plane) -> Optional["ValuePlaneStep"]:
        """The step, or ``None`` when the plane cannot carry ``system``:
        its command indices must be the system's label-table ids, and the
        initial states must be canonical rows of the plane."""
        if tuple(plane.labels) != tuple(system.commands()):
            return None
        names = plane.names
        for state in system.initial_states():
            if getattr(state, "names", None) != names:
                return None
        return cls(system, plane)

    @staticmethod
    def key_of(state) -> tuple:
        return state.values

    @staticmethod
    def bind(label_ids) -> List[int]:
        """Command id → label id: the identity (checked in :meth:`prepare`)."""
        return list(range(len(label_ids)))

    def expand(self, states, pending, want_masks: bool, index):
        """``(results, row_masks)`` for one round, in pending order.

        ``results[p]`` is ``(enabled mask, [(command id, successor row)])``
        for ``states[pending[p]]``.  ``row_masks`` maps the round's fresh
        successor rows to guards-only enabled masks when ``want_masks``
        (a streaming verifier primes itself from them), else ``None``.
        """
        rows = [states[i].values for i in pending]
        if len(rows) == 1:
            results = [self._expand_one(rows[0])]
        else:
            if telemetry.enabled():
                telemetry.count("batch.calls")
                telemetry.count("batch.rows", len(rows))
            results = self.plane.expand_batch(rows)
        row_masks = (
            _round_row_masks(self.plane, results, index) if want_masks else None
        )
        return results, row_masks


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
