"""Packed stack columns and the batched verification-condition kernel.

:func:`repro.measures.verification.check_measure` packs the per-state
stacks once into four parallel columns and checks every transition with
:func:`check_chunk_columns`, integer arithmetic over column slices in
place of two :class:`Stack` objects and two frozensets per transition:

``offsets``
    ``n_states + 1`` entries; state ``i``'s hypotheses occupy rows
    ``offsets[i]:offsets[i+1]`` (bottom-up, so row ``offsets[i]`` is the
    T-hypothesis).
``subject``
    per row, the hypothesis subject as an integer: :data:`T_SUBJECT`
    (``-1``) for the T-hypothesis, ``k`` for the ``k``-th entry of the
    *subject table* — the command table's labels under command fairness,
    the requirement names under generalized fairness — and ``n + k``
    for the ``k``-th interned stray subject, ``n`` the table's size
    (never a demanded or invalidated bit, so strays can be neither).  A
    table entry literally named ``"T"`` is the T-hypothesis's own
    subject: its rows encode as ``T_SUBJECT``, never active by demand
    and invalidated exactly when ``"T"`` is executed or fulfilled.
``value_id``
    per row, the measure value interned by ``==`` (``-1`` for a bare
    hypothesis).  Two rows carry equal values iff their ids are equal —
    exactly the entry-wise equality (V_NoC)'s
    :func:`~repro.measures.stack.stacks_equal_below` tests, because
    :class:`~repro.measures.hypotheses.Hypothesis` equality is ``==`` on
    the value.  (Like :meth:`WellFoundedOrder.ge`, this assumes ``≻``
    respects ``==``; every library order does.)
``rank``
    per row, the value itself when the order is
    :class:`~repro.wf.naturals.Naturals` / ``BoundedNaturals`` (where
    ``gt`` *is* ``>``) and every value lies within ±2⁶², so the decrease
    half of (V_A) is one integer compare.  Otherwise ``None``: the kernel
    then asks ``order.gt`` on the interned values, memoized per value-id
    pair (:func:`value_gt`).  The kernel never approximates the order.

All four columns are ``array('q')`` and publish through
:class:`repro.engine.shm.ShmArena` unchanged, so pool workers receive a
manifest and an edge range instead of pickled stacks.
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.measures.hypotheses import Hypothesis, TERMINATION
from repro.measures.stack import Stack
from repro.wf.base import WellFoundedOrder
from repro.wf.naturals import BoundedNaturals, Naturals

#: Ranks must survive the trip through an ``int64`` shared-memory word.
_RANK_LIMIT = 1 << 62

#: Subject sentinel for the T-hypothesis.
T_SUBJECT = -1

#: Value sentinel for a bare hypothesis (no measure attached).
BARE_VALUE = -1


class StackColumns:
    """The packed form of one assignment over one graph's states."""

    __slots__ = ("offsets", "subject", "value_id", "rank", "values", "labels")

    def __init__(
        self,
        offsets: array,
        subject: array,
        value_id: array,
        rank: Optional[array],
        values: List[object],
        labels: List[str],
    ) -> None:
        self.offsets = offsets
        self.subject = subject
        self.value_id = value_id
        self.rank = rank
        #: Interned measure values, decode-side only (workers never see them).
        self.values = values
        #: Subject id → label: the subject table, then the strays.
        self.labels = labels

    @property
    def n_states(self) -> int:
        return len(self.offsets) - 1

    def decode_stack(self, index: int) -> Stack:
        """Rebuild state ``index``'s :class:`Stack` (tests and diagnostics).

        Round-trip identity with the encoded stacks is a property test:
        the codec must lose nothing the level search observes.
        """
        lo, hi = self.offsets[index], self.offsets[index + 1]
        entries = []
        for row in range(lo, hi):
            sid = self.subject[row]
            label = TERMINATION if sid == T_SUBJECT else self.labels[sid]
            vid = self.value_id[row]
            value = None if vid == BARE_VALUE else self.values[vid]
            entries.append(Hypothesis(label, value))
        return Stack(entries)


def _ranks_by_value(order: WellFoundedOrder, values: Sequence[object]) -> bool:
    """Whether ``values`` can be their own ranks: a naturals order, where
    ``gt`` *is* ``>``, with every value an ``int64``-safe integer."""
    return isinstance(order, (Naturals, BoundedNaturals)) and all(
        isinstance(value, int) and -_RANK_LIMIT < value < _RANK_LIMIT
        for value in values
    )


def encode_stacks(
    stacks: Sequence[Stack],
    labels: Sequence[str],
    order: WellFoundedOrder,
) -> StackColumns:
    """Pack ``stacks`` into columns over the subject table ``labels``."""
    labels = list(labels)
    subject_ids = {
        label: k for k, label in enumerate(labels) if label != TERMINATION
    }
    subject_ids[TERMINATION] = T_SUBJECT

    offsets = array("q", [0])
    subject = array("q")
    value_id = array("q")
    values: List[object] = []
    value_ids: Dict[object, int] = {}

    total = 0
    for stack in stacks:
        for hypothesis in stack:
            label = hypothesis.subject
            sid = subject_ids.get(label)
            if sid is None:
                sid = subject_ids[label] = len(labels)
                labels.append(label)
            subject.append(sid)
            value = hypothesis.value
            if value is None:
                value_id.append(BARE_VALUE)
            else:
                vid = value_ids.get(value)
                if vid is None:
                    vid = value_ids[value] = len(values)
                    values.append(value)
                value_id.append(vid)
        total += stack.height
        offsets.append(total)

    rank = None
    if _ranks_by_value(order, values):
        rank = array("q", (0 if vid == BARE_VALUE else values[vid] for vid in value_id))
    return StackColumns(offsets, subject, value_id, rank, values, labels)


def value_gt(
    order: WellFoundedOrder, values: Sequence[object]
) -> Callable[[int, int], bool]:
    """``order.gt`` over interned value ids, memoized per id pair."""
    memo: Dict[Tuple[int, int], bool] = {}

    def gt(a: int, b: int) -> bool:
        key = (a, b)
        result = memo.get(key)
        if result is None:
            result = memo[key] = order.gt(values[a], values[b])
        return result

    return gt


def invalidation_words(labels: Sequence[str]) -> Tuple[int, ...]:
    """Per command id, the invalidation word of executing that command.

    Bit ``sid + 1`` of an invalidation word marks subject ``sid`` as
    invalidated, so bit 0 is the T-hypothesis's: executing a command
    literally named ``"T"`` invalidates it, and nothing else does.
    """
    return tuple(
        1 if label == TERMINATION else 1 << (k + 1)
        for k, label in enumerate(labels)
    )


#: Aggregate outcome counters of one kernel run, in this order:
#: ``(transitions, witnessed, violations, active_enabled, active_decrease,
#: failed_v_noc, failed_v_noni, failed_v_a, failed_other)`` — the exact
#: totals :func:`repro.measures.verification._count_outcome` would have
#: produced transition by transition.
PlaneCounts = Tuple[int, int, int, int, int, int, int, int, int]


def check_chunk_columns(
    soff,
    ssub,
    sval,
    srank,
    src,
    cmd,
    dst,
    demand,
    lo: int,
    hi: int,
    invalidates: Sequence[int],
    keep_witnesses: bool,
    fulfilled=None,
    gt: Optional[Callable[[int, int], bool]] = None,
) -> Tuple[Optional[array], List[int], PlaneCounts]:
    """The batched level search over transitions ``lo..hi-1``.

    All column arguments are flat int sequences (local arrays, shm views
    or mmapped graph-store chunks — the kernel never knows).  ``demand``
    holds per state the mask of subject ids demanding service there (the
    enabled commands under command fairness).  The edge's invalidation
    word (see :func:`invalidation_words`) is ``fulfilled[eid]`` when a
    per-edge fulfilled column is given, else ``invalidates[cmd[eid]]``.
    With ``srank`` ``None`` the decrease test calls ``gt`` on value ids.

    Returns ``(witness_words, violations, counts)``:

    * ``witness_words[e - lo]`` is ``(level << 1) | reason`` (reason 0 =
      enabled, 1 = decrease) for a witnessed transition and ``-1``
      otherwise; ``None`` when ``keep_witnesses`` is false (the caller
      needs only the violation list).
    * ``violations`` — absolute eids of unwitnessed transitions, in eid
      order; the caller re-runs the object-level search on just these to
      materialize the exact failure details.
    * ``counts`` — :data:`PlaneCounts` telemetry totals, accumulated
      branch-for-branch with the object-level search (V_A failures
      before a witness included).

    The level-by-level control flow mirrors
    :func:`~repro.measures.verification.find_active_level_general`
    exactly: subject change, (V_NoC) and (V_NonI) break the search;
    (V_A) failures record and continue; the first witnessing level
    returns.  The (V_NoC) prefix test is incremental — entries at levels
    below the current one were already compared, so one ``value_id``
    equality per surviving level suffices.
    """
    words = array("q", bytes(8 * (hi - lo))) if keep_witnesses else None
    violations: List[int] = []
    transitions = hi - lo
    witnessed = 0
    n_enabled = 0
    n_decrease = 0
    f_noc = 0
    f_noni = 0
    f_a = 0
    f_other = 0

    for eid in range(lo, hi):
        s = src[eid]
        t = dst[eid]
        sb = soff[s]
        tb = soff[t]
        max_level = min(soff[s + 1] - sb, soff[t + 1] - tb)
        if fulfilled is None:
            invalid = invalidates[cmd[eid]]
        else:
            invalid = fulfilled[eid]
        union = demand[s] | demand[t]
        word = -1
        prefix_equal = True
        for level in range(max_level):
            bsub = ssub[sb + level]
            if bsub != ssub[tb + level] or not prefix_equal:
                f_noc += 1  # "changes subject" counts as (V_NoC)
                break
            if (invalid >> (bsub + 1)) & 1:
                f_noni += 1
                break
            if bsub >= 0 and (union >> bsub) & 1:
                word = level << 1
                n_enabled += 1
                break
            bval = sval[sb + level]
            aval = sval[tb + level]
            if bval != BARE_VALUE and aval != BARE_VALUE:
                if (
                    srank[sb + level] > srank[tb + level]
                    if srank is not None
                    else gt(bval, aval)
                ):
                    word = (level << 1) | 1
                    n_decrease += 1
                    break
            f_a += 1
            if bval != aval:
                prefix_equal = False
        if word >= 0:
            witnessed += 1
            if keep_witnesses:
                words[eid - lo] = word
        else:
            if max_level == 0:
                f_other += 1  # "empty stack overlap"
            violations.append(eid)
            if keep_witnesses:
                words[eid - lo] = -1

    counts = (
        transitions,
        witnessed,
        len(violations),
        n_enabled,
        n_decrease,
        f_noc,
        f_noni,
        f_a,
        f_other,
    )
    return words, violations, counts
