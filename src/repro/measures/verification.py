"""The verification conditions (V_A), (V_NonI), (V_NoC) — Section 4.1.

For a transition ``p → p'`` executing command ``ℓ``, a level ``k`` hosting
an ``α``-hypothesis *witnesses* the conditions when:

* **(V_NoC)** the stacks ``μ(p)`` and ``μ(p')`` agree strictly below ``k``,
  and the hypothesis at ``k`` has the same subject ``α`` in both (Figure 1:
  the active hypothesis sits at the same level on both sides — everything
  *above* may change arbitrarily);
* **(V_NonI)** no hypothesis at levels ``0..k`` is the ``ℓ``-hypothesis
  (the T-hypothesis is never invalidated);
* **(V_A)** the ``α``-hypothesis is *active*: either ``α`` is a command
  label enabled in ``p`` or ``p'`` (the §5 old-state/new-state reading), or
  both measures are defined and ``μ^α(p) ≻ μ^α(p')``.

"There may be several choices for an active hypothesis" (§5) — the checker
accepts a transition if *any* level witnesses the conditions, and records
which one (preferring the lowest, which is also what the soundness argument
tracks).  A stack assignment passing on every transition is a **fair
termination measure** (Theorem 1 then applies; see
:mod:`repro.measures.soundness`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine import shm
from repro.engine.parallel import chunk_items, effective_jobs, parallel_map
from repro.fairness.refine import requirement_masks
from repro.measures.assignment import StackAssignment
from repro.measures.columns import (
    StackColumns,
    check_chunk_columns,
    encode_stacks,
    invalidation_words,
    value_gt,
)
from repro.telemetry import core as telemetry
from repro.telemetry import events
from repro.measures.hypotheses import TERMINATION
from repro.measures.stack import Stack
from repro.ts.explore import ExplorationObserver, ReachableGraph, StopExploration, explore
from repro.ts.system import CommandLabel, Transition, TransitionSystem
from repro.wf.base import WellFoundedOrder


@dataclass(frozen=True)
class ActiveWitness:
    """The level that discharged the verification conditions for one
    transition, and why it was active."""

    transition: Transition
    level: int
    subject: str
    #: ``"enabled"`` — active via the command being enabled in p or p';
    #: ``"decrease"`` — active via a strict measure decrease.
    reason: str


@dataclass(frozen=True)
class LevelFailure:
    """Why one candidate level failed, for diagnostics."""

    level: int
    subject: Optional[str]
    detail: str


@dataclass(frozen=True)
class TransitionViolation:
    """A transition on which no level witnesses (V_A) ∧ (V_NonI) ∧ (V_NoC)."""

    transition: Transition
    source_stack: Stack
    target_stack: Stack
    failures: Tuple[LevelFailure, ...]

    def __str__(self) -> str:
        lines = [
            f"verification conditions fail on {self.transition}",
            f"  μ(p)  = {self.source_stack.render()}",
            f"  μ(p') = {self.target_stack.render()}",
        ]
        for failure in self.failures:
            subject = failure.subject or "?"
            lines.append(f"  level {failure.level} ({subject}): {failure.detail}")
        return "\n".join(lines)


class MeasureVerificationError(AssertionError):
    """Raised by :meth:`MeasureCheckResult.raise_if_failed`."""


@dataclass
class MeasureCheckResult:
    """Outcome of checking a stack assignment over an explored graph.

    ``is_fair_termination_measure`` requires all three: every transition
    witnessed, the order well-founded (decidable only for finite orders;
    infinite library orders are well-founded by construction), and the graph
    complete — on a bounded graph the result still certifies the explored
    region and says so via ``complete``.
    """

    witnesses: List[ActiveWitness]
    violations: List[TransitionViolation]
    transitions_checked: int
    complete: bool
    order_well_founded: bool

    @property
    def ok(self) -> bool:
        """All checked transitions witnessed and the order well-founded."""
        return not self.violations and self.order_well_founded

    @property
    def is_fair_termination_measure(self) -> bool:
        """``ok`` on a *complete* graph: a genuine fair termination measure."""
        return self.ok and self.complete

    def active_levels(self) -> Dict[int, int]:
        """Histogram: active level → how many transitions used it."""
        histogram: Dict[int, int] = {}
        for witness in self.witnesses:
            histogram[witness.level] = histogram.get(witness.level, 0) + 1
        return histogram

    def raise_if_failed(self) -> None:
        """Raise with the first few violations if the check failed."""
        problems: List[str] = []
        if not self.order_well_founded:
            problems.append("the measure's (W, ≻) is not well-founded")
        problems.extend(str(v) for v in self.violations[:5])
        if problems:
            more = len(self.violations) - 5
            if more > 0:
                problems.append(f"... and {more} further violations")
            raise MeasureVerificationError("\n".join(problems))

    def summary(self) -> str:
        """One-line summary used by reports."""
        status = "PASS" if self.ok else f"FAIL ({len(self.violations)} violations)"
        scope = "complete" if self.complete else "explored region only"
        return (
            f"{status}: {self.transitions_checked} transitions checked "
            f"({scope}); active levels {self.active_levels()}"
        )


def find_active_level(
    source_stack: Stack,
    target_stack: Stack,
    executed: CommandLabel,
    enabled_union: frozenset,
    order: WellFoundedOrder,
) -> Tuple[Optional[ActiveWitnessData], List[LevelFailure]]:
    """Search for the lowest level witnessing the verification conditions.

    ``enabled_union`` is the set of commands enabled in ``p`` *or* ``p'``.
    Returns ``(witness-data, failures)``; ``witness-data`` is ``None`` when
    no level works, in which case ``failures`` explains each level.

    This is the per-command-fairness instance of
    :func:`find_active_level_general`: a hypothesis is invalidated exactly
    when its subject is the executed command.
    """
    return find_active_level_general(
        source_stack,
        target_stack,
        invalidated=frozenset({executed}),
        active_subjects=enabled_union,
        order=order,
    )


def find_active_level_general(
    source_stack: Stack,
    target_stack: Stack,
    invalidated: frozenset,
    active_subjects: frozenset,
    order: WellFoundedOrder,
) -> Tuple[Optional[ActiveWitnessData], List[LevelFailure]]:
    """The verification-condition search over arbitrary fairness
    requirements ([FK84] generality; the paper's §4.1 notes its definitions
    "depend only on the notions of commands or actions being 'enabled' and
    'executed'").

    ``invalidated`` — subjects whose requirement this transition fulfils
    (for command fairness: the executed command); ``active_subjects`` —
    subjects whose requirement demands service in ``p`` or ``p'`` (for
    command fairness: the commands enabled there).

    One pass over the levels, linear in the stack height: "equal below"
    carries forward from the levels already passed, and a level is only
    reached when no lower subject was invalidated, so (V_NonI) tests the
    current subject alone.
    """
    failures: List[LevelFailure] = []
    max_level = min(source_stack.height, target_stack.height)
    equal_below = True
    for level in range(max_level):
        before = source_stack.level(level)
        after = target_stack.level(level)
        if before.subject != after.subject:
            failures.append(
                LevelFailure(
                    level,
                    before.subject,
                    f"hypothesis changes subject across the transition "
                    f"({before.subject!r} → {after.subject!r})",
                )
            )
            # Levels above sit on a changed hypothesis; (V_NoC) can no
            # longer hold for any higher level either.
            break
        subject = before.subject
        # (V_NoC): stack unchanged strictly below the active level.
        if not equal_below:
            failures.append(
                LevelFailure(level, subject, "stack changes below this level (V_NoC)")
            )
            break
        # (V_NonI): no hypothesis at or below the level is invalidated.
        if subject in invalidated:
            failures.append(
                LevelFailure(
                    level,
                    subject,
                    f"invalidated hypothesis {subject!r} at or below this "
                    "level (V_NonI)",
                )
            )
            # Every higher level includes this one — no point searching on.
            break
        # (V_A): activity by demand/enabledness or by strict measure decrease.
        if subject != TERMINATION and subject in active_subjects:
            return ActiveWitnessData(level, subject, "enabled"), failures
        if before.value is not None and after.value is not None:
            if order.gt(before.value, after.value):
                return ActiveWitnessData(level, subject, "decrease"), failures
            failures.append(
                LevelFailure(
                    level,
                    subject,
                    f"measure does not decrease: {before.value} ⊁ {after.value} (V_A)",
                )
            )
        else:
            failures.append(
                LevelFailure(
                    level,
                    subject,
                    "not enabled in p or p' and no measure value to decrease (V_A)",
                )
            )
        if before != after:
            equal_below = False
    if max_level == 0:
        failures.append(LevelFailure(0, None, "empty stack overlap"))
    return None, failures


@dataclass(frozen=True)
class ActiveWitnessData:
    """Internal: level/subject/reason triple before attaching the transition."""

    level: int
    subject: str
    reason: str


def _count_outcome(data, failures) -> None:
    """Registry counters for one level search (telemetry enabled only).

    ``verify.active.*`` records how (V_A) was discharged; failed levels
    are attributed to the condition that rejected them.
    """
    telemetry.count("verify.transitions")
    if data is not None:
        telemetry.count("verify.witnessed")
        telemetry.count(f"verify.active.{data.reason}")
    else:
        telemetry.count("verify.violations")
    for failure in failures:
        if "(V_NoC)" in failure.detail or "changes subject" in failure.detail:
            telemetry.count("verify.failed_levels.v_noc")
        elif "(V_NonI)" in failure.detail:
            telemetry.count("verify.failed_levels.v_noni")
        elif "(V_A)" in failure.detail:
            telemetry.count("verify.failed_levels.v_a")
        else:
            telemetry.count("verify.failed_levels.other")


def _count_plane(counts) -> None:
    """Merge one kernel run's aggregate outcome counters into the registry.

    Same counter names, same totals as :func:`_count_outcome` called per
    transition — the kernel accumulates plain ints and this applies them
    in nine increments instead of millions.  Zero counts stay absent
    (``_count_outcome`` never creates a counter it does not touch).
    """
    (
        transitions,
        witnessed,
        violations,
        enabled,
        decrease,
        f_noc,
        f_noni,
        f_a,
        f_other,
    ) = counts
    if transitions:
        telemetry.count("verify.transitions", transitions)
    if witnessed:
        telemetry.count("verify.witnessed", witnessed)
    if violations:
        telemetry.count("verify.violations", violations)
    if enabled:
        telemetry.count("verify.active.enabled", enabled)
    if decrease:
        telemetry.count("verify.active.decrease", decrease)
    if f_noc:
        telemetry.count("verify.failed_levels.v_noc", f_noc)
    if f_noni:
        telemetry.count("verify.failed_levels.v_noni", f_noni)
    if f_a:
        telemetry.count("verify.failed_levels.v_a", f_a)
    if f_other:
        telemetry.count("verify.failed_levels.other", f_other)


def _attach_plane_column(entry, tag: int):
    """Resolve one manifest entry to a flat payload view (worker side).

    ``("shm", name, length)`` attaches the arena segment and slices off
    the header; ``("file", path, words, typecode)`` memory-maps a
    graph-store chunk directly — the warm graph's columns are already on
    disk, so the coordinator never copies them through shared memory.
    """
    kind = entry[0]
    if kind == "shm":
        _, name, length = entry
        view = shm.attach_column(name, tag, length)
        return view[shm.HEADER_WORDS : shm.HEADER_WORDS + length]
    _, path, words, typecode = entry
    return shm.attach_file_column(path, words, typecode)


#: One columnar chunk task: ``(manifest, tag, lo, hi, invalidates, keep)``.
#: The manifest maps column keys (soff/ssub/sval/srank/src/cmd/dst/emask)
#: to attachable entries — the whole input of a million-edge check chunk
#: pickles in a few hundred bytes.
_PlaneTask = Tuple[Dict[str, tuple], int, int, int, Tuple[int, ...], bool]


def _check_plane_chunk(task: _PlaneTask):
    """Worker: run the columnar kernel over one edge range.

    Returns ``(witness_words, violations, counts)``; ``witness_words`` is
    the kernel's ``array('q')`` outcome column (``None`` when the caller
    keeps no witnesses).  Outcome counters are merged into the worker registry
    here — the pool's delta collection carries them home, so parent
    totals are exact for any job count.
    """
    manifest, tag, lo, hi, invalidates, keep = task
    cols = {key: _attach_plane_column(entry, tag) for key, entry in manifest.items()}
    words, violations, counts = check_chunk_columns(
        cols["soff"],
        cols["ssub"],
        cols["sval"],
        cols["srank"],
        cols["src"],
        cols["cmd"],
        cols["dst"],
        cols["emask"],
        lo,
        hi,
        invalidates,
        keep,
    )
    if telemetry.enabled():
        telemetry.count("verify.plane.chunks")
        _count_plane(counts)
    return words, violations, counts


def _plane_chunks_parallel(
    graph: ReachableGraph,
    columns: StackColumns,
    invalidates: Tuple[int, ...],
    jobs: int,
    keep_witnesses: bool,
):
    """Publish the plane and fan the kernel out; ``None`` if shm is out.

    Columns the graph already has on disk (mmap-warm loads record their
    single-chunk file sources in ``graph.column_files``) are adopted by
    path; everything else syncs into a fresh arena.  Workers get
    ``(manifest, eid_range)`` tasks; the arena dies in the ``finally`` —
    normal return, pool failure and worker exceptions all reclaim every
    segment (the zero-leak contract).
    """
    src, cmd, dst = graph.transition_columns
    try:
        arena = shm.ShmArena(b"verify-plane")
    except shm.ShmUnavailable:
        if telemetry.enabled():
            telemetry.count("verify.plane.shm_unavailable")
        return None
    try:
        adopted = getattr(graph, "column_files", None) or {}
        manifest: Dict[str, tuple] = {}

        def publish(key: str, source, adopt_key: str | None = None) -> None:
            entry = adopted.get(adopt_key) if adopt_key else None
            if entry is not None:
                path, words, typecode = entry
                manifest[key] = ("file", path, words, typecode)
                if telemetry.enabled():
                    telemetry.count("verify.plane.adopted_columns")
                return
            arena.sync(key, source)
            name, length = arena.column(key).manifest()
            manifest[key] = ("shm", name, length)

        publish("soff", columns.offsets)
        publish("ssub", columns.subject)
        publish("sval", columns.value_id)
        publish("srank", columns.rank)
        publish("src", src, adopt_key="src")
        publish("cmd", cmd, adopt_key="cmd")
        publish("dst", dst, adopt_key="dst")
        publish("emask", graph.enabled_masks, adopt_key="masks")

        parts = chunk_items(range(len(src)), jobs)
        tasks = [
            (manifest, arena.tag, part.start, part.stop, invalidates, keep_witnesses)
            for part in parts
            if len(part)
        ]
        outs = parallel_map(_check_plane_chunk, tasks, n_jobs=jobs)
        return [
            (task[2], words, violations)
            for task, (words, violations, _) in zip(tasks, outs)
        ]
    finally:
        arena.close()


def _subjects_of(mask: int, labels: Sequence[str]) -> frozenset:
    """The labels whose bits are set in ``mask``."""
    return frozenset(label for k, label in enumerate(labels) if (mask >> k) & 1)


def _requirement_columns(graph: ReachableGraph, requirements):
    """Generalized fairness as the kernel's masks.

    Requirement names form the subject table, keyed by name: per state,
    the mask of names some requirement demands service for; per edge,
    the invalidation word of the names some requirement is fulfilled by
    (bit ``id + 1``, bit 0 for a requirement named ``"T"``).  Both come
    from :func:`~repro.fairness.refine.requirement_masks`, so
    ``kind="command"`` requirements call no predicate.
    """
    labels, demand, fulfilled = requirement_masks(graph, requirements)
    words = invalidation_words(labels)
    memo: Dict[int, int] = {}
    invalidated = []
    for mask in fulfilled:
        word = memo.get(mask)
        if word is None:
            word = 0
            for k, bit_word in enumerate(words):
                if (mask >> k) & 1:
                    word |= bit_word
            memo[mask] = word
        invalidated.append(word)
    return list(labels), demand, invalidated


def check_measure(
    graph: ReachableGraph,
    assignment: StackAssignment,
    keep_witnesses: bool = True,
    requirements=None,
    n_jobs: int | None = None,
) -> MeasureCheckResult:
    """Check the verification conditions on every explored transition.

    Stacks are computed once per state; measure values are validated for
    membership in the assignment's order.  The result's
    :attr:`~MeasureCheckResult.complete` mirrors the graph's completeness.

    One engine checks every transition: the stacks pack into flat columns
    (:mod:`repro.measures.columns`) and the batched kernel
    :func:`~repro.measures.columns.check_chunk_columns` runs the level
    search over them.  Only violating transitions replay the object-level
    :func:`find_active_level_general`, for their exact failure details.

    ``requirements`` (a sequence of
    :class:`repro.fairness.generalized.FairnessRequirement`) switches the
    checker to generalized fairness: stack hypotheses then name
    requirements; a hypothesis is active when its requirement demands
    service in either endpoint, and invalidated when the transition fulfils
    it.  Omitted, hypotheses name commands (the paper's strong fairness).

    ``n_jobs`` fans the kernel out over a process pool
    (``repro.engine.parallel``) for command fairness over a naturals
    order with at most 63 commands — the checks whose columns fit
    ``int64`` shared-memory words.  Transitions are split into
    contiguous chunks and the per-chunk results concatenated in order,
    so witnesses and violations — contents *and* order — are identical
    to the in-process run.  Every other check runs in-process, whatever
    ``n_jobs`` says; ``None``/``0``/``1`` stay in-process, and pool
    failures fall back to it.
    """
    with telemetry.span(
        "verify", transitions=len(graph.transitions), jobs=n_jobs
    ) as sp:
        result = _check_measure_inner(
            graph, assignment, keep_witnesses, requirements, n_jobs
        )
        sp.set("violations", len(result.violations))
    events.emit(
        events.VERIFY_VERDICT,
        ok=result.ok,
        violations=len(result.violations),
        transitions_checked=result.transitions_checked,
        complete=result.complete,
        streaming=False,
        stopped_early=False,
    )
    return result


def _check_measure_inner(
    graph: ReachableGraph,
    assignment: StackAssignment,
    keep_witnesses: bool,
    requirements,
    n_jobs: int | None,
) -> MeasureCheckResult:
    order = assignment.order
    stacks: List[Stack] = []
    for index in range(len(graph)):
        state = graph.state_of(index)
        stack = assignment(state)
        for hypothesis in stack:
            if hypothesis.value is not None:
                order.check_member(hypothesis.value)
        stacks.append(stack)

    src, cmd, dst = graph.transition_columns
    m = len(src)
    if requirements is None:
        labels = graph.analyses.commands.labels
        demand, fulfilled = graph.enabled_masks, None
    else:
        labels, demand, fulfilled = _requirement_columns(graph, requirements)
    invalidates = invalidation_words(labels)
    columns = encode_stacks(stacks, labels, order)
    traced = telemetry.enabled()
    if traced:
        telemetry.count("verify.plane.engaged")
        telemetry.count("verify.plane.rows", m)

    chunks = None
    if (
        fulfilled is None
        and columns.rank is not None
        and len(labels) <= 63
        and m > 1
    ):
        jobs = effective_jobs(n_jobs, m)
        if jobs > 1:
            chunks = _plane_chunks_parallel(
                graph, columns, invalidates, jobs, keep_witnesses
            )
    if chunks is None:
        gt = None if columns.rank is not None else value_gt(order, columns.values)
        words, violating, counts = check_chunk_columns(
            columns.offsets,
            columns.subject,
            columns.value_id,
            columns.rank,
            src,
            cmd,
            dst,
            demand,
            0,
            m,
            invalidates,
            keep_witnesses,
            fulfilled,
            gt,
        )
        if traced:
            telemetry.count("verify.plane.chunks")
            _count_plane(counts)
        chunks = [(0, words, violating)]

    transitions = graph.transitions
    witnesses: List[ActiveWitness] = []
    violations: List[TransitionViolation] = []
    for lo, words, violating in chunks:
        if words is not None:
            for rel, word in enumerate(words):
                eid = lo + rel
                if word < 0:
                    continue
                level = word >> 1
                witnesses.append(
                    ActiveWitness(
                        transition=graph.to_transition(transitions[eid]),
                        level=level,
                        subject=stacks[src[eid]].level(level).subject,
                        reason="decrease" if word & 1 else "enabled",
                    )
                )
        for eid in violating:
            # Re-run the object-level search on the violating edge for
            # the exact failure strings (measure values, not ids).
            s, t = src[eid], dst[eid]
            invalid = fulfilled[eid] if fulfilled is not None else invalidates[cmd[eid]]
            invalidated = _subjects_of(invalid >> 1, labels)
            if invalid & 1:
                invalidated |= {TERMINATION}
            data, failures = find_active_level_general(
                stacks[s],
                stacks[t],
                invalidated,
                _subjects_of(demand[s] | demand[t], labels),
                order,
            )
            if data is not None:  # pragma: no cover - kernel/search parity guard
                raise AssertionError(
                    f"internal error: columnar kernel flagged eid {eid} as a "
                    f"violation but the level search witnesses it at {data.level}"
                )
            if traced:
                telemetry.count("verify.plane.decoded_violations")
            violations.append(
                TransitionViolation(
                    transition=graph.to_transition(transitions[eid]),
                    source_stack=stacks[s],
                    target_stack=stacks[t],
                    failures=tuple(failures),
                )
            )

    return MeasureCheckResult(
        witnesses=witnesses,
        violations=violations,
        transitions_checked=m,
        complete=graph.complete,
        order_well_founded=order.is_well_founded(),
    )


@dataclass
class StreamingCheckResult(MeasureCheckResult):
    """A :class:`MeasureCheckResult` with streaming accounting.

    ``stopped_early`` — whether the check cut exploration short on
    reaching ``max_violations``; ``states_explored`` — states discovered
    when the run ended (with a stop, this is the states-until-violation
    figure the engine footer reports).  When a streaming check runs to
    completion every inherited field is bit-identical to
    :func:`check_measure` on the materialized graph.
    """

    stopped_early: bool = False
    states_explored: int = 0


class _StreamingVerifier(ExplorationObserver):
    """Checks each source's verification conditions as its expansion closes.

    Buffers the in-flight source's transitions (they arrive contiguously)
    and flushes them — in transition order, through the object-level
    search the materialized checker replays on its violations — when
    ``on_expanded`` declares them final.  A source truncated by the state
    budget never gets an ``on_expanded``, so its buffered transitions are
    discarded, matching the materialized path's frontier-source drop.
    """

    __slots__ = (
        "_system",
        "_assignment",
        "_order",
        "_keep",
        "_requirements",
        "_max_violations",
        "_states",
        "_stacks",
        "_enabled",
        "_demanded",
        "_pending",
        "witnesses",
        "violations",
        "checked",
        "stopped",
    )

    def __init__(
        self,
        system: TransitionSystem,
        assignment: StackAssignment,
        keep_witnesses: bool,
        requirements,
        max_violations: int | None,
    ) -> None:
        self._system = system
        self._assignment = assignment
        self._order = assignment.order
        self._keep = keep_witnesses
        self._requirements = (
            tuple(requirements) if requirements is not None else None
        )
        self._max_violations = max_violations
        self._states: List = []
        self._stacks: List[Stack] = []
        self._enabled: List[frozenset | None] = []
        self._demanded: List[frozenset] = []
        self._pending: List[Tuple[int, CommandLabel, int]] = []
        self.witnesses: List[ActiveWitness] = []
        self.violations: List[TransitionViolation] = []
        self.checked = 0
        self.stopped = False

    def on_state(self, index: int, state, depth: int) -> None:
        self._states.append(state)
        stack = self._assignment(state)
        order = self._order
        for hypothesis in stack:
            if hypothesis.value is not None:
                order.check_member(hypothesis.value)
        self._stacks.append(stack)
        self._enabled.append(None)
        if self._requirements is not None:
            self._demanded.append(
                frozenset(
                    r.name for r in self._requirements if r.enabled_at(state)
                )
            )

    def on_transition(self, source: int, command, target: int) -> None:
        pending = self._pending
        if pending and pending[0][0] != source:
            # The previous source hit the state budget mid-expansion; its
            # transitions will be dropped from the graph, so drop the
            # buffered copies unchecked too.
            pending.clear()
        pending.append((source, command, target))

    @property
    def wants_enabled_masks(self) -> bool:
        """Whether the explorer should prime per-round enabled masks.

        Under command fairness every flush needs the enabled sets of both
        endpoints; a value-plane exploration step batches guards-only
        masks for each round's fresh successor rows in-process and hands
        them in through :meth:`prime_enabled`, replacing the per-state
        re-derivation of :meth:`_enabled_of`.  Generalized requirements
        use demanded sets instead, so masks would be dead weight there.
        """
        return self._requirements is None

    def prime_enabled(self, index: int, enabled: frozenset) -> None:
        """Record a batch-derived enabled set for an unflushed state.

        Guards are pure, so a primed set equals what :meth:`_enabled_of`
        would have derived serially — priming changes which code computes
        the mask, never its value, and never the flush order or stop
        points.  An already-known state keeps its recorded set.
        """
        if self._enabled[index] is None:
            self._enabled[index] = enabled
            telemetry.count("stream.mask_primes")

    def _enabled_of(self, index: int) -> frozenset:
        enabled = self._enabled[index]
        if enabled is None:
            # The target is not expanded yet; ask the system directly.
            # ``TransitionSystem.expand`` answers enabledness and posts
            # from the same guards, so this equals the mask the
            # materialized graph would record (guards-only for frontier
            # states, expansion-derived otherwise).
            enabled = frozenset(self._system.enabled(self._states[index]))
            self._enabled[index] = enabled
            telemetry.count("stream.mask_derived_serially")
        return enabled

    def on_expanded(self, index: int, enabled: frozenset) -> None:
        self._enabled[index] = enabled
        pending = self._pending
        if pending and pending[0][0] != index:
            pending.clear()
        if not pending:
            return
        traced = telemetry.enabled()
        order = self._order
        requirements = self._requirements
        states = self._states
        stacks = self._stacks
        for source, command, target in pending:
            if requirements is None:
                invalidated = frozenset((command,))
                active = self._enabled_of(source) | self._enabled_of(target)
            else:
                source_state = states[source]
                target_state = states[target]
                invalidated = frozenset(
                    r.name
                    for r in requirements
                    if r.fulfilled_by(source_state, command, target_state)
                )
                active = self._demanded[source] | self._demanded[target]
            data, failures = find_active_level_general(
                stacks[source], stacks[target], invalidated, active, order
            )
            self.checked += 1
            if traced:
                _count_outcome(data, failures)
            if data is not None:
                if self._keep:
                    self.witnesses.append(
                        ActiveWitness(
                            transition=Transition(
                                states[source], command, states[target]
                            ),
                            level=data.level,
                            subject=data.subject,
                            reason=data.reason,
                        )
                    )
            else:
                self.violations.append(
                    TransitionViolation(
                        transition=Transition(
                            states[source], command, states[target]
                        ),
                        source_stack=stacks[source],
                        target_stack=stacks[target],
                        failures=tuple(failures),
                    )
                )
                if (
                    self._max_violations is not None
                    and len(self.violations) >= self._max_violations
                ):
                    pending.clear()
                    self.stopped = True
                    raise StopExploration(
                        f"reached max_violations={self._max_violations}"
                    )
        pending.clear()


def check_measure_streaming(
    system: TransitionSystem,
    assignment: StackAssignment,
    max_states: int | None = None,
    max_depth: int | None = None,
    keep_witnesses: bool = True,
    requirements=None,
    max_violations: int | None = None,
    n_jobs: int | None = None,
) -> StreamingCheckResult:
    """Verify the conditions on the fly, as the frontier expands.

    The verification conditions are local to one transition, so they can
    be checked the moment a source state finishes expanding — no
    materialized graph, no per-transition task list.  Run to completion
    (``max_violations=None``) the verdict — witnesses, violations,
    contents *and* order — is bit-identical to
    ``check_measure(explore(system, ...), assignment, ...)``; with
    ``max_violations=k`` the check stops (and cancels exploration) as
    soon as ``k`` violations are found, and the violation list is the
    first ``k`` of the materialized run.

    ``n_jobs`` is accepted and has no effect: exploration and the VC
    checks both run in-process, the checks as each state closes.  Pass
    ``keep_witnesses=False`` for O(states) memory — the default keeps
    per-transition witnesses like the materialized checker does.
    """
    with telemetry.span(
        "verify", streaming=True, jobs=n_jobs, max_violations=max_violations
    ) as sp:
        verifier = _StreamingVerifier(
            system, assignment, keep_witnesses, requirements, max_violations
        )
        graph = explore(
            system,
            max_states=max_states,
            max_depth=max_depth,
            n_jobs=n_jobs,
            observer=verifier,
        )
        if telemetry.enabled():
            telemetry.count("stream.checks")
            telemetry.count("stream.transitions_checked", verifier.checked)
            telemetry.gauge("stream.states_at_verdict", len(graph))
        sp.set("violations", len(verifier.violations))
        sp.set("stopped_early", verifier.stopped)
    result = StreamingCheckResult(
        witnesses=verifier.witnesses,
        violations=verifier.violations,
        transitions_checked=verifier.checked,
        complete=graph.complete,
        order_well_founded=assignment.order.is_well_founded(),
        stopped_early=verifier.stopped,
        states_explored=len(graph),
    )
    events.emit(
        events.VERIFY_VERDICT,
        ok=result.ok,
        violations=len(result.violations),
        transitions_checked=result.transitions_checked,
        complete=result.complete,
        streaming=True,
        stopped_early=result.stopped_early,
    )
    return result
