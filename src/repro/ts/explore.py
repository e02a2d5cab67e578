"""Reachability exploration with explicit completeness accounting.

The verification conditions are local, so checking them over a region of the
state space means enumerating that region's transitions.  For finite-state
programs :func:`explore` exhausts the reachable states and the resulting
:class:`ReachableGraph` is *complete*: every judgement made over it is a
theorem about the program.  For infinite-state programs (the paper's
``P1``–``P4`` over unbounded integers) exploration is *bounded* and the graph
records its frontier, so downstream analyses can — and do — say precisely
what was and was not covered, instead of silently truncating.

States are interned (hashed once at discovery) and every downstream
analysis works on integer indices.  Transitions are
streamed straight into flat ``array('q')`` columns during exploration — the
graph never holds per-transition Python objects, so a million-state graph
fits comfortably in RAM; :class:`IndexedTransition` values are materialized
lazily as views when object-level callers ask for them.  Per-state enabled
sets are stored as command bitmasks over an interned label table, shared
with the cached engine analyses (:attr:`ReachableGraph.analyses`).

Every exploration runs one level-synchronous BFS (:func:`_explore_rounds`):
each round hands its pending states to an *expand step* chosen once from
the system — batched value-plane kernels for compiled programs
(:mod:`repro.engine.shard`), per-state ``expand`` for everything else —
and one merge interns the results in FIFO order.  Every round runs
in-process; the graph is bit-identical whichever step ran.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

from repro.engine.packed import CommandTable, PackedGraph
from repro.telemetry import core as telemetry
from repro.telemetry import events
from repro.ts.system import CommandLabel, State, Transition, TransitionSystem


class ExplorationLimitError(RuntimeError):
    """Raised by :func:`explore` with ``strict=True`` when a bound is hit."""


class StopExploration(Exception):
    """Raised by an :class:`ExplorationObserver` callback to stop exploring.

    The explorer catches it, abandons the state whose merge was in
    flight (it becomes frontier, so its partially-observed transitions are
    dropped exactly like a budget-truncated source) and returns the graph
    built so far.  The signal also ends the round loop, so no further
    round is expanded.
    Stopping never sets the ``strict`` truncation flag — it is a consumer
    verdict, not a bound.
    """


class ExplorationObserver:
    """Streaming hooks into exploration.

    Subclass and override any of the callbacks; the default implementations
    do nothing.  The event stream is **bit-identical for every job count**
    — the callbacks fire from the merge, in FIFO order — and follows the
    contract:

    * ``on_state`` fires once per state, at intern time, in index order
      (initial states first, at depth 0);
    * ``on_transition`` fires when a transition is *recorded*, in
      transition order.  A source's transitions are contiguous;
    * ``on_expanded`` fires after a source's expansion completed without
      truncation — exactly the sources whose transitions survive into the
      final graph.  A source that hit the state budget mid-expansion gets
      no ``on_expanded``; consumers buffering its transitions must discard
      them (they are dropped from the graph too).

    Any callback may raise :class:`StopExploration` to end exploration
    early.
    """

    __slots__ = ()

    def on_state(self, index: int, state: State, depth: int) -> None:
        """A state was discovered and interned at ``index``."""

    def on_transition(
        self, source: int, command: CommandLabel, target: int
    ) -> None:
        """A transition was recorded (both endpoints already interned)."""

    def on_expanded(self, index: int, enabled: frozenset) -> None:
        """``index`` finished expanding; ``enabled`` is its command set.

        Every ``on_transition`` with this source has already fired, and all
        of them are final (they will appear in the returned graph)."""


@dataclass(frozen=True)
class IndexedTransition:
    """A transition in index form: ``source``/``target`` are state indices."""

    source: int
    command: CommandLabel
    target: int


#: Graphs at or below this many states memoize the per-state transition
#: tuples handed out by ``outgoing``/``incoming`` (repeat callers get the
#: same tuple back, as the old eager representation did).  Above it the
#: tuples are rebuilt per call so object views never pin O(m) dataclasses
#: on a million-state graph.
VIEW_MEMO_LIMIT = 1 << 17


class TransitionView(Sequence):
    """Lazy sequence of :class:`IndexedTransition` over the packed columns.

    Supports ``len``/iteration/indexing/slicing like the tuple it replaces;
    each access materializes fresh dataclass views from the ``(src, cmd,
    dst)`` arrays instead of keeping ``m`` objects alive.  Graphs small
    enough to afford the objects (≤ :data:`VIEW_MEMO_LIMIT` transitions)
    memoize the materialized tuple on first full iteration, so consumers
    that re-scan the transition list repeatedly (the seed reference
    algorithms do) pay the object construction once, as they did when the
    graph stored a tuple; million-state graphs stay lazy.
    """

    __slots__ = ("_src", "_cmd", "_dst", "_labels", "_items")

    def __init__(
        self, src: array, cmd: array, dst: array, labels: Tuple[str, ...]
    ) -> None:
        self._src = src
        self._cmd = cmd
        self._dst = dst
        self._labels = labels
        self._items: Tuple[IndexedTransition, ...] | None = None

    def __len__(self) -> int:
        return len(self._src)

    def __getitem__(self, item):
        if self._items is not None:
            return self._items[item]
        if isinstance(item, slice):
            indices = range(len(self._src))[item]
            return tuple(self._make(eid) for eid in indices)
        # range() handles negative indices and raises IndexError uniformly.
        return self._make(range(len(self._src))[item])

    def _make(self, eid: int) -> IndexedTransition:
        return IndexedTransition(
            self._src[eid], self._labels[self._cmd[eid]], self._dst[eid]
        )

    def __iter__(self) -> Iterator[IndexedTransition]:
        if self._items is None and len(self._src) <= VIEW_MEMO_LIMIT:
            self._items = tuple(
                self._make(eid) for eid in range(len(self._src))
            )
        if self._items is not None:
            return iter(self._items)
        labels = self._labels
        return (
            IndexedTransition(s, labels[c], d)
            for s, c, d in zip(self._src, self._cmd, self._dst)
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, TransitionView):
            if len(self) != len(other):
                return False
            return all(a == b for a, b in zip(self, other))
        if isinstance(other, (tuple, list)):
            if len(self) != len(other):
                return False
            return all(a == b for a, b in zip(self, other))
        return NotImplemented

    __hash__ = None  # mutable-adjacent view; compare by content only

    def __repr__(self) -> str:
        return f"<TransitionView of {len(self)} transitions>"


class ReachableGraph:
    """The explored region of a transition system.

    States are indexed ``0..n-1`` in discovery (BFS) order; index ``0..k-1``
    are the initial states.  The graph stores transitions as three parallel
    integer columns (CSR-indexed on demand) and per-state enabled-command
    bitmasks over an interned :class:`CommandTable`, plus:

    * :attr:`complete` — whether exploration exhausted all reachable states;
    * :attr:`frontier` — indices of states whose successors were *not*
      expanded (non-empty exactly when incomplete).

    All verification-condition checking, fair-cycle detection, SCC analysis
    and synthesis run over this structure.  Index-native callers should use
    :attr:`analyses` (which shares the graph's own packed arrays and masks
    — construction is O(1)) instead of round-tripping through
    :class:`State` objects.
    """

    def __init__(
        self,
        system: TransitionSystem,
        states: Sequence[State],
        transitions: Sequence[IndexedTransition],
        enabled: Sequence[frozenset],
        initial_count: int,
        frontier: Iterable[int],
        index: Dict[State, int] | None = None,
    ) -> None:
        # Object-level construction path (disk cache, hand-built graphs):
        # convert to the packed column form the graph actually stores.
        labels = list(system.commands())
        ids = {label: k for k, label in enumerate(labels)}
        src = array("q")
        cmd = array("q")
        dst = array("q")
        for t in transitions:
            k = ids.get(t.command)
            if k is None:
                k = len(labels)
                ids[t.command] = k
                labels.append(t.command)
            src.append(t.source)
            cmd.append(k)
            dst.append(t.target)
        masks: List[int] = []
        for commands in enabled:
            mask = 0
            for label in commands:
                k = ids.get(label)
                if k is None:
                    k = len(labels)
                    ids[label] = k
                    labels.append(label)
                mask |= 1 << k
            masks.append(mask)
        if index is None:
            index = {s: i for i, s in enumerate(states)}
            if len(index) != len(states):
                raise ValueError("duplicate states in exploration result")
        self._setup(
            system=system,
            states=tuple(states),
            labels=labels,
            src=src,
            cmd=cmd,
            dst=dst,
            enabled_masks=masks,
            initial_count=initial_count,
            frontier=frozenset(frontier),
            index=index,
        )

    @classmethod
    def from_arrays(
        cls,
        system: TransitionSystem,
        states: Sequence[State],
        labels: Sequence[str],
        src: array,
        cmd: array,
        dst: array,
        enabled_masks: Sequence[int],
        initial_count: int,
        frontier: Iterable[int],
        index: Dict[State, int] | None,
    ) -> "ReachableGraph":
        """Adopt already-packed exploration output.

        Used by the explorers (list-of-states + interner index) and by the
        graph store's mmap warm path, which hands in lazy mmap-backed
        sequences: a non-list/tuple ``states`` sequence is adopted as-is
        (states materialize on access), ``src``/``cmd``/``dst``/
        ``enabled_masks`` may be ``memoryview`` casts over a mapping, and
        ``index=None`` defers building the ``State → index`` map until an
        object-level lookup first needs it.
        """
        graph = cls.__new__(cls)
        graph._setup(
            system=system,
            states=tuple(states)
            if isinstance(states, (tuple, list))
            else states,
            labels=list(labels),
            src=src,
            cmd=cmd,
            dst=dst,
            enabled_masks=enabled_masks,
            initial_count=initial_count,
            frontier=frozenset(frontier),
            index=index,
        )
        return graph

    def _setup(
        self,
        system: TransitionSystem,
        states: Sequence[State],
        labels: List[str],
        src: array,
        cmd: array,
        dst: array,
        enabled_masks: Sequence[int],
        initial_count: int,
        frontier: frozenset,
        index: Dict[State, int] | None,
    ) -> None:
        self._system = system
        self._states = states
        self._index = index  # None until an object-level lookup needs it
        self._table = CommandTable(labels)
        self._src = src
        self._cmd = cmd
        self._dst = dst
        # ``array('Q')`` when every mask fits 64 bits (the common case);
        # already-packed masks (``array('Q')`` or an mmap-backed
        # ``memoryview`` cast) are adopted without copying; a plain list
        # of (big) ints otherwise.
        if isinstance(enabled_masks, memoryview) or (
            isinstance(enabled_masks, array)
            and enabled_masks.typecode == "Q"
        ):
            self._enabled_masks: Sequence[int] = enabled_masks
        elif len(labels) <= 64:
            self._enabled_masks = array("Q", enabled_masks)
        else:
            self._enabled_masks = list(enabled_masks)
        self._initial_count = initial_count
        self._frontier = frontier
        #: ``column key → (path, words, typecode)`` for columns whose bytes
        #: already live in a single on-disk chunk (filled by the graph
        #: store's mmap-warm loader).  Consumers that ship columns to
        #: workers — the verification plane — adopt these by path instead
        #: of copying them through shared memory.
        self.column_files: Dict[str, tuple] = {}
        self._packed: PackedGraph | None = None
        self._in_start: array | None = None
        self._in_eid: array | None = None
        memoize = len(states) <= VIEW_MEMO_LIMIT
        self._out_memo: Dict[int, tuple] | None = {} if memoize else None
        self._in_memo: Dict[int, tuple] | None = {} if memoize else None
        self._view: TransitionView | None = None
        self._analyses = None
        self._scc_cache = None  # full-graph SccDecomposition, set by decompose()

    # -- basic queries -------------------------------------------------

    @property
    def system(self) -> TransitionSystem:
        """The underlying transition system."""
        return self._system

    @property
    def states(self) -> Sequence[State]:
        """All explored states, in discovery order (a tuple for explorer
        output; a lazy mmap-backed column view for store-loaded graphs)."""
        return self._states

    @property
    def transitions(self) -> TransitionView:
        """All explored transitions (between expanded states), as a lazy
        sequence view over the packed columns.  The view instance is
        shared across accesses so its iteration memo survives."""
        if self._view is None:
            self._view = TransitionView(
                self._src, self._cmd, self._dst, self._table.labels
            )
        return self._view

    @property
    def initial_indices(self) -> range:
        """Indices of the initial states."""
        return range(self._initial_count)

    @property
    def frontier(self) -> frozenset:
        """Indices of discovered-but-unexpanded states."""
        return self._frontier

    @property
    def complete(self) -> bool:
        """Whether the whole reachable state space was explored."""
        return not self._frontier

    def __len__(self) -> int:
        return len(self._states)

    def _ensure_index(self) -> Dict[State, int]:
        """The ``State → index`` map, built on first object-level lookup.

        Graphs loaded from the mmap-backed store adopt their states as a
        lazy column view; materializing a million state objects to build
        this dict is deferred until something actually asks."""
        if self._index is None:
            index = {s: i for i, s in enumerate(self._states)}
            if len(index) != len(self._states):
                raise ValueError("duplicate states in exploration result")
            self._index = index
        return self._index

    def index_of(self, state: State) -> int:
        """The index of ``state``; raises ``KeyError`` if unexplored."""
        return self._ensure_index()[state]

    def state_of(self, index: int) -> State:
        """The state at ``index``."""
        return self._states[index]

    def contains(self, state: State) -> bool:
        """Whether ``state`` was discovered."""
        return state in self._ensure_index()

    def enabled_at(self, index: int) -> frozenset:
        """Enabled commands of the state at ``index`` (cached per mask)."""
        return self._table.labels_of_mask(self._enabled_masks[index])

    def outgoing(self, index: int) -> Sequence[IndexedTransition]:
        """Outgoing transitions of the state at ``index``."""
        memo = self._out_memo
        if memo is not None:
            cached = memo.get(index)
            if cached is not None:
                return cached
        packed = self.packed
        labels = self._table.labels
        cmd = self._cmd
        dst = self._dst
        result = tuple(
            IndexedTransition(index, labels[cmd[e]], dst[e])
            for e in packed.out_eids(index)
        )
        if memo is not None:
            memo[index] = result
        return result

    def incoming(self, index: int) -> Sequence[IndexedTransition]:
        """Incoming transitions of the state at ``index``."""
        memo = self._in_memo
        if memo is not None:
            cached = memo.get(index)
            if cached is not None:
                return cached
        if self._in_start is None:
            self._build_incoming_csr()
        labels = self._table.labels
        src = self._src
        cmd = self._cmd
        result = tuple(
            IndexedTransition(src[e], labels[cmd[e]], index)
            for e in self._in_eid[self._in_start[index] : self._in_start[index + 1]]
        )
        if memo is not None:
            memo[index] = result
        return result

    def _build_incoming_csr(self) -> None:
        n = len(self._states)
        dst = self._dst
        counts = [0] * (n + 1)
        for d in dst:
            counts[d + 1] += 1
        for i in range(n):
            counts[i + 1] += counts[i]
        in_start = array("q", counts)
        in_eid = array("q", bytes(8 * len(dst)))
        cursor = list(in_start[:n])
        for eid in range(len(dst)):
            d = dst[eid]
            in_eid[cursor[d]] = eid
            cursor[d] += 1
        self._in_start = in_start
        self._in_eid = in_eid

    def is_terminal(self, index: int) -> bool:
        """Whether the state at ``index`` enables no command."""
        return not self._enabled_masks[index]

    def terminal_indices(self) -> List[int]:
        """Indices of all terminal (no command enabled) states."""
        masks = self._enabled_masks
        return [i for i in range(len(self._states)) if not masks[i]]

    def to_transition(self, t: IndexedTransition) -> Transition:
        """Convert an indexed transition back to state form."""
        return Transition(self._states[t.source], t.command, self._states[t.target])

    # -- engine view -----------------------------------------------------

    @property
    def command_table(self) -> CommandTable:
        """The graph's interned command-label table."""
        return self._table

    @property
    def packed(self) -> PackedGraph:
        """The CSR adjacency over the graph's own transition columns.

        Indexed lazily on first use (a single counting sort); the columns
        themselves were filled during exploration, so no per-transition
        objects are ever rebuilt.
        """
        if self._packed is None:
            self._packed = PackedGraph.from_columns(
                len(self._states), self._src, self._cmd, self._dst
            )
        return self._packed

    @property
    def enabled_masks(self) -> Sequence[int]:
        """Per-state enabled-command bitmasks over :attr:`command_table`."""
        return self._enabled_masks

    @property
    def transition_columns(self) -> Tuple[array, array, array]:
        """The raw ``(src, cmd_id, dst)`` columns, in transition order."""
        return self._src, self._cmd, self._dst

    @property
    def analyses(self):
        """Cached :class:`repro.engine.analysis.GraphAnalyses` for this graph.

        Shares the graph's own command table, packed arrays and enabled
        bitmasks — construction does no per-transition work — and adds the
        memoized full-graph SCC decomposition plus region-query helpers.
        """
        if self._analyses is None:
            from repro.engine.analysis import GraphAnalyses

            self._analyses = GraphAnalyses(self)
        return self._analyses

    # -- derived facts ---------------------------------------------------

    def commands_executed_within(self, indices: Iterable[int]) -> frozenset:
        """Commands executed on transitions staying inside ``indices``.

        ``indices`` may be any iterable; passing a ``set``/``frozenset``
        skips re-materialisation, and the answer is assembled from cached
        bitmasks rather than per-call frozenset churn.
        """
        analyses = self.analyses
        return analyses.labels_of_mask(analyses.executed_mask_within(indices))

    def commands_enabled_within(self, indices: Iterable[int]) -> frozenset:
        """Commands enabled at some state of ``indices``."""
        analyses = self.analyses
        return analyses.labels_of_mask(analyses.enabled_mask_within(indices))

    def describe(self) -> str:
        """One-line summary used by reports."""
        status = "complete" if self.complete else f"bounded (frontier {len(self._frontier)})"
        return (
            f"{len(self._states)} states, {len(self._src)} transitions, "
            f"{status}"
        )


def explore(
    system: TransitionSystem,
    max_states: int | None = None,
    max_depth: int | None = None,
    strict: bool = False,
    n_jobs: int | None = None,
    observer: ExplorationObserver | None = None,
) -> ReachableGraph:
    """Breadth-first exploration of the reachable states of ``system``.

    Parameters
    ----------
    max_states:
        Stop expanding after this many states have been discovered.
    max_depth:
        Do not expand states deeper than this many transitions from the
        initial states.
    strict:
        If true, raise :class:`ExplorationLimitError` when a bound truncates
        exploration instead of returning an incomplete graph.
    n_jobs:
        Accepted for interface compatibility and ignored: exploration
        always runs in-process (only the columnar verification plane of
        :func:`~repro.measures.verification.check_measure` fans out).
    observer:
        An :class:`ExplorationObserver` receiving streaming callbacks on
        state discovery, transition emission and state completion, with
        :class:`StopExploration` as the early-exit control signal.  The
        event stream is identical for every job count.
    """
    system.validate_commands()
    if not telemetry.enabled():
        graph = _explore_rounds(
            system, _expand_step(system), max_states, max_depth, strict,
            observer,
        )
        _emit_explore_summary(system, graph)
        return graph
    # Telemetry wrapper: one span around the whole exploration, totals
    # counted once at the end (never inside the BFS loop), and the
    # system's successor-cache counters unified into the registry as the
    # delta this exploration contributed.
    cache_stats = getattr(system, "successor_cache_stats", None)
    before = cache_stats() if cache_stats is not None else None
    step = _expand_step(system)
    with telemetry.span(
        "explore",
        system=getattr(system, "name", type(system).__name__),
        step=step.name,
    ) as sp:
        try:
            graph = _explore_rounds(
                system, step, max_states, max_depth, strict, observer
            )
        except ExplorationLimitError:
            telemetry.count("explore.strict_aborts")
            raise
        telemetry.count("explore.runs")
        telemetry.count("explore.states", len(graph))
        telemetry.count("explore.transitions", len(graph.transition_columns[0]))
        telemetry.count("explore.frontier_states", len(graph.frontier))
        if not graph.complete:
            telemetry.count("explore.truncated")
        if before is not None:
            hits, misses = cache_stats()
            telemetry.count("succache.hit", hits - before[0])
            telemetry.count("succache.miss", misses - before[1])
        sp.set("states", len(graph))
        sp.set("complete", graph.complete)
    _emit_explore_summary(system, graph)
    return graph


def _emit_explore_summary(system: TransitionSystem, graph: ReachableGraph) -> None:
    """One ``explore.summary`` event per finished exploration — a phase
    boundary, so it goes to the always-on flight recorder unconditionally."""
    events.emit(
        events.EXPLORE_SUMMARY,
        system=getattr(system, "name", type(system).__name__),
        states=len(graph),
        transitions=len(graph.transition_columns[0]),
        frontier=len(graph.frontier),
        complete=graph.complete,
    )


class _LabelIds(dict):
    """``label → id`` over a growing label list: an unseen label (one
    outside ``system.commands()``) is appended on first lookup."""

    __slots__ = ("labels",)

    def __init__(self, labels: List[str]) -> None:
        super().__init__(zip(labels, range(len(labels))))
        self.labels = labels

    def __missing__(self, label: str) -> int:
        k = len(self.labels)
        self.labels.append(label)
        self[label] = k
        return k


class StateStep:
    """The expand step of every system without a value plane.

    Calls ``expand`` (by default ``system.expand``) once per pending
    state, in-process; the keys the merge interns are the states
    themselves.  The graph store's incremental replay plugs its
    replaying ``expand``/``enabled`` in here.
    """

    name = "states"
    keys_are_states = True

    __slots__ = ("_expand", "enabled", "_label_ids")

    def __init__(self, expand, enabled) -> None:
        self._expand = expand
        self.enabled = enabled
        self._label_ids: Dict[str, int] = {}

    @staticmethod
    def key_of(state: State) -> State:
        return state

    make_state = key_of

    def bind(self, label_ids: Dict[str, int]) -> Dict[str, int]:
        """Command → label id: posts carry labels, looked up directly."""
        self._label_ids = label_ids
        return label_ids

    def expand(self, states, pending, want_masks, index):
        expand = self._expand
        label_ids = self._label_ids
        results = []
        for i in pending:
            enabled, posts = expand(states[i])
            mask = 0
            for label in enabled:
                mask |= 1 << label_ids[label]
            results.append((mask, posts))
        return results, None


def _expand_step(system: TransitionSystem):
    """The expand step for ``system``, chosen once per exploration: the
    batched value plane when the system has one, else :class:`StateStep`."""
    plane = system.value_plane()
    if plane is not None:
        from repro.engine.shard import ValuePlaneStep

        step = ValuePlaneStep.prepare(system, plane)
        if step is not None:
            return step
    return StateStep(system.expand, system.enabled)


def _stop_counters(states_discovered: int) -> None:
    """Phase-boundary telemetry for one :class:`StopExploration` signal."""
    telemetry.count("stream.stops")
    telemetry.count("stream.states_at_stop", states_discovered)


def _explore_rounds(
    system: TransitionSystem,
    step,
    max_states: int | None,
    max_depth: int | None,
    strict: bool,
    observer: ExplorationObserver | None = None,
) -> ReachableGraph:
    """The BFS: each round expands every pending state, then merges.

    **Why rounds give the FIFO graph.**  A FIFO BFS pops states in
    first-discovery order, so it expands them in ascending index order,
    level by level: the states discovered while expanding round ``r``
    occupy a contiguous index range, and all of them are expanded — with
    identical budget/depth bookkeeping — before any state of round
    ``r + 1``.  Expansion itself is a pure function of the state.  So
    exploration factors into

    1. computing ``(enabled, posts)`` for every state of the round — the
       *expand step*, free to batch however it likes — and
    2. the merge below, which interns successors, assigns indices,
       records transitions and applies ``max_states``/``max_depth``/
       ``strict`` accounting **in pending order, posts order** — exactly
       the order a FIFO loop would see them.

    State indices, transition order, enabled masks, frontier sets,
    observer events and :class:`ExplorationLimitError` messages are
    therefore the same for every step;
    ``tests/engine/test_explore_paths.py`` checks them against the FIFO
    loop kept in :func:`repro.engine.reference.explore_reference`.

    ``step`` keys states for the merge (``key_of``/``make_state``: the
    state itself, or its value row) and reports posts as ``(command id,
    key)`` pairs, command ids mapped to label ids by ``step.bind``.
    """
    key_of = step.key_of
    states: List[State] = []
    index: Dict[object, int] = {}  # key → state index
    for s in system.initial_states():
        key = key_of(s)
        if key not in index:
            index[key] = len(states)
            states.append(s)
    initial_count = len(states)
    if initial_count == 0:
        raise ValueError("system has no initial states")

    labels: List[str] = list(system.commands())
    label_ids = _LabelIds(labels)
    kmap = step.bind(label_ids)
    src = array("q")
    cmd = array("q")
    dst = array("q")
    # Parallel to ``states``: enabled mask (-1 = not yet computed) and an
    # expanded flag.  Flat arrays, not dicts/sets — a million-state run
    # must not allocate a million boxed ints of bookkeeping.
    emask_of: List[int] = [-1] * initial_count
    expanded = bytearray(initial_count)
    frontier: Set[int] = set()
    truncated = False

    traced = telemetry.enabled()
    # ``None`` unless live progress was opted into.
    progress = telemetry.progress_reporter()
    round_events = events.round_ticker()
    # Mask → frozenset memo for ``on_expanded`` and priming.
    mask_labels: Dict[int, frozenset] = {}

    def labels_of(mask: int) -> frozenset:
        enabled_set = mask_labels.get(mask)
        if enabled_set is None:
            mask_labels[mask] = enabled_set = frozenset(
                labels[b] for b in range(mask.bit_length()) if (mask >> b) & 1
            )
        return enabled_set

    # The merge runs once per transition of the whole graph; bind every
    # repeated attribute lookup to a local once per exploration.
    lookup = index.get
    make_state = step.make_state
    states_append = states.append
    src_append = src.append
    cmd_append = cmd.append
    dst_append = dst.append
    emask_append = emask_of.append
    expanded_append = expanded.append
    tracked = observer is not None
    unbudgeted = max_states is None
    # Streaming verifiers under command fairness ask for per-round
    # enabled-mask deltas (``_StreamingVerifier.wants_enabled_masks``):
    # a value-plane step batches guards-only masks for each round's fresh
    # rows and the merge primes the observer, replacing its serial
    # re-derivation.  Guards are pure, so priming never changes a verdict.
    prime = None
    if tracked and getattr(observer, "wants_enabled_masks", False):
        prime = getattr(observer, "prime_enabled", None)
    want_masks = prime is not None

    tick = round_events.tick
    expand_round = step.expand

    pending: List[int] = list(range(initial_count))
    round_depth = 0
    i = -1
    finalized = -1
    try:
        if tracked:
            for idx in range(initial_count):
                observer.on_state(idx, states[idx], 0)
        while pending:
            if max_depth is not None and round_depth > max_depth:
                # Every pending state sits at the same BFS depth — the
                # depth bound cuts the whole round.
                frontier.update(pending)
                truncated = True
                break
            if traced:
                telemetry.count("shard.rounds")
                telemetry.count(f"shard.{step.name}_rounds")
                telemetry.observe("shard.round_pending", len(pending))
            if progress is not None:
                progress.maybe(len(states), len(pending), round_depth)
            tick(round_depth, len(pending), len(states))
            round_span = (
                telemetry.span(
                    "shard_round", round=round_depth, pending=len(pending)
                )
                if traced
                else telemetry.NOOP_SPAN
            )
            with round_span:
                results, row_masks = expand_round(
                    states, pending, want_masks, index
                )
                if traced:
                    telemetry.count("shard.states_expanded", len(pending))
                    telemetry.count(
                        "shard.posts", sum(len(posts) for _, posts in results)
                    )
                merge_started = time.perf_counter() if traced else 0.0
                next_pending: List[int] = []
                pending_append = next_pending.append
                successor_depth = round_depth + 1
                if row_masks is not None:
                    # This round's sources: their masks arrived with the
                    # expansion results, so transitions between same-round
                    # states never fall back to serial derivation.
                    for p, (p_mask, _) in zip(pending, results):
                        prime(p, labels_of(p_mask))
                for i, (mask, posts) in zip(pending, results):
                    expanded[i] = 1
                    emask_of[i] = mask
                    at_budget = not unbudgeted and len(states) >= max_states
                    for command, key in posts:
                        j = lookup(key)
                        if at_budget:
                            if j is None:
                                # A genuinely new successor is lost at the
                                # state budget: the source becomes frontier
                                # (its recorded prefix is dropped at the end).
                                frontier.add(i)
                                truncated = True
                                break
                        elif j is None:
                            j = len(states)
                            target = make_state(key)
                            states_append(target)
                            index[key] = j
                            emask_append(-1)
                            expanded_append(0)
                            pending_append(j)
                            if not unbudgeted:
                                at_budget = j + 1 >= max_states
                            if tracked:
                                observer.on_state(j, target, successor_depth)
                                if row_masks is not None:
                                    p_mask = row_masks.get(key)
                                    if p_mask is not None:
                                        prime(j, labels_of(p_mask))
                        k = kmap[command]
                        src_append(i)
                        cmd_append(k)
                        dst_append(j)
                        if tracked:
                            observer.on_transition(i, labels[k], j)
                    else:
                        # No budget break: the recorded transitions are final.
                        if tracked:
                            finalized = i
                            observer.on_expanded(i, labels_of(mask))
                if traced:
                    telemetry.observe(
                        "shard.merge_s", time.perf_counter() - merge_started
                    )
            pending = next_pending
            round_depth += 1
    except StopExploration:
        # The state whose merge was in flight reverts to frontier, so its
        # partially-observed transitions are dropped by ``_finish_graph``
        # like any other truncated source; a stop raised from its own
        # ``on_expanded`` keeps the (final, already consumed) transitions.
        # States of the round not merged yet stay unexpanded, and no
        # further round is expanded.  ``truncated`` is deliberately not
        # set: stopping is a consumer verdict, not a bound.
        if i >= 0 and i != finalized and expanded[i]:
            expanded[i] = 0
        _stop_counters(len(states))

    if progress is not None:
        progress.close()
    return _finish_graph(
        system=system,
        states=states,
        index=index if step.keys_are_states else None,
        labels=labels,
        label_ids=label_ids,
        src=src,
        cmd=cmd,
        dst=dst,
        emask_of=emask_of,
        expanded=expanded,
        frontier=frontier,
        initial_count=initial_count,
        truncated=truncated,
        strict=strict,
        max_states=max_states,
        max_depth=max_depth,
        enabled_fn=step.enabled,
    )


def _finish_graph(
    system: TransitionSystem,
    states: List[State],
    index: Dict[State, int] | None,
    labels: List[str],
    label_ids: Dict[str, int],
    src: array,
    cmd: array,
    dst: array,
    emask_of: List[int],
    expanded: bytearray,
    frontier: Set[int],
    initial_count: int,
    truncated: bool,
    strict: bool,
    max_states: int | None,
    max_depth: int | None,
    enabled_fn,
) -> ReachableGraph:
    """The tail of exploration.

    Applies the strict-mode check, completes the frontier with never-expanded
    states, fills in guards-only enabled masks for them, drops transitions
    recorded from partially-expanded frontier sources, and assembles the
    compact graph.
    """
    if truncated and strict:
        raise ExplorationLimitError(
            f"exploration truncated at {len(states)} states "
            f"(max_states={max_states}, max_depth={max_depth})"
        )

    # States discovered but never expanded (depth cut or budget exhaustion).
    for i in range(len(states)):
        if not expanded[i]:
            frontier.add(i)

    for i in range(len(states)):
        if emask_of[i] < 0:
            mask = 0
            for label in enabled_fn(states[i]):
                mask |= 1 << label_ids[label]
            emask_of[i] = mask

    # Keep only transitions whose source was genuinely expanded; a partially
    # expanded frontier state may have recorded a prefix of its successors,
    # which would bias analyses that assume all-or-nothing expansion.
    if frontier:
        ksrc = array("q")
        kcmd = array("q")
        kdst = array("q")
        for eid in range(len(src)):
            s = src[eid]
            if s in frontier:
                continue
            ksrc.append(s)
            kcmd.append(cmd[eid])
            kdst.append(dst[eid])
        src, cmd, dst = ksrc, kcmd, kdst

    return ReachableGraph.from_arrays(
        system=system,
        states=states,
        labels=labels,
        src=src,
        cmd=cmd,
        dst=dst,
        enabled_masks=emask_of,
        initial_count=initial_count,
        frontier=frontier,
        index=index,
    )
