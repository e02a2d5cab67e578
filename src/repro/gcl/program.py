"""Program semantics: a parsed GCL program as a transition system.

A :class:`Program` is the paper's ``*[ ℓ₁: g₁ → c₁ □ ... □ ℓ_N: g_N → c_N ]``
loop.  Its states are variable valuations; command ``ℓᵢ`` is *enabled* in a
state iff its guard holds there; a transition executes one enabled command's
body atomically.  The loop terminates in states where no guard holds.

Two execution engines implement those semantics:

* the **interpreter** (:mod:`repro.gcl.eval`) walks the syntax tree on every
  evaluation — the reference semantics, kept deliberately simple;
* the **compiled** forms (:mod:`repro.gcl.compile`) lower each guard and
  body once into closures over the value tuple, and a per-program
  *successor cache* memoizes ``(enabled, post)`` per visited state so
  revisited states never re-evaluate guards or re-execute bodies.

``compiled=True`` (the default) uses the fast path; the two are kept in
exact semantic parity by differential tests (``tests/gcl/test_compile.py``),
and exploration results are bit-identical either way.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.gcl.ast import GuardedCommand, ProgramAst
from repro.gcl.compile import CompiledProgram, Values
from repro.gcl.errors import EvalError
from repro.gcl.eval import evaluate_bool, evaluate_int, execute
from repro.gcl.parser import parse_program_ast
from repro.gcl.state import ProgramState
from repro.ts.system import CommandLabel, State, TransitionSystem

#: One memoized expansion: (enabled labels, ((label, post-state), ...)).
_Expansion = Tuple[frozenset, Tuple[Tuple[CommandLabel, ProgramState], ...]]

#: Hard cap on the number of states the successor cache may hold.  Each
#: entry pins a state, its post-states and a frozenset (~1 KB on a typical
#: grid program), so an uncapped cache would rival the graph itself on a
#: million-state exploration.  The cap comfortably covers every workload
#: that *benefits* from revisits (products, simulations, warm re-explores of
#: benchmark-sized programs); beyond it, expansion simply recomputes.
SUCCESSOR_CACHE_LIMIT = 1 << 16


class ProgramValuePlane:
    """A compiled program's states as flat int64 rows, expanded in batches.

    This is the GCL implementation of
    :meth:`~repro.ts.system.TransitionSystem.value_plane`: canonical
    :class:`ProgramState` objects are just ``(names, values)`` with the
    names fixed by the program, so a state round-trips through its bare
    value tuple (``state.values`` one way, :meth:`make_state` the other).  Exploration interns those tuples and calls
    :meth:`expand_batch` on whole BFS rounds — one batched guard kernel
    per guard per round instead of one closure call per guard per state.

    Command indices in the batch results are positions in :attr:`labels`,
    which is the program's declaration order — the same order
    :meth:`~repro.gcl.program.Program.commands` reports, so the explorer's
    label table aligns bit-for-bit.
    """

    __slots__ = ("_compiled", "names", "labels", "width")

    def __init__(self, compiled: CompiledProgram) -> None:
        self._compiled = compiled
        self.names: Tuple[str, ...] = compiled.names
        self.labels: Tuple[str, ...] = tuple(
            command.label for command in compiled.commands
        )
        self.width = len(self.names)

    def make_state(self, values: Values) -> ProgramState:
        """The canonical state of a flat row."""
        return ProgramState(self.names, values)

    def expand_values(self, values: Values) -> Tuple[int, List[Tuple[int, Values]]]:
        """One row's ``(enabled bitmask over labels, [(cmd index, post)])``."""
        return self._compiled.expand_values(values)

    def expand_batch(
        self, rows: Sequence[Values]
    ) -> List[Tuple[int, List[Tuple[int, Values]]]]:
        """:meth:`expand_values` of every row, batched per guard."""
        return self._compiled.expand_batch(rows)

    def enabled_batch(self, rows: Sequence[Values]) -> Optional[List[int]]:
        """Guards-only masks per row; ``None`` if a guard raises.

        The streaming checker's per-round enabled-mask deltas: the
        explorer batches the masks of freshly discovered successors here
        so the verifier never has to re-derive enabledness one state at a
        time.  A ``None`` simply
        skips the priming — the serial fallback recomputes, and any guard
        error keeps its serial-path surfacing point.
        """
        return self._compiled.enabled_masks_batch(rows)


class Program(TransitionSystem):
    """Executable semantics of a :class:`~repro.gcl.ast.ProgramAst`.

    ``compiled=False`` forces the tree-walking interpreter for every guard
    and body — used by the reference column of the exploration benchmarks
    and by the differential parity tests; behaviour is identical.
    """

    def __init__(self, ast: ProgramAst, compiled: bool = True) -> None:
        self._ast = ast
        self._names: Tuple[str, ...] = ast.variables()
        self._commands: Dict[str, GuardedCommand] = {
            c.label: c for c in ast.commands
        }
        self._labels: Tuple[str, ...] = ast.command_labels()
        self._compiled: Optional[CompiledProgram] = (
            CompiledProgram(ast) if compiled else None
        )
        self._plane: Optional[ProgramValuePlane] = None
        self._command_digests: Optional[Dict[str, str]] = None
        # Successor cache.  Exploration visits each state once, but
        # products, simulations, lasso replays and repeated explorations of
        # the same Program revisit states heavily; entries are plain tuples
        # over already-interned states, so the cache costs one dict slot per
        # distinct state actually expanded.  ``_enabled`` is filled by
        # guard-only queries too (bounded exploration asks for enabledness
        # of frontier states it never expands — that must not run bodies).
        self._enabled_cache: Dict[ProgramState, frozenset] = {}
        self._posts_cache: Dict[
            ProgramState, Tuple[Tuple[CommandLabel, ProgramState], ...]
        ] = {}
        self._cache_hits = 0
        self._cache_misses = 0

    # -- pickling / value plane -------------------------------------------

    def __getstate__(self):
        # Compiled closures and the successor cache do not travel; the
        # syntax tree does.  The receiving side re-runs ``__init__`` so a
        # worker-side Program is a fresh, semantically identical instance.
        return {"ast": self._ast, "compiled": self._compiled is not None}

    def __setstate__(self, state) -> None:
        self.__init__(state["ast"], compiled=state["compiled"])

    def value_plane(self) -> Optional[ProgramValuePlane]:
        """The packed value plane of a compiled program.

        ``None`` for interpreted programs (no closures to batch), for
        programs without variables (no rows to pack) and for programs
        with more than 64 commands (enabled masks must fit one machine
        word) — those are explored one state
        at a time through :meth:`expand`.
        """
        if (
            self._compiled is None
            or not self._names
            or len(self._labels) > 64
        ):
            return None
        if self._plane is None:
            self._plane = ProgramValuePlane(self._compiled)
        return self._plane

    # -- metadata ----------------------------------------------------------

    @property
    def ast(self) -> ProgramAst:
        """The underlying syntax tree."""
        return self._ast

    @property
    def name(self) -> str:
        """The program's declared name."""
        return self._ast.name

    @property
    def variable_names(self) -> Tuple[str, ...]:
        """Declared variables, in declaration order."""
        return self._names

    @property
    def uses_compiled_evaluation(self) -> bool:
        """Whether guards/bodies run as compiled closures."""
        return self._compiled is not None

    def command_digests(self) -> Dict[str, str]:
        """Per-command canonical digests: ``label → sha256 hex`` (cached).

        The digest of a command (:func:`repro.gcl.compile.command_digest`)
        identifies its guard/body semantics up to pretty-printer
        canonicalisation; the graph store compares these across program
        versions to decide which commands a stored graph can replay during
        incremental re-exploration.
        """
        if self._command_digests is None:
            from repro.gcl.compile import command_digest

            self._command_digests = {
                c.label: command_digest(c) for c in self._ast.commands
            }
        return dict(self._command_digests)

    def command(self, label: str) -> GuardedCommand:
        """The guarded command with the given label."""
        try:
            return self._commands[label]
        except KeyError:
            raise KeyError(
                f"program {self.name!r} has no command {label!r} "
                f"(has {list(self._labels)})"
            ) from None

    # -- successor cache ---------------------------------------------------

    def successor_cache_stats(self) -> Tuple[int, int]:
        """``(hits, misses)`` of the per-state expansion cache."""
        return self._cache_hits, self._cache_misses

    def clear_successor_cache(self) -> None:
        """Drop all memoized expansions (frees the per-state tuples)."""
        self._enabled_cache.clear()
        self._posts_cache.clear()
        self._cache_hits = 0
        self._cache_misses = 0

    def _is_canonical(self, state: ProgramState) -> bool:
        # Compiled slots assume declaration order; a state built with a
        # different name ordering (``ProgramState.from_dict`` sorts) must
        # take the interpreter path so its post-states preserve *its*
        # ordering, exactly as ``ProgramState.updated`` would.
        return self._compiled is not None and state.names == self._names

    def _compute_enabled(self, state: ProgramState) -> frozenset:
        """Guards only — never executes a body (frontier states rely on
        this: bounded exploration asks for their enabledness without
        expanding them, and a body error there must not surface)."""
        if self._is_canonical(state):
            return self._compiled.enabled_labels(state.values)
        return frozenset(
            label
            for label in self._labels
            if evaluate_bool(self._commands[label].guard, state)
        )

    def _compute_expansion(self, state: ProgramState) -> _Expansion:
        """Guards and bodies interleaved in label order — the interpreter's
        evaluation (and therefore error) order, one guard pass for both."""
        enabled: List[CommandLabel] = []
        posts: List[Tuple[CommandLabel, ProgramState]] = []
        if self._is_canonical(state):
            values = state.values
            names = self._names
            for command in self._compiled.commands:
                if command.guard(values):
                    enabled.append(command.label)
                    for post in command.execute(values):
                        posts.append((command.label, ProgramState(names, post)))
        else:
            for label in self._labels:
                command = self._commands[label]
                if evaluate_bool(command.guard, state):
                    enabled.append(label)
                    for target in execute(command.body, state):
                        posts.append((label, target))
        return frozenset(enabled), tuple(posts)

    def expand(self, state: State) -> _Expansion:
        """``(enabled, posts)`` computed together and memoized per state.

        Guards are evaluated once per distinct expanded state *ever*:
        exploration, products, simulation and lasso replay all share the
        cache.
        """
        assert isinstance(state, ProgramState)
        posts = self._posts_cache.get(state)
        if posts is not None:
            self._cache_hits += 1
            return self._enabled_cache[state], posts
        self._cache_misses += 1
        enabled, posts = self._compute_expansion(state)
        if len(self._posts_cache) < SUCCESSOR_CACHE_LIMIT:
            self._enabled_cache[state] = enabled
            self._posts_cache[state] = posts
        return enabled, posts

    # -- TransitionSystem ----------------------------------------------------

    def commands(self) -> Tuple[CommandLabel, ...]:
        return self._labels

    def initial_states(self) -> Iterable[State]:
        """All combinations of declared initial values/ranges.

        Range declarations are evaluated left to right; a later range bound
        may mention earlier variables (e.g. ``var n := 5, x in 0..n``).
        """

        def expand(position: int, partial: Dict[str, int]) -> Iterable[ProgramState]:
            if position == len(self._ast.declarations):
                yield ProgramState(
                    self._names, tuple(partial[n] for n in self._names)
                )
                return
            decl = self._ast.declarations[position]
            low = evaluate_int(decl.init_low, partial)
            high = evaluate_int(decl.init_high, partial)
            if low > high:
                raise EvalError(
                    f"variable {decl.name!r}: empty initial range {low}..{high}",
                    decl.location,
                )
            for value in range(low, high + 1):
                partial[decl.name] = value
                yield from expand(position + 1, partial)
            del partial[decl.name]

        return expand(0, {})

    def enabled(self, state: State) -> frozenset:
        assert isinstance(state, ProgramState)
        cached = self._enabled_cache.get(state)
        if cached is not None:
            self._cache_hits += 1
            return cached
        self._cache_misses += 1
        enabled = self._compute_enabled(state)
        if len(self._enabled_cache) < SUCCESSOR_CACHE_LIMIT:
            self._enabled_cache[state] = enabled
        return enabled

    def post(self, state: State) -> Iterable[Tuple[CommandLabel, State]]:
        assert isinstance(state, ProgramState)
        return self.expand(state)[1]

    # -- conveniences ----------------------------------------------------------

    def state(self, **valuation: int) -> ProgramState:
        """Build a state of this program from keyword arguments."""
        missing = set(self._names) - set(valuation)
        extra = set(valuation) - set(self._names)
        if missing or extra:
            raise ValueError(
                f"state for {self.name!r} needs exactly {self._names}; "
                f"missing {sorted(missing)}, extra {sorted(extra)}"
            )
        return ProgramState(
            self._names, tuple(int(valuation[n]) for n in self._names)
        )

    def guard_holds(self, label: str, state: ProgramState) -> bool:
        """Whether command ``label``'s guard holds in ``state``."""
        command = self.command(label)  # validates the label either way
        if self._is_canonical(state):
            return self._compiled.by_label[label].guard(state.values)
        return evaluate_bool(command.guard, state)


def parse_program(source: str, compiled: bool = True) -> Program:
    """Parse GCL source text into an executable :class:`Program`."""
    return Program(parse_program_ast(source), compiled=compiled)
