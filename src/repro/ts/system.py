"""Transition systems — the paper's program model.

Section 4.1: "A program P defines a transition relation → on a countable set
of program states; moreover, P defines a set of initial program states and a
finite set of commands.  A command ... is designated by a label ℓ, and P
defines for each program state whether ℓ is enabled or disabled.  A
transition p → p' describes the execution of exactly one command, which is
enabled in p."

:class:`TransitionSystem` is that definition as an abstract base class; the
rest of the library is written against it, so the method — like the paper's
results — "applies to strong fairness in all transition systems", not just
guarded commands.  :class:`ExplicitSystem` is the direct finite
representation used heavily in tests and by the random workload generators.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Mapping, Sequence, Set, Tuple

State = Hashable
CommandLabel = str


@dataclass(frozen=True)
class Transition:
    """One execution step ``source →(command) target``."""

    source: State
    command: CommandLabel
    target: State

    def __str__(self) -> str:
        return f"{self.source!r} --{self.command}--> {self.target!r}"


class TransitionSystem(ABC):
    """A labelled transition system with per-state command enabledness.

    States must be hashable (they key dictionaries throughout).  The command
    set is finite and fixed — the paper assumes "the number of different
    commands is finite", and the completeness construction's stack height
    bound ``N + 1`` depends on it.
    """

    @abstractmethod
    def commands(self) -> Tuple[CommandLabel, ...]:
        """The finite tuple of command labels, in a fixed order."""

    @abstractmethod
    def initial_states(self) -> Iterable[State]:
        """The initial program states."""

    @abstractmethod
    def enabled(self, state: State) -> frozenset:
        """The set of command labels enabled in ``state``."""

    @abstractmethod
    def post(self, state: State) -> Iterable[Tuple[CommandLabel, State]]:
        """All ``(command, successor)`` pairs from ``state``.

        Every yielded command must be enabled in ``state``; a command may
        yield several successors (nondeterministic commands are allowed).
        """

    def is_terminal(self, state: State) -> bool:
        """Whether no command is enabled (the program has terminated)."""
        return not self.enabled(state)

    def expand(self, state: State) -> Tuple[frozenset, Tuple[Tuple[CommandLabel, State], ...]]:
        """``(enabled(state), tuple(post(state)))`` computed together.

        Exploration expands through this hook so systems that derive both
        answers from the same work — a GCL program evaluates each guard
        once for enabledness *and* body execution — can override it and
        share (or cache) that work.  The default simply delegates, so the
        two views always agree.
        """
        return self.enabled(state), tuple(self.post(state))

    def transitions_from(self, state: State) -> Iterable[Transition]:
        """The outgoing :class:`Transition` objects of ``state``."""
        for command, target in self.post(state):
            yield Transition(state, command, target)

    def validate_commands(self) -> None:
        """Sanity-check the command tuple (finite, non-empty, unique)."""
        commands = self.commands()
        if not commands:
            raise ValueError("a transition system needs at least one command")
        if len(set(commands)) != len(commands):
            raise ValueError(f"duplicate command labels in {commands!r}")

    def value_plane(self):
        """The system's packed value plane, or ``None`` (the default).

        A *value plane* (:class:`repro.gcl.program.ProgramValuePlane` is
        the canonical one) exposes the system's states as flat int64
        tuples with batched expansion, which lets exploration evaluate
        guards once per BFS round instead of once per state.  Systems without
        a natural flat encoding simply return ``None`` and are expanded
        one state at a time; results are bit-identical either way.
        """
        return None


class ExplicitSystem(TransitionSystem):
    """A transition system given by explicit dictionaries.

    Parameters
    ----------
    commands:
        All command labels.
    initial:
        The initial states.
    transitions:
        Triples ``(source, command, target)``.
    enabled:
        Optional map ``state → set of enabled commands``.  When omitted, a
        command is considered enabled in a state iff some transition executes
        it there.  Supplying the map explicitly allows the crucial
        *enabled-but-not-taken* situations that make fairness non-trivial —
        e.g. a command that is enabled in a state but whose execution the
        modelled scheduler may forever avoid... is just an extra transition;
        but a command enabled in states with *no* matching transition would
        be a modelling error, so that case is rejected.
    """

    def __init__(
        self,
        commands: Sequence[CommandLabel],
        initial: Iterable[State],
        transitions: Iterable[Tuple[State, CommandLabel, State]],
        enabled: Mapping[State, Iterable[CommandLabel]] | None = None,
    ) -> None:
        self._commands = tuple(commands)
        self._initial = tuple(initial)
        self._post: Dict[State, list[Tuple[CommandLabel, State]]] = {}
        self._states: Set[State] = set(self._initial)
        executed_at: Dict[State, Set[CommandLabel]] = {}
        # The transition relation is a set: duplicates collapse.
        seen: Set[Tuple[State, CommandLabel, State]] = set()
        for source, command, target in transitions:
            if command not in self._commands:
                raise ValueError(f"transition uses unknown command {command!r}")
            if (source, command, target) in seen:
                continue
            seen.add((source, command, target))
            self._post.setdefault(source, []).append((command, target))
            executed_at.setdefault(source, set()).add(command)
            self._states.add(source)
            self._states.add(target)
        if enabled is None:
            self._enabled = {
                state: frozenset(cmds) for state, cmds in executed_at.items()
            }
        else:
            self._enabled = {
                state: frozenset(cmds) for state, cmds in enabled.items()
            }
            for state, cmds in executed_at.items():
                missing = cmds - self._enabled.get(state, frozenset())
                if missing:
                    raise ValueError(
                        f"commands {sorted(missing)} executed at {state!r} "
                        "but not declared enabled there"
                    )
            for state, cmds in self._enabled.items():
                self._states.add(state)
                ghost = cmds - executed_at.get(state, set())
                if ghost:
                    raise ValueError(
                        f"commands {sorted(ghost)} declared enabled at {state!r} "
                        "but have no transition from it; a transition p → p' "
                        "requires the executed command to be enabled, and an "
                        "enabled command must be executable"
                    )
        self.validate_commands()

    def commands(self) -> Tuple[CommandLabel, ...]:
        return self._commands

    def initial_states(self) -> Iterable[State]:
        return self._initial

    def enabled(self, state: State) -> frozenset:
        return self._enabled.get(state, frozenset())

    def post(self, state: State) -> Iterable[Tuple[CommandLabel, State]]:
        return tuple(self._post.get(state, ()))

    @property
    def known_states(self) -> frozenset:
        """Every state mentioned in the construction (not just reachable)."""
        return frozenset(self._states)


class RenamedSystem(TransitionSystem):
    """A view of a system with states mapped through an injective function.

    Used by transformations (history variables, scheduler products) when the
    natural state representation should be normalised before hashing or
    display.  The renaming must be injective on reachable states; collisions
    would silently merge distinct states, so :meth:`post` re-checks.
    """

    def __init__(self, base: TransitionSystem, rename, unrename) -> None:
        self._base = base
        self._rename = rename
        self._unrename = unrename

    def commands(self) -> Tuple[CommandLabel, ...]:
        return self._base.commands()

    def initial_states(self) -> Iterable[State]:
        return (self._rename(s) for s in self._base.initial_states())

    def enabled(self, state: State) -> frozenset:
        return self._base.enabled(self._unrename(state))

    def post(self, state: State) -> Iterable[Tuple[CommandLabel, State]]:
        inner = self._unrename(state)
        if self._rename(inner) != state:
            raise ValueError(f"rename/unrename are not inverse at {state!r}")
        for command, target in self._base.post(inner):
            yield command, self._rename(target)
