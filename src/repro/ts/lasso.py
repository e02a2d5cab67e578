"""Paths and lassos — finite representations of infinite computations.

An ultimately periodic infinite computation ``stem · cycle^ω`` is the only
kind a finite-state system needs (if any fair infinite computation exists,
an ultimately periodic fair one does), and the only kind that can be handed
to code.  Fairness of a lasso is decidable by inspecting its cycle:
a command is *executed infinitely often* iff it labels a cycle transition,
and *enabled infinitely often* iff it is enabled at some cycle state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Tuple

from repro.ts.explore import IndexedTransition, ReachableGraph
from repro.ts.system import CommandLabel, State, Transition


@dataclass(frozen=True)
class Path:
    """A finite path: ``states[i] --commands[i]--> states[i+1]``."""

    states: Tuple[State, ...]
    commands: Tuple[CommandLabel, ...]

    def __post_init__(self) -> None:
        if len(self.states) != len(self.commands) + 1:
            raise ValueError(
                f"a path over {len(self.commands)} transitions needs "
                f"{len(self.commands) + 1} states, got {len(self.states)}"
            )

    def __len__(self) -> int:
        return len(self.commands)

    @property
    def first(self) -> State:
        """The starting state."""
        return self.states[0]

    @property
    def last(self) -> State:
        """The final state."""
        return self.states[-1]

    def transitions(self) -> Iterator[Transition]:
        """The transitions along the path, in order."""
        for i, command in enumerate(self.commands):
            yield Transition(self.states[i], command, self.states[i + 1])

    def extend(self, command: CommandLabel, target: State) -> "Path":
        """The path with one more transition appended."""
        return Path(self.states + (target,), self.commands + (command,))

    @staticmethod
    def singleton(state: State) -> "Path":
        """The empty path sitting at ``state``."""
        return Path((state,), ())


@dataclass(frozen=True)
class Lasso:
    """An ultimately periodic computation ``stem · cycle^ω``.

    ``stem`` ends where ``cycle`` begins and ends (``cycle.first ==
    cycle.last == stem.last``); the cycle must contain at least one
    transition.
    """

    stem: Path
    cycle: Path

    def __post_init__(self) -> None:
        if len(self.cycle) == 0:
            raise ValueError("a lasso's cycle needs at least one transition")
        if self.cycle.first != self.cycle.last:
            raise ValueError("cycle must start and end at the same state")
        if self.stem.last != self.cycle.first:
            raise ValueError("stem must end where the cycle starts")

    @property
    def knot(self) -> State:
        """The state where the cycle is entered."""
        return self.cycle.first

    def cycle_states(self) -> Tuple[State, ...]:
        """The distinct positions of the cycle (without repeating the knot)."""
        return self.cycle.states[:-1]

    def executed_infinitely_often(self) -> frozenset:
        """Commands executed on the cycle — hence infinitely often."""
        return frozenset(self.cycle.commands)

    def prefix(self, length: int) -> Path:
        """The finite prefix of the induced infinite computation."""
        states: List[State] = list(self.stem.states)
        commands: List[CommandLabel] = list(self.stem.commands)
        while len(commands) < length:
            for i, command in enumerate(self.cycle.commands):
                if len(commands) >= length:
                    break
                commands.append(command)
                states.append(self.cycle.states[i + 1])
        return Path(tuple(states[: length + 1]), tuple(commands[:length]))

    def describe(self) -> str:
        """Short rendering ``s0 -a-> s1 ... (loop: ...)``."""
        stem_part = " ".join(
            f"{s!r} -{c}->" for s, c in zip(self.stem.states, self.stem.commands)
        )
        cycle_part = " ".join(
            f"{s!r} -{c}->" for s, c in zip(self.cycle.states, self.cycle.commands)
        )
        return f"{stem_part} [loop: {cycle_part} {self.cycle.last!r}]"


def lasso_from_indices(
    graph: ReachableGraph,
    stem_transitions: Sequence[IndexedTransition],
    cycle_transitions: Sequence[IndexedTransition],
) -> Lasso:
    """Build a :class:`Lasso` from indexed transitions of ``graph``.

    The stem may be empty, in which case it sits at the cycle's first state
    (which must then be initial for the lasso to be a computation — callers
    enforce that where it matters).
    """
    if not cycle_transitions:
        raise ValueError("cycle_transitions must be non-empty")

    def to_path(transitions: Sequence[IndexedTransition], at: int) -> Path:
        if not transitions:
            return Path.singleton(graph.state_of(at))
        states = [graph.state_of(transitions[0].source)]
        commands: List[CommandLabel] = []
        for t in transitions:
            if graph.state_of(t.source) != states[-1]:
                raise ValueError("transitions do not chain")
            commands.append(t.command)
            states.append(graph.state_of(t.target))
        return Path(tuple(states), tuple(commands))

    cycle = to_path(cycle_transitions, cycle_transitions[0].source)
    stem = to_path(stem_transitions, cycle_transitions[0].source)
    return Lasso(stem=stem, cycle=cycle)


def find_path_indices(
    graph: ReachableGraph,
    sources: Iterable[int],
    target: int,
    allowed: Iterable[int] | None = None,
) -> List[IndexedTransition]:
    """BFS a transition sequence from any of ``sources`` to ``target``.

    ``allowed`` optionally restricts intermediate states.  Raises
    ``ValueError`` when unreachable — callers use this for witness
    construction where reachability was already established.
    """
    allowed_set = None if allowed is None else set(allowed)
    from collections import deque

    parents: dict[int, IndexedTransition] = {}
    seen = set(sources)
    queue = deque(seen)
    if target in seen:
        return []
    while queue:
        node = queue.popleft()
        for t in graph.outgoing(node):
            if allowed_set is not None and t.target not in allowed_set:
                continue
            if t.target in seen:
                continue
            seen.add(t.target)
            parents[t.target] = t
            if t.target == target:
                chain: List[IndexedTransition] = []
                current = target
                while current in parents:
                    step = parents[current]
                    chain.append(step)
                    current = step.source
                chain.reverse()
                return chain
            queue.append(t.target)
    raise ValueError(f"state index {target} not reachable from {sorted(set(sources))}")


def cycle_through_all(
    graph: ReachableGraph,
    component: Sequence[int],
) -> List[IndexedTransition]:
    """A cycle inside ``component`` traversing *every* internal transition.

    Such a "grand tour" exists for any SCC with at least one internal
    transition: walk to each untaken transition in turn and finally walk
    back to the start.  The tour executes every command executed anywhere in
    the component — which is what makes it the canonical *fair* cycle when
    no command is enabled-but-never-executed there.
    """
    inside = set(component)
    internal = [
        t for i in component for t in graph.outgoing(i) if t.target in inside
    ]
    if not internal:
        raise ValueError("component has no internal transition")
    tour: List[IndexedTransition] = []
    position = internal[0].source
    remaining = list(internal)
    while remaining:
        # Pick any remaining transition; walk to its source, then take it.
        step = remaining.pop()
        walk = find_path_indices(graph, [position], step.source, allowed=inside)
        tour.extend(walk)
        tour.append(step)
        position = step.target
    tour.extend(find_path_indices(graph, [position], internal[0].source, allowed=inside))
    if not tour:
        raise ValueError("failed to build a tour")
    return tour


def grand_tour_lasso(graph: ReachableGraph, component: Sequence[int]) -> Lasso:
    """The lasso whose cycle is ``component``'s grand tour
    (:func:`cycle_through_all`), reached by a shortest stem from the
    initial states."""
    cycle = cycle_through_all(graph, component)
    stem = find_path_indices(graph, graph.initial_indices, cycle[0].source)
    return lasso_from_indices(graph, stem, cycle)
