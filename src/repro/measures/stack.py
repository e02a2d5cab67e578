"""Stacks of progress hypotheses.

"A stack assignment is a mapping that maps each program state p to a list
μ(p) of progress hypotheses such that the T-hypothesis is at level 0, i.e.
at the bottom.  (It can be assumed that all the hypotheses are different,
i.e. there is at most one ℓ-hypothesis in μ(p) for each ℓ.)"

:class:`Stack` enforces exactly those invariants.  Levels count from the
bottom: level 0 is the T-hypothesis; the paper's display convention is
top-down, which :meth:`Stack.render` follows.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional, Sequence, Tuple

from repro.measures.hypotheses import Hypothesis


class Stack:
    """An immutable stack of distinct hypotheses with ``T : w`` at level 0."""

    __slots__ = ("_entries", "_levels", "_hash")

    def __init__(self, entries: Iterable[Hypothesis]) -> None:
        entries = tuple(entries)
        if not entries:
            raise ValueError("a stack must contain at least the T-hypothesis")
        if not entries[0].is_termination:
            raise ValueError(
                f"level 0 must be the T-hypothesis, got {entries[0]}"
            )
        # T sits at level 0, so a T anywhere above is a duplicate too.
        levels = {}
        for i, hypothesis in enumerate(entries):
            levels[hypothesis.subject] = i
        if len(levels) != len(entries):
            subjects = [h.subject for h in entries]
            raise ValueError(f"duplicate hypotheses in stack: {subjects}")
        self._entries: Tuple[Hypothesis, ...] = entries
        self._levels = levels
        self._hash = hash(entries)

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def bottom_up(entries: Sequence[Hypothesis]) -> "Stack":
        """Build from bottom (T) to top — the internal order."""
        return Stack(entries)

    @staticmethod
    def top_down(entries: Sequence[Hypothesis]) -> "Stack":
        """Build from top to bottom — the paper's display order.

        ``Stack.top_down([Hypothesis('lb'), Hypothesis('la', 3),
        Hypothesis('T', 7)])`` is the paper's
        ``(lb / la: 3 / T: 7)``.
        """
        return Stack(tuple(reversed(tuple(entries))))

    # -- queries ---------------------------------------------------------------

    @property
    def entries(self) -> Tuple[Hypothesis, ...]:
        """Hypotheses bottom-up: ``entries[0]`` is ``T : w``."""
        return self._entries

    @property
    def height(self) -> int:
        """Number of hypotheses (≥ 1)."""
        return len(self._entries)

    def level(self, index: int) -> Hypothesis:
        """The hypothesis at ``index`` (0 = bottom)."""
        return self._entries[index]

    def level_of(self, subject: str) -> Optional[int]:
        """The level of the ``subject``-hypothesis, or ``None`` if absent."""
        return self._levels.get(subject)

    def measure(self, subject: str) -> Optional[Any]:
        """The ``α``-measure ``μ^α``: the value of the subject's hypothesis.

        ``None`` when the hypothesis is absent *or* bare; use
        :meth:`level_of` to distinguish.
        """
        level = self._levels.get(subject)
        if level is None:
            return None
        return self._entries[level].value

    def termination_measure(self) -> Any:
        """``μ^T`` — the value at level 0."""
        return self._entries[0].value

    def subjects(self) -> Tuple[str, ...]:
        """All subjects bottom-up, starting with ``T``."""
        return tuple(h.subject for h in self._entries)

    def below(self, level: int) -> Tuple[Hypothesis, ...]:
        """The entries strictly below ``level`` (levels ``0..level-1``)."""
        return self._entries[:level]

    def __iter__(self) -> Iterator[Hypothesis]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Stack):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return self._hash

    # -- display ---------------------------------------------------------------

    def render(self) -> str:
        """Paper-style inline rendering, top hypothesis first.

        The example annotation of ``P4'`` renders as
        ``(lb / la: z mod 117 / T: max(y-x, 0))`` — a flattening of the
        paper's vertical fraction notation.
        """
        inner = " / ".join(str(h) for h in reversed(self._entries))
        return f"({inner})"

    def __repr__(self) -> str:
        return f"Stack{self.render()}"

    # -- functional updates (used by the completeness construction) --------------

    def replace(self, level: int, hypothesis: Hypothesis) -> "Stack":
        """A stack with the entry at ``level`` replaced."""
        entries = list(self._entries)
        entries[level] = hypothesis
        return Stack(entries)

    def take(self, count: int) -> Tuple[Hypothesis, ...]:
        """The lowest ``count`` entries (prefix)."""
        return self._entries[:count]


def stacks_equal_below(left: Stack, right: Stack, level: int) -> bool:
    """(V_NoC)'s core test: do the stacks agree strictly below ``level``?

    Agreement is entry-wise equality — same subjects *and* same measure
    values at levels ``0 .. level-1``.
    """
    return left.take(level) == right.take(level)
