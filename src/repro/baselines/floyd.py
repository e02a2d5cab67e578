"""Floyd's method (§3.1): plain termination measures.

"For programs occurring in practice it is usually straightforward to
quantify progress towards termination ... in terms of well-founded sets as
first advocated by Floyd."  A termination measure must *strictly decrease on
every transition* — no fairness, no hypotheses, the degenerate stack of
height 1.  It exists iff the program terminates along **all** computations,
which is exactly why ``P2`` (add one ``skip`` branch to ``P1``) escapes it
and needs the paper's machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List

from repro.ts.explore import ReachableGraph
from repro.ts.graph import decompose, internal_transitions
from repro.ts.lasso import Lasso, grand_tour_lasso
from repro.ts.system import State, Transition
from repro.wf.base import WellFoundedOrder
from repro.wf.naturals import NATURALS


class NotTerminatingError(ValueError):
    """The program has an infinite computation, so no termination measure
    exists; carries a lasso witness."""

    def __init__(self, message: str, witness: Lasso) -> None:
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class FloydViolation:
    """A transition on which the claimed measure fails to decrease."""

    transition: Transition
    before: Any
    after: Any

    def __str__(self) -> str:
        return (
            f"termination measure does not decrease on {self.transition}: "
            f"{self.before} ⊁ {self.after}"
        )


@dataclass
class FloydCheckResult:
    """Outcome of checking a termination measure."""

    violations: List[FloydViolation]
    transitions_checked: int
    complete: bool

    @property
    def ok(self) -> bool:
        """Whether the measure decreased on every checked transition."""
        return not self.violations

    def summary(self) -> str:
        """One-line summary for reports."""
        status = "PASS" if self.ok else f"FAIL ({len(self.violations)} violations)"
        scope = "complete" if self.complete else "explored region only"
        return f"{status}: {self.transitions_checked} transitions ({scope})"


class TerminationMeasure:
    """A Floyd measure: ``state ↦ W`` with strict descent required."""

    def __init__(
        self,
        mapping: Callable[[State], Any],
        order: WellFoundedOrder = NATURALS,
        description: str = "",
    ) -> None:
        self._mapping = mapping
        self._order = order
        self._description = description

    @property
    def order(self) -> WellFoundedOrder:
        """The measure's well-founded order."""
        return self._order

    @property
    def description(self) -> str:
        """Human-readable provenance."""
        return self._description

    def __call__(self, state: State) -> Any:
        return self._mapping(state)


def check_termination_measure(
    graph: ReachableGraph,
    measure: TerminationMeasure,
) -> FloydCheckResult:
    """Floyd's verification condition: strict descent on every transition."""
    order = measure.order
    values = [measure(graph.state_of(i)) for i in range(len(graph))]
    for value in values:
        order.check_member(value)
    violations: List[FloydViolation] = []
    for t in graph.transitions:
        before, after = values[t.source], values[t.target]
        if not order.gt(before, after):
            violations.append(
                FloydViolation(
                    transition=graph.to_transition(t),
                    before=before,
                    after=after,
                )
            )
    return FloydCheckResult(
        violations=violations,
        transitions_checked=len(graph.transitions),
        complete=graph.complete,
    )


def synthesize_floyd(graph: ReachableGraph) -> TerminationMeasure:
    """A termination measure for a complete, acyclic reachable graph.

    The measure is the state's reverse-topological SCC rank (all SCCs must
    be trivial).  Raises :class:`NotTerminatingError` with a lasso witness
    when the graph has a cycle — the program then has an infinite
    computation and Floyd's method cannot apply.
    """
    if not graph.complete:
        raise ValueError("Floyd synthesis needs the complete reachable graph")
    decomposition = decompose(graph)
    for component in decomposition.components:
        internal = internal_transitions(graph, component)
        if internal:
            raise NotTerminatingError(
                "program has an infinite computation; Floyd's method needs "
                "fair-termination machinery instead",
                grand_tour_lasso(graph, component),
            )
    ranks = {
        graph.state_of(i): decomposition.component_of[i] for i in range(len(graph))
    }
    return TerminationMeasure(
        lambda state: ranks[state],
        NATURALS,
        description="synthesised Floyd measure (topological rank)",
    )
