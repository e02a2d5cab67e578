"""Tests for stack measures over generalized fairness requirements.

The paper (§4.1) notes its definitions "depend only on the notions of
commands or actions being 'enabled' and 'executed'" — these tests exercise
exactly that generality: hypotheses naming requirements rather than
commands, checked and synthesised end to end.
"""

import pytest

from repro.completeness import NotFairlyTerminatingError, synthesize_measure
from repro.fairness import (
    check_general_fair_termination,
    command_requirements,
    group_requirement,
    predicate_requirement,
)
from repro.measures import (
    TERMINATION,
    Hypothesis,
    Stack,
    StackAssignment,
    check_measure,
)
from repro.ts import ExplicitSystem, explore
from repro.wf import NATURALS
from repro.workloads import random_system


def escape_ring():
    """0 -g1-> 1 -g2-> 0 with stop at 0 (terminal 2)."""
    return ExplicitSystem(
        commands=("g1", "g2", "stop"),
        initial=[0],
        transitions=[(0, "g1", 1), (1, "g2", 0), (0, "stop", 2)],
    )


class TestGeneralizedChecking:
    def test_group_measure_verifies(self):
        system = escape_ring()
        graph = explore(system)
        move = group_requirement(system, "move", ["g1", "g2"])
        stop = command_requirements(system)[2]
        # Stack: T = SCC rank (1 inside the ring, 0 at the terminal);
        # the 'stop' requirement hypothesis explains the ring steps.
        table = {
            0: Stack([Hypothesis(TERMINATION, 1), Hypothesis("stop")]),
            1: Stack([Hypothesis(TERMINATION, 1), Hypothesis("stop")]),
            2: Stack([Hypothesis(TERMINATION, 0)]),
        }
        assignment = StackAssignment.from_dict(table, NATURALS)
        result = check_measure(graph, assignment, requirements=(move, stop))
        assert result.is_fair_termination_measure

    def test_requirement_invalidation_enforced(self):
        system = escape_ring()
        graph = explore(system)
        move = group_requirement(system, "move", ["g1", "g2"])
        # A stack blaming 'move' is wrong: every ring step *fulfils* move,
        # invalidating the hypothesis (V_NonI in requirement form).
        table = {
            0: Stack([Hypothesis(TERMINATION, 1), Hypothesis("move")]),
            1: Stack([Hypothesis(TERMINATION, 1), Hypothesis("move")]),
            2: Stack([Hypothesis(TERMINATION, 0)]),
        }
        assignment = StackAssignment.from_dict(table, NATURALS)
        result = check_measure(graph, assignment, requirements=(move,))
        assert not result.ok
        assert any("V_NonI" in str(v) for v in result.violations)

    def test_predicate_requirement_measures(self):
        # Demand at even states, serviced by transitions leaving them.
        system = ExplicitSystem(
            commands=("step", "idle"),
            initial=[0],
            transitions=[(0, "idle", 0), (0, "step", 1), (1, "step", 2)],
        )
        graph = explore(system)
        leave_even = predicate_requirement(
            "serve-even",
            demands=lambda s: s % 2 == 0 and s < 2,
            serves=lambda s, c, t: s % 2 == 0 and t != s,
        )
        table = {
            0: Stack([Hypothesis(TERMINATION, 2), Hypothesis("serve-even")]),
            1: Stack([Hypothesis(TERMINATION, 1)]),
            2: Stack([Hypothesis(TERMINATION, 0)]),
        }
        assignment = StackAssignment.from_dict(table, NATURALS)
        result = check_measure(graph, assignment, requirements=(leave_even,))
        assert result.ok


class TestGeneralizedSynthesis:
    def test_synthesis_with_group_and_stop(self):
        system = escape_ring()
        graph = explore(system)
        move = group_requirement(system, "move", ["g1", "g2"])
        stop = command_requirements(system)[2]
        synthesis = synthesize_measure(graph, requirements=(move, stop))
        result = check_measure(
            graph, synthesis.assignment(), requirements=(move, stop)
        )
        assert result.is_fair_termination_measure
        assert synthesis.regions[0].helpful == "stop"

    def test_synthesis_fails_without_stop_requirement(self):
        system = escape_ring()
        graph = explore(system)
        move = group_requirement(system, "move", ["g1", "g2"])
        with pytest.raises(NotFairlyTerminatingError) as info:
            synthesize_measure(graph, requirements=(move,))
        assert info.value.witness is not None

    def test_command_requirements_reduce_to_default(self):
        """Synthesis with explicit command requirements produces the same
        stacks as the default path."""
        for seed in (1, 3, 11):
            graph = explore(random_system(seed, states=8, commands=3))
            requirements = command_requirements(graph.system)
            try:
                default = synthesize_measure(graph)
            except NotFairlyTerminatingError:
                with pytest.raises(NotFairlyTerminatingError):
                    synthesize_measure(graph, requirements=requirements)
                continue
            explicit = synthesize_measure(graph, requirements=requirements)
            assert default.stacks == explicit.stacks

    def test_generalized_verdict_matches_decision(self):
        """Synthesis succeeds exactly when the generalized decision says
        the program fairly terminates under those requirements."""
        system = escape_ring()
        graph = explore(system)
        move = group_requirement(system, "move", ["g1", "g2"])
        stop = command_requirements(system)[2]
        for requirements in ((move,), (move, stop), (stop,)):
            terminates, _ = check_general_fair_termination(graph, requirements)
            if terminates:
                synthesis = synthesize_measure(graph, requirements=requirements)
                assert check_measure(
                    graph, synthesis.assignment(), requirements=requirements
                ).ok
            else:
                with pytest.raises(NotFairlyTerminatingError):
                    synthesize_measure(graph, requirements=requirements)


class TestCommandKindCallsNoPredicate:
    """``kind="command"`` promises the graph's enabled masks and ``cmd``
    column answer both predicates, so neither the checker nor the
    synthesiser calls them."""

    def test_check_and_synthesis_call_no_predicate(self):
        from repro.fairness import FairnessRequirement
        from repro.workloads import nested_rings

        system = nested_rings(6)
        graph = explore(system)
        calls = []

        def counted(requirement):
            def enabled_at(state):
                calls.append(requirement.name)
                return requirement.enabled_at(state)

            def fulfilled_by(source, command, target):
                calls.append(requirement.name)
                return requirement.fulfilled_by(source, command, target)

            return FairnessRequirement(
                requirement.name, enabled_at, fulfilled_by, kind="command"
            )

        requirements = tuple(counted(r) for r in command_requirements(system))
        synthesis = synthesize_measure(graph, requirements=requirements)
        result = check_measure(
            graph, synthesis.assignment(), requirements=requirements
        )
        assert result.is_fair_termination_measure
        assert calls == []
        # Reordered, the masks are remapped, still without a call.
        reordered = requirements[::-1]
        synthesis = synthesize_measure(graph, requirements=reordered)
        result = check_measure(graph, synthesis.assignment(), requirements=reordered)
        assert result.is_fair_termination_measure
        assert calls == []
