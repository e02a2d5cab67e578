"""The benchmark's family templates and closed forms, on instances small
enough to count by hand."""

import pytest

import oracles
from repro.completeness.synthesis import synthesize_measure
from repro.fairness.checker import check_fair_termination
from repro.gcl.program import parse_program
from repro.measures.assertfile import parse_assertion_file
from repro.measures.verification import check_measure
from repro.ts.explore import explore
from repro.ts.system import ExplicitSystem


def _explicit(depth):
    commands, initial, transitions = oracles.nested_rings(depth)
    return ExplicitSystem(commands=commands, initial=initial, transitions=transitions)


class TestHandCounts:
    """Closed forms against counts made by hand."""

    def test_grid_hypercube_2_1(self):
        # (0,0) (0,1) (1,0) (1,1); dec0 from x0=1 twice, dec1 from x1=1 twice.
        assert oracles.hypercube_states(2, 1) == 4
        assert oracles.hypercube_transitions(2, 1) == 4

    def test_hypercube_trap_1_1(self):
        # x0 ∈ {0, 1} with t=0, plus (1, t=1, p=0|1); dec0, fall, flip, flop.
        assert oracles.trap_states(1, 1) == 4
        assert oracles.trap_transitions(1, 1) == 4

    def test_distributed_ring_2_1(self):
        # token at station 0 or 1, times w0, w1 ∈ {0, 1}.
        assert oracles.ring_states(2, 1) == 8

    def test_counter_grid_1_2(self):
        assert oracles.counter_grid_states(1, 2) == 6

    def test_nested_rings_1(self):
        # a_1, b, t.  {a_1, b} starves exit_1; inside it, {b} starves
        # exit_0, so b's stack is exit_0 over exit_1 over T.
        assert oracles.nested_rings_states(1) == 3
        assert oracles.nested_rings_height(1) == 3

    def test_distractor_loop_2(self):
        assert oracles.distractor_states(2) == 3

    def test_sum_assertion(self):
        assert oracles.sum_assertion(2) == "T: x0 + x1\n"


class TestTemplatesMatchClosedForms:
    """The checker, run on each template, gives the closed-form answer."""

    @pytest.mark.parametrize("dims, side", [(2, 1), (3, 2), (4, 3)])
    def test_grid_hypercube(self, dims, side):
        program = parse_program(oracles.grid_hypercube(dims, side))
        graph = explore(program)
        assert len(graph) == oracles.hypercube_states(dims, side)
        assertion = parse_assertion_file(oracles.sum_assertion(dims))
        result = check_measure(graph, assertion.compile())
        assert result.ok
        assert result.transitions_checked == oracles.hypercube_transitions(dims, side)
        assert check_fair_termination(graph).fairly_terminates

    @pytest.mark.parametrize("dims, side", [(1, 1), (2, 2), (4, 3)])
    def test_hypercube_trap(self, dims, side):
        program = parse_program(oracles.hypercube_trap(dims, side))
        graph = explore(program)
        assert len(graph) == oracles.trap_states(dims, side)
        assertion = parse_assertion_file(oracles.sum_assertion(dims))
        result = check_measure(graph, assertion.compile())
        assert result.transitions_checked == oracles.trap_transitions(dims, side)
        assert len(result.violations) == oracles.TRAP_SUM_VIOLATIONS
        assert not check_fair_termination(graph).fairly_terminates

    @pytest.mark.parametrize("stations, work", [(2, 1), (3, 2)])
    def test_distributed_ring(self, stations, work):
        graph = explore(parse_program(oracles.distributed_ring(stations, work)))
        assert len(graph) == oracles.ring_states(stations, work)
        assert not check_fair_termination(graph).fairly_terminates

    @pytest.mark.parametrize("width, height", [(1, 2), (4, 4)])
    def test_counter_grid(self, width, height):
        graph = explore(parse_program(oracles.counter_grid(width, height)))
        assert len(graph) == oracles.counter_grid_states(width, height)
        assert check_fair_termination(graph).fairly_terminates
        synthesis = synthesize_measure(graph)
        assert synthesis.max_stack_height() == oracles.COUNTER_GRID_HEIGHT

    @pytest.mark.parametrize("depth", [0, 1, 5])
    def test_nested_rings(self, depth):
        graph = explore(_explicit(depth))
        assert len(graph) == oracles.nested_rings_states(depth)
        synthesis = synthesize_measure(graph)
        assert synthesis.max_stack_height() == oracles.nested_rings_height(depth)
        assert check_measure(graph, synthesis.assignment()).ok

    @pytest.mark.parametrize("distance, distractors", [(2, 1), (6, 3)])
    def test_distractor_loop(self, distance, distractors):
        graph = explore(parse_program(oracles.distractor_loop(distance, distractors)))
        assert len(graph) == oracles.distractor_states(distance)
        synthesis = synthesize_measure(graph)
        assert synthesis.max_stack_height() == oracles.DISTRACTOR_HEIGHT

    @pytest.mark.parametrize("kick", [1, 2])
    def test_grid_hypercube_rebound(self, kick):
        graph = explore(parse_program(oracles.grid_hypercube_rebound(2, 2, kick)))
        assert len(graph) == oracles.hypercube_states(2, 2)
        assert graph.terminal_indices() == []

    def test_rebound_rejects_kick_out_of_range(self):
        with pytest.raises(ValueError):
            oracles.grid_hypercube_rebound(2, 2, 3)
