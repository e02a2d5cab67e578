"""Tests for automatic measure synthesis."""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.completeness import (
    NotFairlyTerminatingError,
    synthesize_measure,
)
from repro.fairness import STRONG_FAIRNESS, check_fair_termination
from repro.measures import check_measure
from repro.ts import ExplicitSystem, explore
from repro.workloads import (
    counter_grid,
    dining_philosophers,
    distractor_loop,
    modulus_chain,
    mutual_exclusion,
    nested_rings,
    p2,
    p4_bounded,
    random_system,
    token_ring,
)


def synthesize_and_verify(graph):
    synthesis = synthesize_measure(graph)
    result = check_measure(graph, synthesis.assignment())
    result.raise_if_failed()
    return synthesis, result


class TestOnKnownPrograms:
    @pytest.mark.parametrize(
        "system",
        [
            p2(6),
            p4_bounded(2, 10, 5),
            counter_grid(3, 3),
            distractor_loop(4, 3),
            modulus_chain(2),
            dining_philosophers(3),
            mutual_exclusion(2, 2),
            token_ring(5),
        ],
        ids=[
            "p2",
            "p4b",
            "grid",
            "distractors",
            "chain",
            "philosophers",
            "mutex",
            "ring",
        ],
    )
    def test_synthesis_verifies(self, system):
        graph = explore(system)
        synthesis, result = synthesize_and_verify(graph)
        assert result.is_fair_termination_measure

    def test_stack_height_bound(self):
        for system in [p2(4), p4_bounded(2, 6, 3), nested_rings(4)]:
            graph = explore(system)
            synthesis, _ = synthesize_and_verify(graph)
            assert synthesis.max_stack_height() <= len(system.commands()) + 1

    def test_nested_rings_heights_grow_linearly(self):
        heights = []
        for depth in (0, 1, 2, 3, 4):
            graph = explore(nested_rings(depth))
            synthesis, _ = synthesize_and_verify(graph)
            heights.append(synthesis.max_stack_height())
        assert heights == [2, 3, 4, 5, 6]  # depth + 2

    def test_distractor_count_does_not_deepen_stack(self):
        for distractors in (1, 3, 6):
            graph = explore(distractor_loop(3, distractors))
            synthesis, _ = synthesize_and_verify(graph)
            assert synthesis.max_stack_height() == 2

    def test_deep_nesting_within_default_recursion_limit(self):
        # Nothing recurses per level — not the decomposition, not
        # region_count() — so a stack of height 1202 synthesizes and
        # checks at Python's default recursion limit.
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            graph = explore(nested_rings(1200))
            synthesis, _ = synthesize_and_verify(graph)
            assert synthesis.max_stack_height() == 1202
            assert synthesis.region_count() == 1201
        finally:
            sys.setrecursionlimit(limit)

    def test_region_tree_reported(self):
        graph = explore(nested_rings(2))
        synthesis, _ = synthesize_and_verify(graph)
        assert synthesis.region_count() >= 3
        root = synthesis.regions[0]
        assert root.helpful == "exit_2"
        assert root.children[0].helpful == "exit_1"


class TestFailures:
    def test_spin_raises_with_witness(self):
        spin = ExplicitSystem(("go",), [0], [(0, "go", 0)])
        graph = explore(spin)
        with pytest.raises(NotFairlyTerminatingError) as info:
            synthesize_measure(graph)
        witness = info.value.witness
        assert witness is not None
        assert STRONG_FAIRNESS.is_fair(
            witness.lasso, spin.enabled, spin.commands()
        )

    def test_incomplete_graph_rejected(self):
        from repro.gcl import parse_program

        up = parse_program("program Up var x := 0 do a: true -> x := x + 1 od")
        graph = explore(up, max_states=5)
        with pytest.raises(ValueError):
            synthesize_measure(graph)


class TestRandomisedRoundTrip:
    @settings(deadline=None, max_examples=80)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_synthesis_agrees_with_checker(self, seed):
        """Soundness and completeness over the random family: synthesis
        succeeds (and its output verifies) exactly when the independent
        fair-cycle decision says the system fairly terminates."""
        graph = explore(random_system(seed, states=10, commands=3, extra_edges=9))
        verdict = check_fair_termination(graph)
        if verdict.fairly_terminates:
            synthesis = synthesize_measure(graph)
            result = check_measure(graph, synthesis.assignment())
            assert result.is_fair_termination_measure
        else:
            with pytest.raises(NotFairlyTerminatingError):
                synthesize_measure(graph)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_synthesised_heights_respect_bound(self, seed):
        graph = explore(random_system(seed, states=9, commands=4, extra_edges=8))
        if not check_fair_termination(graph).fairly_terminates:
            return
        synthesis = synthesize_measure(graph)
        assert synthesis.max_stack_height() <= 5


class TestSharedTarjanScratch:
    """Every region's sub-SCC pass reuses the graph's one Tarjan scratch.
    A fresh scratch per region costs O(states) to allocate, which made
    synthesis O(states × regions)."""

    @pytest.fixture
    def built(self, monkeypatch):
        from repro.engine import analysis

        scratches = []
        original = analysis.TarjanScratch.__init__

        def counting_init(scratch):
            scratches.append(scratch)
            original(scratch)

        monkeypatch.setattr(analysis.TarjanScratch, "__init__", counting_init)
        return scratches

    def test_synthesis_builds_one_scratch(self, built):
        from repro.engine.reference import synthesize_measure_reference

        graph = explore(counter_grid(20, 20))
        result = synthesize_measure(graph)
        assert len(built) == 1
        assert result.region_count() == 440
        reference = synthesize_measure_reference(graph)
        assert result.stacks == reference.stacks
        assert result.regions == reference.regions

    def test_process_regions_builds_one_scratch(self, built):
        from repro.completeness.synthesis import process_regions
        from repro.fairness.generalized import command_requirements
        from repro.ts.graph import decompose

        graph = explore(counter_grid(6, 6))
        components = decompose(graph).components
        entries = {index: [] for index in range(len(graph))}
        regions = process_regions(
            graph, components, command_requirements(graph.system), entries
        )
        assert len(built) == 1
        assert regions == synthesize_measure(graph).regions
