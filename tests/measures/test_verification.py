"""Tests for the verification conditions (V_A), (V_NonI), (V_NoC).

The small systems here are built by hand so each condition can be made to
fail in isolation, and the §5 remark about several admissible active
hypotheses can be exercised.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.reference import find_active_level_reference
from repro.measures import (
    TERMINATION,
    Hypothesis,
    MeasureVerificationError,
    Stack,
    StackAssignment,
    check_measure,
    find_active_level,
    find_active_level_general,
)
from repro.ts import ExplicitSystem, explore
from repro.wf import NATURALS


def two_state_system(enabled=None):
    """0 --go--> 1, with 'other' optionally enabled via extra transitions."""
    return ExplicitSystem(
        commands=("go", "other"),
        initial=[0],
        transitions=[(0, "go", 1)] + ([(0, "other", 2)] if enabled else []),
    )


def assignment(table, order=NATURALS):
    return StackAssignment.from_dict(table, order)


def T(w):
    return Hypothesis(TERMINATION, w)


class TestFindActiveLevel:
    def test_termination_decrease_active(self):
        data, _ = find_active_level(
            Stack([T(2)]), Stack([T(1)]), "go", frozenset(), NATURALS
        )
        assert data.level == 0
        assert data.reason == "decrease"

    def test_termination_not_active_without_decrease(self):
        data, failures = find_active_level(
            Stack([T(1)]), Stack([T(1)]), "go", frozenset(), NATURALS
        )
        assert data is None
        assert any("V_A" in f.detail for f in failures)

    def test_enabled_hypothesis_active(self):
        before = Stack([T(1), Hypothesis("other")])
        after = Stack([T(1), Hypothesis("other")])
        data, _ = find_active_level(
            before, after, "go", frozenset({"other"}), NATURALS
        )
        assert (data.level, data.reason) == (1, "enabled")

    def test_measure_decrease_at_level_one(self):
        before = Stack([T(1), Hypothesis("other", 5)])
        after = Stack([T(1), Hypothesis("other", 4)])
        data, _ = find_active_level(before, after, "go", frozenset(), NATURALS)
        assert (data.level, data.reason) == (1, "decrease")

    def test_v_noni_blocks_executed_hypothesis(self):
        before = Stack([T(1), Hypothesis("go", 5)])
        after = Stack([T(1), Hypothesis("go", 4)])
        data, failures = find_active_level(
            before, after, "go", frozenset({"go"}), NATURALS
        )
        assert data is None
        assert any("V_NonI" in f.detail for f in failures)

    def test_v_noc_blocks_changed_prefix(self):
        before = Stack([T(2), Hypothesis("other", 5)])
        after = Stack([T(1), Hypothesis("other", 5)])
        # T decreased, so level 0 is active — fine.  But force level 1 by
        # making level 0 inactive: equal T values and changed la below.
        before2 = Stack([T(1), Hypothesis("other", 5), Hypothesis("go", 0)])
        after2 = Stack([T(1), Hypothesis("other", 4), Hypothesis("go", 0)])
        data, _ = find_active_level(before2, after2, "zz", frozenset(), NATURALS)
        assert data.level == 1
        # A level-2 candidate would fail V_NoC since level 1 changed; check
        # that the level-1 decrease is what is reported, not level 2.
        assert data.subject == "other"
        # Also the original pair: level 0 active by decrease.
        data0, _ = find_active_level(before, after, "zz", frozenset(), NATURALS)
        assert data0.level == 0

    def test_subject_change_stops_search(self):
        before = Stack([T(1), Hypothesis("a", 1)])
        after = Stack([T(1), Hypothesis("b", 1)])
        data, failures = find_active_level(
            before, after, "zz", frozenset({"a", "b"}), NATURALS
        )
        assert data is None
        assert any("changes subject" in f.detail for f in failures)

    def test_bare_hypothesis_needs_enabledness(self):
        before = Stack([T(1), Hypothesis("other")])
        after = Stack([T(1), Hypothesis("other")])
        data, failures = find_active_level(
            before, after, "go", frozenset(), NATURALS
        )
        assert data is None
        assert any("no measure value" in f.detail for f in failures)

    def test_multiple_admissible_levels_lowest_chosen(self):
        # Both level 0 (T decreases) and level 1 (enabled) are admissible;
        # §5: "There may be several choices for an active hypothesis."
        before = Stack([T(2), Hypothesis("other", 1)])
        after = Stack([T(1), Hypothesis("other", 1)])
        data, _ = find_active_level(
            before, after, "go", frozenset({"other"}), NATURALS
        )
        assert data.level == 0


class TestCheckMeasure:
    def test_passing_measure(self):
        system = two_state_system()
        graph = explore(system)
        result = check_measure(
            graph, assignment({0: Stack([T(1)]), 1: Stack([T(0)])})
        )
        assert result.ok
        assert result.is_fair_termination_measure
        assert result.active_levels() == {0: 1}

    def test_failing_measure_collects_violations(self):
        system = two_state_system()
        graph = explore(system)
        result = check_measure(
            graph, assignment({0: Stack([T(0)]), 1: Stack([T(0)])})
        )
        assert not result.ok
        assert len(result.violations) == 1
        assert "V_A" in str(result.violations[0])
        with pytest.raises(MeasureVerificationError):
            result.raise_if_failed()

    def test_values_validated_against_order(self):
        system = two_state_system()
        graph = explore(system)
        from repro.wf import NotInDomainError

        with pytest.raises(NotInDomainError):
            check_measure(
                graph, assignment({0: Stack([T(-1)]), 1: Stack([T(-2)])})
            )

    def test_non_stack_return_rejected(self):
        system = two_state_system()
        graph = explore(system)
        bad = StackAssignment(lambda state: "not a stack", NATURALS)
        with pytest.raises(TypeError):
            check_measure(graph, bad)

    def test_incomplete_graph_not_a_full_measure(self):
        from repro.gcl import parse_program

        up = parse_program("program Up var x := 0 do a: true -> x := x + 1 od")
        graph = explore(up, max_states=5)
        # Any decreasing measure works on the explored region; completeness
        # must still be reported as missing.
        table = {
            graph.state_of(i): Stack([T(10 - i)]) for i in range(len(graph))
        }
        result = check_measure(graph, assignment(table))
        assert result.ok
        assert not result.complete
        assert not result.is_fair_termination_measure

    def test_summary_mentions_status(self):
        system = two_state_system()
        graph = explore(system)
        result = check_measure(
            graph, assignment({0: Stack([T(1)]), 1: Stack([T(0)])})
        )
        assert "PASS" in result.summary()

    def test_non_well_founded_order_fails(self):
        from repro.wf import FiniteOrder

        bogus = FiniteOrder(["w", "v"], [("w", "v"), ("v", "w")])
        system = two_state_system()
        graph = explore(system)
        result = check_measure(
            graph,
            assignment(
                {0: Stack([T("w")]), 1: Stack([T("v")])}, order=bogus
            ),
        )
        assert not result.order_well_founded
        assert not result.ok


_SUBJECTS = ("a", "b", "c", "d")
_VALUES = st.one_of(st.none(), st.integers(0, 2))


@st.composite
def _stack_pairs(draw):
    """Two stacks sharing a random prefix, so the search runs deep."""
    order = draw(st.permutations(_SUBJECTS))
    height = draw(st.integers(0, len(order)))
    source = [T(draw(st.integers(0, 2)))] + [
        Hypothesis(s, draw(_VALUES)) for s in order[:height]
    ]
    target = list(source[: draw(st.integers(1, len(source)))])
    for level in range(1, len(target)):
        if draw(st.booleans()):
            target[level] = Hypothesis(target[level].subject, draw(_VALUES))
    if draw(st.booleans()):
        target[0] = T(draw(st.integers(0, 2)))
    taken = {h.subject for h in target}
    rest = [s for s in draw(st.permutations(_SUBJECTS)) if s not in taken]
    for subject in rest[: draw(st.integers(0, len(rest)))]:
        target.append(Hypothesis(subject, draw(_VALUES)))
    return Stack(source), Stack(target)


class TestSearchMatchesSeed:
    """The depth-linear search against the seed search it replaced."""

    @settings(deadline=None, max_examples=300)
    @given(
        _stack_pairs(),
        st.frozensets(st.sampled_from((TERMINATION,) + _SUBJECTS)),
        st.frozensets(st.sampled_from((TERMINATION,) + _SUBJECTS)),
    )
    def test_same_data_and_failures(self, stacks, invalidated, active):
        source, target = stacks
        assert find_active_level_general(
            source, target, invalidated, active, NATURALS
        ) == find_active_level_reference(
            source, target, invalidated, active, NATURALS
        )
