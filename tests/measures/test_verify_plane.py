"""The columnar verification engine (DESIGN §6h).

``check_measure`` checks every transition with one engine: packed stack
columns and the batched kernel.  Three layers of evidence that it
decides exactly what the paper's conditions say:

* **codec round-trips** — ``encode_stacks``/``decode_stack`` lose nothing
  the level search observes, across empty (T-only), max-height, stray-
  subject and bare-value stacks;
* **kernel parity** — ``check_chunk_columns`` agrees with
  ``find_active_level_general`` edge by edge, witness levels and reasons
  included;
* **one differential table** — every row (family × fairness ×
  ``keep_witnesses`` × job count) returns exactly what the seed checker
  :func:`~repro.engine.reference.check_measure_reference` returns:
  verdict, witnesses, violations, their order and their failure strings.
"""

import random
from functools import lru_cache

import pytest

from repro.completeness.construction import theorem3_construction
from repro.completeness.history import add_history_variable
from repro.completeness.synthesis import NotFairlyTerminatingError, synthesize_measure
from repro.engine.reference import check_measure_reference
from repro.fairness.generalized import FairnessRequirement, command_requirements
from repro.measures import StackAssertion, Stack, TERMINATION, Hypothesis
from repro.measures import StackAssignment, check_measure
from repro.measures.columns import (
    BARE_VALUE,
    T_SUBJECT,
    check_chunk_columns,
    encode_stacks,
    invalidation_words,
)
from repro.measures.verification import find_active_level_general
from repro.telemetry import core as telemetry
from repro.ts import ExplicitSystem, explore
from repro.wf import NATURALS, FiniteOrder
from repro.workloads import (
    engine_scaling_suite,
    grid_hypercube,
    nested_rings,
    p1,
    p1_assertion,
    p2,
    p2_assertion,
    p3_bounded,
    p3_assertion,
    p4_bounded,
    p4_assertion,
    random_system,
)


def _result_observables(result, with_witnesses=True):
    """Everything two checks of one assignment must agree on."""
    observed = {
        "ok": result.ok,
        "checked": result.transitions_checked,
        "complete": result.complete,
        "well_founded": result.order_well_founded,
        "summary": result.summary(),
        "violations": [str(v) for v in result.violations],
    }
    if with_witnesses:
        observed["witnesses"] = [
            (str(w.transition), w.level, w.subject, w.reason)
            for w in result.witnesses
        ]
    return observed


def _counters(run):
    telemetry.reset()
    telemetry.enable()
    try:
        run()
        return telemetry.registry().snapshot()["counters"]
    finally:
        telemetry.reset()
        telemetry.disable()


# ---------------------------------------------------------------------------
# Codec round-trips
# ---------------------------------------------------------------------------


class TestCodecRoundTrip:
    def test_paper_assignments_round_trip(self):
        for program, assertion in (
            (p2(6), p2_assertion()),
            (p3_bounded(3, 120), p3_assertion()),
            (p4_bounded(2, 2, 40), p4_assertion()),
        ):
            graph = explore(program)
            assignment = assertion.compile()
            stacks = [assignment(s) for s in graph.states]
            columns = encode_stacks(
                stacks, graph.analyses.commands.labels, assignment.order
            )
            assert columns.n_states == len(stacks)
            assert columns.rank is not None
            for index, stack in enumerate(stacks):
                assert columns.decode_stack(index) == stack

    def test_empty_stack_is_t_only(self):
        # The paper's minimal annotation: height 1, nothing above T.  A
        # bare (value-less) hypothesis can only live above level 0 — the
        # T-hypothesis always carries a measure value.
        graph = explore(p1(5))
        labels = graph.analyses.commands.labels
        stacks = [
            Stack([Hypothesis(TERMINATION, i)]) for i in range(len(graph))
        ]
        columns = encode_stacks(stacks, labels, NATURALS)
        assert columns.subject[columns.offsets[0]] == T_SUBJECT
        bare = Stack(
            [Hypothesis(TERMINATION, 1), Hypothesis("inc", None)]
        )
        bare_cols = encode_stacks([bare], labels, NATURALS)
        assert bare_cols.value_id[bare_cols.offsets[0] + 1] == BARE_VALUE
        assert bare_cols.decode_stack(0) == bare
        for index in range(len(graph)):
            assert columns.decode_stack(index) == stacks[index]

    def test_max_height_stack_with_strays(self):
        # One hypothesis per command plus subjects the table has never
        # seen: the full height the duplicate-subject invariant admits.
        graph = explore(p2(4))
        labels = graph.analyses.commands.labels
        entries = [Hypothesis(TERMINATION, 3)]
        entries += [Hypothesis(label, k) for k, label in enumerate(labels)]
        entries += [Hypothesis(f"ghost{j}", None) for j in range(3)]
        stack = Stack(entries)
        columns = encode_stacks([stack] * len(graph), labels, NATURALS)
        assert columns.decode_stack(0) == stack
        # Stray subjects encode above the subject table, so they can
        # never collide with a demanded or an invalidated bit.
        lo, hi = columns.offsets[0], columns.offsets[1]
        stray_ids = [
            columns.subject[r]
            for r in range(lo, hi)
            if columns.subject[r] >= len(labels)
        ]
        assert len(stray_ids) == 3

    def test_rank_is_order_isomorphic_on_naturals(self):
        graph = explore(p2(4))
        labels = graph.analyses.commands.labels
        stacks = [
            Stack([Hypothesis(TERMINATION, v)]) for v in (0, 7, 3, 7, 10)
        ]
        columns = encode_stacks(stacks, labels, NATURALS)
        rank_of = {
            v: columns.rank[columns.offsets[i]]
            for i, v in enumerate((0, 7, 3, 7, 10))
        }
        for a in rank_of:
            for b in rank_of:
                assert (rank_of[a] > rank_of[b]) == NATURALS.gt(a, b)

    def test_non_integer_order_has_no_rank(self):
        # Only naturals orders rank by value; any other order, and any
        # value beyond ±2⁶², leaves the decrease test to ``order.gt``.
        labels = explore(p2(4)).analyses.commands.labels
        order = FiniteOrder(["x", "y", "z"], [("x", "z")])
        stacks = [Stack([Hypothesis(TERMINATION, v)]) for v in ("x", "y", "z")]
        assert encode_stacks(stacks, labels, order).rank is None
        huge = [Stack([Hypothesis(TERMINATION, 1 << 63)])]
        assert encode_stacks(huge, labels, NATURALS).rank is None

    def test_t_command_label_encodes_as_t_subject(self):
        # A command literally named "T" is the T-hypothesis's subject: its
        # rows are T_SUBJECT, and executing it sets the T-hypothesis's
        # invalidation bit (bit 0) alone.
        labels = ("a", "T", "b")
        stacks = [Stack([Hypothesis(TERMINATION, 1), Hypothesis("b", 2)])]
        columns = encode_stacks(stacks, labels, NATURALS)
        assert list(columns.subject) == [T_SUBJECT, 2]
        assert invalidation_words(labels) == (1 << 1, 1, 1 << 3)


# ---------------------------------------------------------------------------
# Kernel vs the object-level level search
# ---------------------------------------------------------------------------


class TestKernelParity:
    def _check_both(self, program, assertion):
        graph = explore(program)
        assignment = assertion.compile()
        stacks = [assignment(s) for s in graph.states]
        commands = graph.analyses.commands
        columns = encode_stacks(stacks, commands.labels, assignment.order)
        src, cmd, dst = graph.transition_columns
        masks = graph.enabled_masks
        m = len(src)
        words, violating, _counts = check_chunk_columns(
            columns.offsets, columns.subject, columns.value_id,
            columns.rank, src, cmd, dst, masks, 0, m,
            invalidation_words(commands.labels), True,
        )
        violating = set(violating)
        for eid in range(m):
            s, t = src[eid], dst[eid]
            data, failures = find_active_level_general(
                stacks[s],
                stacks[t],
                commands.singleton(cmd[eid]),
                commands.labels_of_mask(masks[s] | masks[t]),
                assignment.order,
            )
            if data is None:
                assert eid in violating, (eid, failures)
                assert words[eid] == -1
            else:
                assert eid not in violating
                word = words[eid]
                assert word >> 1 == data.level
                assert ("decrease" if word & 1 else "enabled") == data.reason

    def test_passing_and_failing_families(self):
        self._check_both(p2(5), p2_assertion())
        self._check_both(p4_bounded(2, 2, 30), p4_assertion())
        # A failing annotation: x0 alone cannot witness the other axes.
        self._check_both(
            grid_hypercube(3, 3), StackAssertion.parse(["T: x0"])
        )


# ---------------------------------------------------------------------------
# The differential table
# ---------------------------------------------------------------------------


def _random_stacks(system, values, order, seed):
    """A seeded stack per state over the system's commands.

    A shared subject order with per-state prefix lengths, values from a
    small pool and the odd bare or stray hypothesis: every branch of the
    level search (subject change, (V_NoC), (V_NonI), demand, decrease,
    no decrease) fires somewhere.
    """
    subjects = [c for c in system.commands() if c != TERMINATION]
    random.Random(seed).shuffle(subjects)
    subjects.append("ghost")

    def mapping(state):
        rng = random.Random(f"{seed}:{state!r}")
        entries = [Hypothesis(TERMINATION, rng.choice(values))]
        for subject in subjects[: rng.randrange(len(subjects) + 1)]:
            value = rng.choice(values) if rng.random() < 0.7 else None
            entries.append(Hypothesis(subject, value))
        return Stack(entries)

    return StackAssignment(mapping, order, f"random stacks ({seed})")


def _t_system():
    """An explicit system with a command literally named ``"T"``."""
    return ExplicitSystem(
        commands=("T", "a", "b"),
        initial=["s0"],
        transitions=[
            ("s0", "a", "s1"),
            ("s0", "T", "s2"),
            ("s1", "b", "s0"),
            ("s1", "T", "s1"),
            ("s2", "a", "s0"),
            ("s2", "b", "s3"),
        ],
    )


def _theorem3_partial():
    """The Theorem 3 construction over ``p2(3)``: a ``FiniteOrder`` of
    fresh elements with recorded descents — a partial order."""
    graph = explore(add_history_variable(p2(3)), max_depth=6)
    return graph, theorem3_construction(graph).assignment()


_PARTIAL = FiniteOrder(["x", "y", "z"], [("x", "z")])


def _synthesized(make):
    """The Theorem 3 measure, or ``None`` when the system does not fairly
    terminate."""
    graph = explore(make())
    try:
        return graph, synthesize_measure(graph).assignment()
    except NotFairlyTerminatingError:
        return None


def _random(make, values, order, seed):
    system = make()
    return explore(system), _random_stacks(system, values, order, seed)


def _paper(make, assertion):
    return explore(make()), assertion().compile()


def _family_rows():
    rows = {}
    for name, make in engine_scaling_suite("smoke"):
        rows[f"{name}/random"] = (_random, make, (0, 1, 2), NATURALS, 1)
        rows[f"{name}/synthesized"] = (_synthesized, make)
    rows.update({
        "p1": (_paper, lambda: p1(8), p1_assertion),
        "p2": (_paper, lambda: p2(6), p2_assertion),
        "p3": (_paper, lambda: p3_bounded(3, 120), p3_assertion),
        "p4": (_paper, lambda: p4_bounded(2, 2, 40), p4_assertion),
        # Violating: x1/x2 decrements never decrease x0.
        "cube(3,3)/x0": (
            _paper,
            lambda: grid_hypercube(3, 3),
            lambda: StackAssertion.parse(["T: x0"]),
        ),
        "cube(3,3)/sum": (
            _paper,
            lambda: grid_hypercube(3, 3),
            lambda: StackAssertion.parse(["T: x0 + x1 + x2"]),
        ),
        "random_system(3)/random": (
            _random, lambda: random_system(3), (0, 1), NATURALS, 3
        ),
        "random_system(11)/random": (
            _random, lambda: random_system(11, commands=4), (0, 1, 2, 3), NATURALS, 11
        ),
        "partial/random(5)": (
            _random, lambda: random_system(5), ("x", "y", "z"), _PARTIAL, 5
        ),
        "partial/theorem3(p2(3),6)": (_theorem3_partial,),
        "nested_rings(40)/synthesized": (_synthesized, lambda: nested_rings(40)),
        "T-command/random": (_random, _t_system, (0, 1), NATURALS, 7),
    })
    return rows


FAMILIES = _family_rows()


@lru_cache(maxsize=None)
def _family(name):
    """``(graph, assignment)`` for one family row, or ``None`` when a
    synthesized row's system does not fairly terminate."""
    build, *args = FAMILIES[name]
    return build(*args)


#: Every row with an assignment: synthesis rows of systems that do not
#: fairly terminate have none.
ROWS = sorted(name for name in FAMILIES if _family(name) is not None)


def _mixed_requirements(system):
    """A non-command requirement set, keyed by name like the reference:

    the first command serves every command's requirement; a second
    requirement shares the first command's name (demanded everywhere,
    never fulfilled); one named ``"T"`` is demanded everywhere and
    fulfilled by the last command.
    """
    commands = tuple(system.commands())
    first, last = commands[0], commands[-1]
    requirements = [
        FairnessRequirement(
            name=c,
            enabled_at=lambda state, _c=c: _c in system.enabled(state),
            fulfilled_by=lambda s, x, t, _c=c: x in (_c, first),
        )
        for c in commands
    ]
    requirements.append(
        FairnessRequirement(first, lambda state: True, lambda s, x, t: False)
    )
    requirements.append(
        FairnessRequirement(TERMINATION, lambda state: True, lambda s, x, t: x == last)
    )
    return tuple(requirements)


FAIRNESS = {
    "commands": lambda system: None,
    "command_requirements": command_requirements,
    "mixed_requirements": _mixed_requirements,
}


@lru_cache(maxsize=None)
def _reference(name, fairness, keep):
    graph, assignment = _family(name)
    result = check_measure_reference(
        graph,
        assignment,
        keep_witnesses=keep,
        requirements=FAIRNESS[fairness](graph.system),
    )
    return _full_observables(result)


def _full_observables(result):
    return (
        result.ok,
        result.is_fair_termination_measure,
        result.transitions_checked,
        result.summary(),
        tuple(result.witnesses),
        tuple(result.violations),
        tuple(str(v) for v in result.violations),
    )


@pytest.fixture
def jobs_env(request, monkeypatch):
    """``n_jobs=2`` rows force the pool wherever the check can fan out."""
    if request.param is not None:
        monkeypatch.setenv("REPRO_FORCE_PARALLEL", "1")
    return request.param


@pytest.mark.parametrize("jobs_env", (None, 2), indirect=True)
@pytest.mark.parametrize("keep", (True, False), ids=("witnesses", "no-witnesses"))
@pytest.mark.parametrize("fairness", sorted(FAIRNESS))
@pytest.mark.parametrize("name", ROWS)
def test_matches_reference(name, fairness, keep, jobs_env):
    graph, assignment = _family(name)
    result = check_measure(
        graph,
        assignment,
        keep_witnesses=keep,
        requirements=FAIRNESS[fairness](graph.system),
        n_jobs=jobs_env,
    )
    assert _full_observables(result) == _reference(name, fairness, keep)


class TestEngineDifferential:
    def test_table_covers_every_branch(self):
        # The table is only as strong as its rows: witnesses by demand
        # and by decrease, violations, and a failing (V_NonI) on the
        # T-hypothesis under a command named "T".
        reasons = set()
        violating = set()
        for name in ROWS:
            *_, witnesses, violations, rendered = _reference(name, "commands", True)
            reasons.update(w.reason for w in witnesses)
            if violations:
                violating.add(name)
        assert reasons == {"enabled", "decrease"}
        assert {"cube(3,3)/x0", "partial/random(5)", "T-command/random"} <= violating
        *_, rendered = _reference("T-command/random", "commands", True)
        assert any("invalidated hypothesis 'T'" in v for v in rendered)

    def test_plane_engages_on_every_check(self):
        graph = explore(p2(6))
        assignment = p2_assertion().compile()
        counters = _counters(lambda: check_measure(graph, assignment))
        assert counters.get("verify.plane.engaged") == 1
        assert counters.get("verify.plane.rows") == len(graph.transitions)


class TestDeepStacks:
    def test_nested_rings_200(self):
        # Theorem 3's stacks grow with the region nesting: height n + 2.
        graph = explore(nested_rings(200))
        synthesis = synthesize_measure(graph)
        assert synthesis.max_stack_height() == 202
        assignment = synthesis.assignment()
        holder = {}
        counters = _counters(
            lambda: holder.update(
                result=check_measure(graph, assignment, keep_witnesses=False)
            )
        )
        assert holder["result"].is_fair_termination_measure
        assert counters.get("verify.plane.engaged") == 1


# ---------------------------------------------------------------------------
# Streaming mask priming
# ---------------------------------------------------------------------------


class TestStreamingMaskPrimes:
    def test_streaming_verdict_unchanged_and_primed(self, monkeypatch):
        from repro.measures import check_measure_streaming

        program = grid_hypercube(3, 3)
        assignment = StackAssertion.parse(["T: x0"]).compile()
        graph = explore(program)
        baseline = _result_observables(check_measure(graph, assignment))

        monkeypatch.setenv("REPRO_FORCE_PARALLEL", "1")
        holder = {}
        counters = _counters(
            lambda: holder.update(
                streamed=check_measure_streaming(program, assignment, n_jobs=2)
            )
        )
        assert _result_observables(holder["streamed"]) == baseline
        # The value-plane rounds primed the verifier's enabled sets; the
        # serial re-derivation stayed on the bench.
        assert counters.get("stream.mask_primes", 0) > 0
        assert counters.get("stream.mask_derived_serially", 0) == 0
