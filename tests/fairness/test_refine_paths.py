"""One peel, three consumers: the refinement differential table.

Command decide, generalized decide and synthesis all run the stamped
refinement of :mod:`repro.fairness.refine` over requirement masks.  Each
row below explores one system and checks every consumer against its
set-based oracle in :mod:`repro.engine.reference`:

* command decide — :func:`find_fair_cycle` (verdict and witness) against
  :func:`find_fair_cycle_reference`;
* generalized decide under command requirements, a group requirement, a
  predicate requirement and two requirements sharing a name —
  :func:`find_generally_fair_cycle` against
  :func:`find_generally_fair_cycle_reference`;
* synthesis — stacks and ``RegionInfo`` trees (or the refusal message
  and witness) against :func:`synthesize_measure_reference`, which calls
  the reference finder, not the production one.

Rows: the families of ``tests/engine/test_explore_paths.py``, P1–P4 (P3
and P4 cut at a state budget), ``nested_rings(40)`` and ``random_system``
seeds.
"""

import pytest

from repro.completeness.synthesis import (
    NotFairlyTerminatingError,
    synthesize_measure,
)
from repro.engine.reference import (
    find_fair_cycle_reference,
    find_generally_fair_cycle_reference,
    synthesize_measure_reference,
)
from repro.fairness import (
    FairnessRequirement,
    check_fair_termination,
    command_requirements,
    find_fair_cycle,
    find_generally_fair_cycle,
    group_requirement,
    predicate_requirement,
)
from repro.ts import explore
from repro.workloads import nested_rings, random_system
from repro.workloads.paper import p1, p2, p3, p3_bounded, p4, p4_bounded
from tests.engine.test_explore_paths import SYSTEMS


def _rows():
    rows = [(name, make, {}) for name, make in SYSTEMS]
    rows += [
        ("p1", p1, {}),
        ("p2", p2, {}),
        ("p3_bounded", p3_bounded, {}),
        ("p4_bounded", p4_bounded, {}),
        ("p3@300", p3, {"max_states": 300}),
        ("p4@300", p4, {"max_states": 300}),
        ("nested_rings(40)", lambda: nested_rings(40), {}),
    ]
    rows += [
        (f"random({seed})", lambda seed=seed: random_system(seed), {})
        for seed in range(40)
    ]
    return rows


ROWS = _rows()
IDS = [name for name, _, _ in ROWS]


def _group(system):
    commands = tuple(system.commands())
    return (group_requirement(system, "group", commands[: max(1, len(commands) // 2)]),)


def _predicate(system):
    first = next(iter(system.commands()))
    return (
        predicate_requirement(
            "choice",
            demands=lambda state: len(system.enabled(state)) >= 2,
            serves=lambda s, command, t: command == first,
        ),
    )


def _repeated(system):
    """Command fairness plus a second requirement under the first
    command's name, demanded and served like the last command: each
    requirement is its own Streett pair, whatever its name."""
    commands = tuple(system.commands())
    first, last = commands[0], commands[-1]
    return command_requirements(system) + (
        FairnessRequirement(
            first,
            lambda state: last in system.enabled(state),
            lambda s, command, t: command == last,
        ),
    )


REQUIREMENTS = {
    "commands": command_requirements,
    "group": _group,
    "predicate": _predicate,
    "repeated-name": _repeated,
}


@pytest.fixture(scope="module")
def graphs():
    return {name: explore(make(), **bounds) for name, make, bounds in ROWS}


@pytest.mark.parametrize("name", IDS)
def test_command_decide(graphs, name):
    graph = graphs[name]
    expected = find_fair_cycle_reference(graph)
    assert find_fair_cycle(graph) == expected
    assert check_fair_termination(graph).fairly_terminates == (expected is None)


@pytest.mark.parametrize("requirements", sorted(REQUIREMENTS))
@pytest.mark.parametrize("name", IDS)
def test_generalized_decide(graphs, name, requirements):
    graph = graphs[name]
    reqs = REQUIREMENTS[requirements](graph.system)
    expected = find_generally_fair_cycle_reference(graph, reqs)
    assert find_generally_fair_cycle(graph, reqs) == expected


def _synthesis(run, graph):
    try:
        result = run(graph)
    except NotFairlyTerminatingError as error:
        return ("refused", str(error), error.witness)
    except ValueError as error:
        return ("error", str(error))
    return ("measure", result.stacks, result.regions)


@pytest.mark.parametrize("name", IDS)
def test_synthesis(graphs, name):
    graph = graphs[name]
    expected = _synthesis(synthesize_measure_reference, graph)
    assert _synthesis(synthesize_measure, graph) == expected
