"""One exploration loop, one graph: the differential table (DESIGN §6d).

Every exploration runs the same round-based BFS, in-process; only its
expand step varies (batched value-plane kernels, per-state ``expand``,
the graph store's replaying expander).  Each row below explores one
system under one bound with one job count and asserts that the result
has exactly one ``graph_digest`` — the digest of
:func:`~repro.engine.reference.explore_reference`, the per-state FIFO
loop the round-based explorer replaced.  ``n_jobs=2`` rows (with
``REPRO_FORCE_PARALLEL=1``, which forces the pool wherever one is used)
check that a job count is accepted and leaves the digest unchanged.

``StopExploration`` rows have no reference (the reference has no
observer): there the stopped graph must digest the same at every job
count, emit the same event stream, and be a prefix of the reference
graph.
"""

import pytest

from repro.engine import explore_with_cache, graph_digest
from repro.engine.graphstore import explore_incremental, find_incremental_base
from repro.engine.reference import explore_reference
from repro.gcl import Program, parse_program
from repro.gcl.state import ProgramState
from repro.ts import (
    ExplorationLimitError,
    ExplorationObserver,
    StopExploration,
    explore,
)
from repro.ts.system import ExplicitSystem, RenamedSystem
from repro.workloads import (
    counter_grid,
    engine_scaling_suite,
    grid_hypercube_rebound,
    large_scaling_suite,
)


def _renamed():
    base = counter_grid(4, 4)
    names = base.variable_names
    return RenamedSystem(
        base,
        rename=lambda state: ("cell",) + state.values,
        unrename=lambda key: ProgramState(names, tuple(key[1:])),
    )


def _explicit():
    # A command enabled at a state without a self-loop, a nondeterministic
    # command and a terminal state.
    return ExplicitSystem(
        commands=("a", "b", "c"),
        initial=("s0",),
        transitions=[
            ("s0", "a", "s1"),
            ("s0", "b", "s2"),
            ("s1", "a", "s0"),
            ("s1", "c", "s3"),
            ("s1", "c", "s4"),
            ("s2", "b", "s2"),
            ("s4", "a", "s0"),
        ],
    )


def _wide():
    """65 commands: more than the value plane's 64-bit enabled masks."""
    commands = "\n  [] ".join(
        f"c{i}: x == {i} -> x := x + 1" for i in range(65)
    )
    return parse_program(
        f"program Wide\nvar x := 0\ndo\n  {commands}\nod\n"
    )


def _systems():
    """Every smoke family, plus one system per non-plane expand step."""
    seen = {}
    for name, make in engine_scaling_suite("smoke"):
        seen.setdefault(name, make)
    for name, make in large_scaling_suite("smoke"):
        seen.setdefault(name, make)
    rows = sorted(seen.items())
    rows += [
        ("explicit", _explicit),
        ("renamed", _renamed),
        ("interpreted", lambda: Program(counter_grid(4, 4).ast, compiled=False)),
        ("65-commands", _wide),
    ]
    return rows


SYSTEMS = _systems()
BOUNDS = {
    "complete": {},
    "max_states": {"max_states": 10},
    "max_depth": {"max_depth": 2},
    "strict": {"max_states": 5, "strict": True},
}
JOBS = (None, 2)


@pytest.fixture
def jobs_env(request, monkeypatch):
    """``n_jobs=2`` rows: a forced job count must change nothing."""
    if request.param is not None:
        monkeypatch.setenv("REPRO_FORCE_PARALLEL", "1")
    return request.param


def _digest_or_error(run, **kwargs):
    try:
        return graph_digest(run(**kwargs))
    except ExplorationLimitError as error:
        return f"error: {error}"


@pytest.mark.parametrize("jobs_env", JOBS, indirect=True)
@pytest.mark.parametrize("bound", sorted(BOUNDS))
@pytest.mark.parametrize("name,make", SYSTEMS)
def test_one_digest_per_row(name, make, bound, jobs_env):
    kwargs = BOUNDS[bound]
    expected = _digest_or_error(lambda **kw: explore_reference(make(), **kw), **kwargs)
    got = _digest_or_error(
        lambda **kw: explore(make(), n_jobs=jobs_env, **kw), **kwargs
    )
    assert got == expected, f"{name}/{bound}/n_jobs={jobs_env}"


@pytest.mark.parametrize("bound", sorted(BOUNDS))
def test_incremental_replay_row(tmp_path, bound):
    kwargs = BOUNDS[bound]
    bounds = {k: v for k, v in kwargs.items() if k != "strict"}
    explore_with_cache(
        grid_hypercube_rebound(2, 3, kick=1), cache_dir=tmp_path, **bounds
    )
    edited = grid_hypercube_rebound(2, 3, kick=2)
    base = find_incremental_base(edited, tmp_path, **bounds)
    assert base is not None
    expected = _digest_or_error(
        lambda **kw: explore_reference(grid_hypercube_rebound(2, 3, kick=2), **kw),
        **kwargs,
    )
    got = _digest_or_error(
        lambda **kw: explore_incremental(edited, base, **kw), **kwargs
    )
    assert got == expected


class _Recorder(ExplorationObserver):
    def __init__(self, stop_on_state=None, stop_on_expanded=None):
        self.events = []
        self.discovered = 0
        self.finished = 0
        self.stop_on_state = stop_on_state
        self.stop_on_expanded = stop_on_expanded

    def on_state(self, index, state, depth):
        self.events.append(("state", index, depth))
        self.discovered += 1
        if self.discovered == self.stop_on_state:
            raise StopExploration("mid-round")

    def on_transition(self, source, command, target):
        self.events.append(("transition", source, command, target))

    def on_expanded(self, index, enabled):
        self.events.append(("expanded", index, tuple(sorted(enabled))))
        self.finished += 1
        if self.finished == self.stop_on_expanded:
            raise StopExploration("after a source")


STOPS = {
    "stop_mid_round": {"stop_on_state": 7},
    "stop_on_expanded": {"stop_on_expanded": 3},
}


def _out_edges(graph, i):
    return sorted((t.command, repr(graph.states[t.target])) for t in graph.outgoing(i))


@pytest.mark.parametrize("jobs_env", JOBS, indirect=True)
@pytest.mark.parametrize("stop", sorted(STOPS))
@pytest.mark.parametrize("name,make", SYSTEMS)
def test_stop_row(name, make, stop, jobs_env, monkeypatch):
    recorder = _Recorder(**STOPS[stop])
    stopped = explore(make(), n_jobs=jobs_env, observer=recorder)
    monkeypatch.delenv("REPRO_FORCE_PARALLEL", raising=False)
    baseline = _Recorder(**STOPS[stop])
    in_process = explore(make(), observer=baseline)
    assert graph_digest(stopped) == graph_digest(in_process)
    assert recorder.events == baseline.events
    # The stopped graph is a prefix of the reference graph: same states
    # in the same order, and every expanded source keeps exactly its
    # reference transitions.
    reference = explore_reference(make())
    n = len(stopped)
    assert [repr(s) for s in stopped.states] == [
        repr(s) for s in reference.states[:n]
    ]
    for i in range(n):
        if i not in stopped.frontier:
            assert _out_edges(stopped, i) == _out_edges(reference, i)
            assert stopped.enabled_at(i) == reference.enabled_at(i)
