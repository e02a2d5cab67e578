"""The five job mixes of the pipeline benchmark, and its span recorder.

A mix is a fixed list of jobs.  Each job takes one input from source
text (or an explicit system's transition list) to a verdict by calling
the library's public entry points in the order the matching CLI
subcommand calls them, and returns what it observed; its ``expect``
holds what the closed forms in :mod:`oracles` predict.  The seed fixes
the job order and, on ``store-edit``, the order of the kicks each base
is edited through; the multiset of inputs is the same for every seed,
so percentiles do not move with the seed.
"""

from __future__ import annotations

import random
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import oracles
from repro.completeness.synthesis import synthesize_measure
from repro.engine.graphstore import explore_with_cache, last_outcome
from repro.fairness.checker import (
    check_fair_termination,
    check_fair_termination_streaming,
)
from repro.gcl.program import parse_program
from repro.measures.annotate import annotate
from repro.measures.assertfile import parse_assertion_file
from repro.measures.verification import check_measure
from repro.ts.explore import explore
from repro.ts.system import ExplicitSystem


class Tracer:
    """Benchmark-owned spans around each call into a layer.

    Off, :meth:`call` is a plain call.  On, every job opens a root span
    and each :meth:`call` inside it records a child span: name, start,
    end, parent and the job id both share.  :meth:`count` adds work done
    (states explored, transitions verified) to the job's root span.
    Spans stay in memory until the run writes them out.
    """

    def __init__(self) -> None:
        self.on = False
        self.spans: List[dict] = []
        self._root: Optional[dict] = None

    def begin(self, job: int, **attrs) -> None:
        if self.on:
            self._root = {
                "id": len(self.spans),
                "name": "job",
                "start": time.perf_counter(),
                "end": None,
                "parent": None,
                "job": job,
                "counts": {},
                **attrs,
            }
            self.spans.append(self._root)

    def end(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Close the job's root span; return its child spans' seconds by
        name and its work counts."""
        root, self._root = self._root, None
        if root is None:
            return {}, {}
        root["end"] = time.perf_counter()
        seconds: Dict[str, float] = {}
        for span in self.spans[root["id"] + 1 :]:
            seconds[span["name"]] = (
                seconds.get(span["name"], 0.0) + span["end"] - span["start"]
            )
        return seconds, root["counts"]

    def count(self, name: str, n: int) -> None:
        if self._root is not None:
            counts = self._root["counts"]
            counts[name] = counts.get(name, 0) + n

    def call(self, name: str, fn: Callable, *args, **kwargs):
        root = self._root
        if root is None:
            return fn(*args, **kwargs)
        span = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": root["id"],
            "job": root["job"],
        }
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()


@dataclass
class Job:
    """One input and the pipeline that decides it.

    ``size`` is the input's closed-form reachable-state count; ``run``
    returns the observations ``expect`` predicts, plus an optional
    ``"_probe"`` of ``(graph, assignment)`` for the traced run's
    assignment probe.
    """

    id: int
    kind: str
    size: int
    run: Callable[[Tracer], dict]
    expect: Dict[str, object]


@dataclass
class Mix:
    """A workload's job list, its pool size, and what runs between passes
    (``reset``) and at exit (``cleanup``), both outside the clock."""

    jobs: List[Job]
    pool_workers: int = 0
    reset: Callable[[], None] = lambda: None
    cleanup: Callable[[], None] = lambda: None


def mismatches(observed: dict, expect: Dict[str, object]) -> List[str]:
    """Each expectation the observations miss.  A ``range`` expectation
    bounds the value; any other is matched exactly."""
    wrong = []
    for key, wanted in expect.items():
        value = observed.get(key)
        ok = value in wanted if isinstance(wanted, range) else value == wanted
        if not ok:
            wrong.append(f"{key}={value!r}, expected {wanted!r}")
    return wrong


# -- job pipelines --------------------------------------------------------


def _check(src: str, assertion_text: str) -> Callable[[Tracer], dict]:
    """``check FILE --assertion A``: parse, annotate, explore, compile the
    assertion and verify (V_A)/(V_NonI)/(V_NoC) on every transition."""

    def run(t: Tracer) -> dict:
        program = t.call("gcl.parse", parse_program, src)
        assertion = t.call("measures.assertion", parse_assertion_file, assertion_text)
        t.call("measures.assertion", annotate, program, assertion)
        graph = t.call("ts.explore", explore, program)
        t.count("ts.explore.states", len(graph))
        assignment = t.call("measures.assertion", assertion.compile)
        result = t.call("measures.verify", check_measure, graph, assignment)
        t.count("measures.verify.transitions", result.transitions_checked)
        return {
            "ok": result.ok,
            "states": len(graph),
            "transitions": result.transitions_checked,
            "violations": len(result.violations),
            "_probe": (graph, assignment),
        }

    return run


def _stream_check(src: str, assertion_text: str, fail_fast: bool) -> Callable[[Tracer], dict]:
    """``check --stream`` (or ``--fail-fast``): verify while exploring."""

    def run(t: Tracer) -> dict:
        program = t.call("gcl.parse", parse_program, src)
        assertion = t.call("measures.assertion", parse_assertion_file, assertion_text)
        proof = t.call("measures.assertion", annotate, program, assertion)
        result = t.call(
            "measures.stream_check",
            proof.check_streaming,
            max_violations=1 if fail_fast else None,
        )
        return {
            "ok": result.ok,
            "states": result.states_explored,
            "transitions": result.transitions_checked,
            "violations": len(result.violations),
            "stopped_early": result.stopped_early,
        }

    return run


def _stream_decide(src: str) -> Callable[[Tracer], dict]:
    """``decide --stream``: hunt for a fair lasso during staged
    exploration."""

    def run(t: Tracer) -> dict:
        program = t.call("gcl.parse", parse_program, src)
        result = t.call(
            "fairness.stream_decide", check_fair_termination_streaming, program
        )
        return {"terminates": result.fairly_terminates, "states": result.states_explored}

    return run


def _decide(src: str, n_jobs: int) -> Callable[[Tracer], dict]:
    """``decide FILE --jobs N``: explore, then decide strong-fair
    termination."""

    def run(t: Tracer) -> dict:
        program = t.call("gcl.parse", parse_program, src)
        graph, _ = t.call("ts.explore", explore_with_cache, program, n_jobs=n_jobs)
        t.count("ts.explore.states", len(graph))
        result = t.call("fairness.decide", check_fair_termination, graph)
        return {
            "terminates": result.fairly_terminates,
            "decisive": result.decisive,
            "states": len(graph),
        }

    return run


def _synthesize(load: Callable[[Tracer], object]) -> Callable[[Tracer], dict]:
    """``synthesize FILE``: explore, synthesize a Theorem 3 measure, then
    check it."""

    def run(t: Tracer) -> dict:
        system = load(t)
        graph, _ = t.call("ts.explore", explore_with_cache, system)
        t.count("ts.explore.states", len(graph))
        synthesis = t.call("completeness.synthesize", synthesize_measure, graph)
        assignment = t.call("measures.verify", synthesis.assignment)
        result = t.call("measures.verify", check_measure, graph, assignment)
        t.count("measures.verify.transitions", result.transitions_checked)
        return {
            "ok": result.ok,
            "states": len(graph),
            "height": synthesis.max_stack_height(),
            "violations": len(result.violations),
            "_probe": (graph, assignment),
        }

    return run


def _parsed(src: str) -> Callable[[Tracer], object]:
    return lambda t: t.call("gcl.parse", parse_program, src)


def _explicit(depth: int) -> Callable[[Tracer], object]:
    commands, initial, transitions = oracles.nested_rings(depth)
    return lambda t: t.call(
        "ts.system",
        ExplicitSystem,
        commands=commands,
        initial=initial,
        transitions=transitions,
    )


def _store(src: str, directory: Path, step: str) -> Callable[[Tracer], dict]:
    """``explore FILE --cache-dir D``: a graph-store load, publish or
    incremental re-exploration, then the terminal states."""
    span = f"engine.graphstore.{step}"

    def run(t: Tracer) -> dict:
        program = t.call("gcl.parse", parse_program, src)
        graph, _ = t.call(span, explore_with_cache, program, cache_dir=directory)
        kind = last_outcome().kind
        terminal = t.call("ts.terminal", graph.terminal_indices)
        return {"states": len(graph), "terminal": len(terminal), "cache": kind}

    return run


# -- the mixes ------------------------------------------------------------
#
# Each stratum is (count, kind, size, run, expect); its jobs share the
# stateless ``run``.  Counts place job_s.p50 and job_s.p90 inside one
# stratum each, away from the step between two job kinds; the README
# lists where each percentile lands.


Stratum = Tuple[int, str, int, Callable[[Tracer], dict], Dict[str, object]]


def _shuffled(name: str, seed: int, strata: List[Stratum]) -> List[Job]:
    specs = [spec for count, *spec in strata for _ in range(count)]
    random.Random(f"{name}/{seed}").shuffle(specs)
    return [
        Job(id=i, kind=kind, size=size, run=run, expect=dict(expect))
        for i, (kind, size, run, expect) in enumerate(specs)
    ]


def _check_hypercube(scale: str) -> List[Stratum]:
    # side: (cubes, traps), 4-D.  Side 8 has 23 328 transitions, past the
    # verifier's 20 000-transition columnar-plane cutoff; side 4 has 2 000.
    counts = {2: (30, 10), 3: (32, 10), 4: (13, 4), 8: (1, 0)}
    if scale == "smoke":
        counts = {2: (3, 1), 3: (1, 1), 8: (1, 1)}
    dims = 4
    text = oracles.sum_assertion(dims)
    strata: List[Stratum] = []
    for side, (cubes, traps) in counts.items():
        strata.append((
            cubes,
            f"cube(4,{side})",
            oracles.hypercube_states(dims, side),
            _check(oracles.grid_hypercube(dims, side), text),
            {
                "ok": True,
                "states": oracles.hypercube_states(dims, side),
                "transitions": oracles.hypercube_transitions(dims, side),
                "violations": 0,
            },
        ))
        strata.append((
            traps,
            f"trap(4,{side})",
            oracles.trap_states(dims, side),
            _check(oracles.hypercube_trap(dims, side), text),
            {
                "ok": False,
                "states": oracles.trap_states(dims, side),
                "transitions": oracles.trap_transitions(dims, side),
                "violations": oracles.TRAP_SUM_VIOLATIONS,
            },
        ))
    return strata


def _decide_ring(scale: str) -> List[Stratum]:
    # Only BFS levels of at least 2 048 states go to the pool; of these
    # inputs only the 5-D cube has such levels (it is the smallest cube
    # that does), so it is the one that exercises the pool rather than the
    # in-process batched rounds.
    rings = {4: 13, 6: 24}
    grids = {10: 13, 20: 18, 30: 17}
    cubes = {(4, 4): 14, (5, 7): 1}
    if scale == "smoke":
        rings, grids, cubes = {3: 2}, {5: 2}, {(4, 2): 2}
    strata: List[Stratum] = []
    for work, count in rings.items():
        states = oracles.ring_states(3, work)
        strata.append((
            count, f"ring(3,{work})", states,
            _decide(oracles.distributed_ring(3, work), 2),
            {"terminates": False, "decisive": True, "states": states},
        ))
    for width, count in grids.items():
        states = oracles.counter_grid_states(width, width)
        strata.append((
            count, f"grid({width},{width})", states,
            _decide(oracles.counter_grid(width, width), 2),
            {"terminates": True, "decisive": True, "states": states},
        ))
    for (dims, side), count in cubes.items():
        states = oracles.hypercube_states(dims, side)
        strata.append((
            count, f"cube({dims},{side})", states,
            _decide(oracles.grid_hypercube(dims, side), 2),
            {"terminates": True, "decisive": True, "states": states},
        ))
    return strata


def _synthesize_rings(scale: str) -> List[Stratum]:
    # Grids lean on synthesis (the larger the grid, the more), rings split
    # evenly between synthesis and verifying their deep stacks, and
    # distractors lean on verification; the grids' weight keeps
    # completeness the larger share.
    rings = {20: 12, 60: 2, 100: 1}
    distractors = {2: 10, 4: 6}
    grids = {8: 12, 15: 28, 20: 31}
    if scale == "smoke":
        rings, distractors, grids = {1: 2, 6: 1}, {2: 2}, {3: 2}
    strata: List[Stratum] = []
    for depth, count in rings.items():
        strata.append((
            count, f"rings({depth})", oracles.nested_rings_states(depth),
            _synthesize(_explicit(depth)),
            {
                "ok": True,
                "states": oracles.nested_rings_states(depth),
                "height": oracles.nested_rings_height(depth),
                "violations": 0,
            },
        ))
    for n, count in distractors.items():
        distance = 30 * n
        strata.append((
            count, f"distract({distance},{n})", oracles.distractor_states(distance),
            _synthesize(_parsed(oracles.distractor_loop(distance, n))),
            {
                "ok": True,
                "states": oracles.distractor_states(distance),
                "height": oracles.DISTRACTOR_HEIGHT,
                "violations": 0,
            },
        ))
    for width, count in grids.items():
        states = oracles.counter_grid_states(width, width)
        strata.append((
            count, f"grid({width},{width})", states,
            _synthesize(_parsed(oracles.counter_grid(width, width))),
            {
                "ok": True,
                "states": states,
                "height": oracles.COUNTER_GRID_HEIGHT,
                "violations": 0,
            },
        ))
    return strata


def _stream_trap(scale: str) -> List[Stratum]:
    # A trap needs more states than the streaming decide's first stage for
    # the decide to stop early: 5-D side 3, with 1 026, is the smallest.
    fail_fast = {2: 17, 3: 17}
    trap_decides = {3: 8}
    ring_decides = {3: 8, 4: 16}
    full_checks = {3: 18, 4: 16}
    if scale == "smoke":
        fail_fast, trap_decides, ring_decides, full_checks = {2: 2}, {3: 1}, {2: 1}, {2: 2}
    strata: List[Stratum] = []
    for side, count in fail_fast.items():
        total = oracles.trap_states(5, side)
        strata.append((
            count, f"failfast trap(5,{side})", total,
            _stream_check(
                oracles.hypercube_trap(5, side), oracles.sum_assertion(5), True
            ),
            {
                "ok": False,
                "violations": 1,
                "stopped_early": True,
                "states": range(1, total),
            },
        ))
    for side, count in trap_decides.items():
        total = oracles.trap_states(5, side)
        strata.append((
            count, f"decide trap(5,{side})", total,
            _stream_decide(oracles.hypercube_trap(5, side)),
            {"terminates": False, "states": range(1, total)},
        ))
    for work, count in ring_decides.items():
        states = oracles.ring_states(3, work)
        strata.append((
            count, f"decide ring(3,{work})", states,
            _stream_decide(oracles.distributed_ring(3, work)),
            {"terminates": False, "states": states},
        ))
    for side, count in full_checks.items():
        states = oracles.hypercube_states(4, side)
        strata.append((
            count, f"check cube(4,{side})", states,
            _stream_check(
                oracles.grid_hypercube(4, side), oracles.sum_assertion(4), False
            ),
            {
                "ok": True,
                "violations": 0,
                "stopped_early": False,
                "states": states,
                "transitions": oracles.hypercube_transitions(4, side),
            },
        ))
    return strata


def _store_edit(scale: str, seed: int, workdir: Path) -> Mix:
    """Five bases, each cold-published at one kick and then edited to
    every other kick in a seeded order, with three warm loads after every
    publish.  The bases share a side so that job_s.p90 lands among the
    edits, not on the step between two sides' edit times."""
    bases, side = (5, 6) if scale == "full" else (1, 2)
    dims = 4
    states = oracles.hypercube_states(dims, side)
    rng = random.Random(f"store-edit/{seed}")
    jobs: List[Job] = []
    directories: List[Path] = []
    for base in range(bases):
        directory = workdir / f"base-{base}"
        directories.append(directory)
        kicks = rng.sample(range(1, side + 1), side)
        for i, kick in enumerate(kicks):
            src = oracles.grid_hypercube_rebound(dims, side, kick)
            publish = ("publish", "cold") if i == 0 else ("incremental", "incremental")
            for step, outcome in [publish] + [("load", "hit")] * 3:
                jobs.append(Job(
                    id=len(jobs),
                    kind=f"{step} rebound(4,{side})",
                    size=states,
                    run=_store(src, directory, step),
                    expect={"states": states, "terminal": 0, "cache": outcome},
                ))

    def reset() -> None:
        for directory in directories:
            shutil.rmtree(directory, ignore_errors=True)
            directory.mkdir(parents=True)

    def cleanup() -> None:
        shutil.rmtree(workdir, ignore_errors=True)

    return Mix(jobs, reset=reset, cleanup=cleanup)


_STRATA = {
    "check-hypercube": _check_hypercube,
    "decide-ring-j2": _decide_ring,
    "synthesize-rings": _synthesize_rings,
    "stream-trap": _stream_trap,
}


def build(name: str, scale: str, seed: int, workdir: Path) -> Mix:
    """The job list of workload ``name`` at ``scale`` (``"full"`` or
    ``"smoke"``), drawn from ``seed``."""
    if scale not in ("full", "smoke"):
        raise ValueError(f"unknown scale {scale!r}")
    if name == "store-edit":
        return _store_edit(scale, seed, workdir)
    strata = _STRATA.get(name)
    if strata is None:
        raise ValueError(f"unknown workload {name!r}")
    return Mix(
        _shuffled(name, seed, strata(scale)),
        pool_workers=2 if name == "decide-ring-j2" else 0,
    )
