"""Parametric program families for sweeps, scaling and randomised testing.

* :func:`nested_rings` — the "onion": fairly terminating systems whose
  synthesised stacks are provably deep (height grows linearly with the
  nesting parameter), probing the hierarchy of unfairness hypotheses.
* :func:`counter_grid` — a GCL family with tunable state-space size.
* :func:`distractor_loop` — ``P2`` generalised to many skip distractors.
* :func:`random_system` — seeded random explicit systems with no a-priori
  fairness verdict (ground truth comes from the checker; used to cross-test
  synthesis, the tree construction and the semi-measure against each
  other).
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.gcl.program import Program, parse_program
from repro.ts.system import ExplicitSystem


def nested_rings(depth: int) -> ExplicitSystem:
    """The onion: ``depth`` nested regions, each starving its own escape.

    States are ``a_depth, ..., a_1, b`` plus a terminal ``t``.  From ``a_j``
    one may descend (``enter_j``) towards ``b``; from ``b`` one may ``spin``
    forever or climb back up via ``exit_0 .. exit_{j-1}``; ``exit_j`` at
    ``a_j`` escapes the region towards the terminal.  Every infinite
    computation starves the escape of the region it is confined to, so the
    system fairly terminates — and the measure needs one unfairness
    hypothesis per nesting level: synthesised stack height is ``depth + 2``.
    """
    if depth < 0:
        raise ValueError(f"depth must be ≥ 0, got {depth}")
    commands: List[str] = ["spin", "exit_0"]
    transitions: List[Tuple[str, str, str]] = [
        ("b", "spin", "b"),
        ("b", "exit_0", "a_1" if depth >= 1 else "t"),
    ]
    for j in range(1, depth + 1):
        commands.append(f"enter_{j}")
        commands.append(f"exit_{j}")
        below = "b" if j == 1 else f"a_{j-1}"
        above = "t" if j == depth else f"a_{j+1}"
        transitions.append((f"a_{j}", f"enter_{j}", below))
        # exit_j climbs out of region j: to a_{j+1}, or to the terminal at
        # the top — so exit_{j-1} is executed *inside* region j, and exit_j
        # is the one command region j starves.
        transitions.append((f"a_{j}", f"exit_{j}", above))
    initial = f"a_{depth}" if depth >= 1 else "b"
    return ExplicitSystem(
        commands=tuple(commands),
        initial=[initial],
        transitions=transitions,
    )


def counter_grid(width: int, height: int) -> Program:
    """A two-counter program with ``(width+1)·(height+1)`` reachable states.

    ``step`` decreases ``u`` when ``v`` is exhausted, refilling ``v``;
    ``dec`` decreases ``v``; ``idle`` spins.  Fairly terminating: an
    infinite run must eventually starve ``dec`` or ``step`` while it stays
    enabled.
    """
    return parse_program(
        f"""
        program Grid
        var u := {width}, v := {height}
        do
             step: u > 0 and v == 0 -> u := u - 1; v := {height}
          [] dec:  v > 0 -> v := v - 1
          [] idle: u > 0 or v > 0 -> skip
        od
        """
    )


def distractor_loop(distance: int, distractors: int) -> Program:
    """``P2`` with ``distractors`` many skip branches instead of one.

    All distractors together still cannot keep a fair computation alive:
    ``la`` stays enabled and must eventually run.  Synthesised stacks stay
    at height 2 regardless of ``distractors`` — the unfairness hierarchy
    depends on the *structure* of starvation, not on how many commands do
    the starving.
    """
    if distractors < 1:
        raise ValueError("need at least one distractor")
    branches = "\n".join(
        f"  [] skip_{i}: x < y -> skip" for i in range(distractors)
    )
    return parse_program(
        f"""
        program Distract
        var x := 0, y := {distance}
        do
             la: x < y -> x := x + 1
        {branches}
        od
        """
    )


def modulus_chain(stages: int, modulus: int = 3, fuel: int = 9) -> Program:
    """A chain of ``P3``-style stages: stage ``i`` progresses only when the
    previous counter is congruent to 0.

    Generalises the paper's ``P3`` pattern to ``stages`` levels; the state
    space and the measure structure both grow with ``stages``.
    """
    if stages < 1:
        raise ValueError("need at least one stage")
    declarations = ", ".join(f"z{i} := {fuel}" for i in range(stages))
    lines = [
        f"la: x < y and z0 mod {modulus} == 0 -> x := x + 1",
    ]
    for i in range(stages):
        guard = f"x < y and z{i} > 0"
        if i + 1 < stages:
            guard += f" and z{i+1} mod {modulus} == 0"
        lines.append(f"dec{i}: {guard} -> z{i} := z{i} - 1")
    lines.append("idle: x < y -> skip")
    body = "\n  [] ".join(lines)
    return parse_program(
        f"""
        program Chain
        var x := 0, y := 2, {declarations}
        do
             {body}
        od
        """
    )


def escape_ring(period: int) -> ExplicitSystem:
    """A ring of ``period`` states circled by ``advance``, with ``escape``
    enabled only at state 0 (leading to the terminal).

    The minimal weak-vs-strong discriminator (the ``P3`` phenomenon,
    distilled): circling forever starves ``escape``, which is enabled
    *intermittently* — at state 0, infinitely often but never continuously.
    Strong fairness forbids that (the system strongly-fairly terminates);
    weak fairness tolerates it (a weakly fair infinite run exists for
    ``period ≥ 2``).  Also the group-fairness discriminator: under the
    single group requirement "the ring moves", the circling run is fair.
    """
    if period < 1:
        raise ValueError("need at least one ring state")
    transitions = [(i, "advance", (i + 1) % period) for i in range(period)]
    transitions.append((0, "escape", period))
    return ExplicitSystem(
        commands=("advance", "escape"),
        initial=[0],
        transitions=transitions,
    )


def random_system(
    seed: int,
    states: int = 12,
    commands: int = 3,
    extra_edges: int = 10,
) -> ExplicitSystem:
    """A seeded random transition system (connected from state 0).

    A random spanning structure guarantees reachability; ``extra_edges``
    random transitions (including back edges) create cycles.  Whether the
    result fairly terminates is *not* controlled — ground truth comes from
    :func:`repro.fairness.check_fair_termination`, and the property tests
    assert the synthesiser/checker/simulator agree on it.
    """
    rng = random.Random(seed)
    command_names = tuple(f"c{i}" for i in range(commands))
    transitions: List[Tuple[int, str, int]] = []
    for target in range(1, states):
        source = rng.randrange(target)
        transitions.append((source, rng.choice(command_names), target))
    for _ in range(extra_edges):
        source = rng.randrange(states)
        target = rng.randrange(states)
        transitions.append((source, rng.choice(command_names), target))
    return ExplicitSystem(
        commands=command_names,
        initial=[0],
        transitions=transitions,
    )


def grid_hypercube(dims: int, side: int) -> Program:
    """A ``dims``-dimensional counter cube: ``(side+1)**dims`` states.

    Each ``dec_i`` decrements its own counter independently, so BFS levels
    are *wide* (states at depth ``d`` are the compositions of ``d`` over
    the coordinates) — the stress case the sharded explorer is built for,
    in contrast to :func:`counter_grid`'s narrow diagonal levels.
    Terminates trivially (every command strictly decreases the sum), so
    exploration, not fairness structure, is what this family measures.
    ``grid_hypercube(6, 9)`` is exactly one million states.
    """
    if dims < 1:
        raise ValueError("need at least one dimension")
    if side < 1:
        raise ValueError("need side ≥ 1")
    declarations = ", ".join(f"x{i} := {side}" for i in range(dims))
    body = "\n  [] ".join(
        f"dec{i}: x{i} > 0 -> x{i} := x{i} - 1" for i in range(dims)
    )
    return parse_program(
        f"""
        program Hypercube
        var {declarations}
        do
             {body}
        od
        """
    )


def grid_hypercube_rebound(dims: int, side: int, kick: int = 1) -> Program:
    """:func:`grid_hypercube` plus a ``rebound`` command at the origin:
    same ``(side+1)**dims`` state space, non-terminating.

    ``rebound`` fires only at the all-zero corner — the unique deepest
    state, discovered and expanded *last* by BFS — and kicks ``x0`` back
    up to ``kick``.  Its target is a state the exploration has already
    interned, so two ``kick`` values produce graphs that differ in exactly
    one transition-target entry while agreeing on every state row, every
    other transition and every enabled mask.  That makes this the graph
    store's incremental-reuse stress family: editing ``kick`` is a
    single-command change whose re-exploration should replay every state
    from the stored base and republish almost entirely from existing
    chunks.  ``grid_hypercube_rebound(6, 9)`` is exactly one million
    states.
    """
    if dims < 1:
        raise ValueError("need at least one dimension")
    if side < 1:
        raise ValueError("need side ≥ 1")
    if not 1 <= kick <= side:
        raise ValueError(f"kick must be within 1..{side}")
    declarations = ", ".join(f"x{i} := {side}" for i in range(dims))
    lines = [
        f"dec{i}: x{i} > 0 -> x{i} := x{i} - 1" for i in range(dims)
    ]
    origin = " and ".join(f"x{i} == 0" for i in range(dims))
    lines.append(f"rebound: {origin} -> x0 := {kick}")
    body = "\n  [] ".join(lines)
    return parse_program(
        f"""
        program HypercubeRebound
        var {declarations}
        do
             {body}
        od
        """
    )


def hypercube_trap(dims: int, side: int) -> Program:
    """:func:`grid_hypercube` plus a fair two-state trap near the root:
    ``(side+1)**dims + 2`` states, of which the trap is at depth 1.

    From the initial corner (all coordinates at ``side``) a ``fall`` command
    flips mode ``t`` to 1, disabling every ``dec_i`` and entering a
    ``flip``/``flop`` two-cycle — a *fair* infinite computation (each of the
    two commands is enabled and executed on every tour of the cycle).  The
    rest of the cube is the million-state terminating bulk of
    :func:`grid_hypercube`.  This is the early-exit stress shape: a
    materialized decision must enumerate the whole cube before refining,
    while the streaming hunt meets the trap SCC in its first stage.
    ``hypercube_trap(6, 9)`` is exactly 1 000 002 states.
    """
    if dims < 1:
        raise ValueError("need at least one dimension")
    if side < 1:
        raise ValueError("need side ≥ 1")
    declarations = ", ".join(f"x{i} := {side}" for i in range(dims))
    lines = [
        f"dec{i}: t == 0 and x{i} > 0 -> x{i} := x{i} - 1"
        for i in range(dims)
    ]
    corner = " and ".join(f"x{i} == {side}" for i in range(dims))
    lines.append(f"fall: t == 0 and {corner} -> t := 1")
    lines.append("flip: t == 1 and p == 0 -> p := 1")
    lines.append("flop: t == 1 and p == 1 -> p := 0")
    body = "\n  [] ".join(lines)
    return parse_program(
        f"""
        program HypercubeTrap
        var {declarations}, t := 0, p := 0
        do
             {body}
        od
        """
    )


def distributed_ring(stations: int, work: int) -> Program:
    """A token ring of ``stations`` worker stations, each with ``work``
    units: ``stations * (work+1)**stations`` states.

    Station ``i`` may burn one unit of its own work while it holds the
    token (``work_i``) or pass the token on (``pass_i``).  The token
    circulates forever, so the system does *not* terminate — it is the
    server-loop shape of the scaling suite, with state dominated by the
    cross product of per-station counters.  ``distributed_ring(3, 69)`` is
    1 029 000 states.
    """
    if stations < 2:
        raise ValueError("need at least two stations")
    if work < 0:
        raise ValueError("need work ≥ 0")
    declarations = "t := 0, " + ", ".join(
        f"w{i} := {work}" for i in range(stations)
    )
    lines = []
    for i in range(stations):
        lines.append(f"work{i}: t == {i} and w{i} > 0 -> w{i} := w{i} - 1")
        lines.append(f"pass{i}: t == {i} -> t := {(i + 1) % stations}")
    body = "\n  [] ".join(lines)
    return parse_program(
        f"""
        program Ring
        var {declarations}
        do
             {body}
        od
        """
    )


def engine_scaling_suite(scale: str = "full") -> List[Tuple[str, object]]:
    """The ``(name, factory)`` workload list for engine scaling experiments.

    One entry per family, sized so the largest ("grid") dominates wall
    clock; ``scale="smoke"`` substitutes tiny instances for CI, where the
    point is exercising every code path, not measuring anything.  Shared by
    :mod:`benchmarks.bench_e13_engine_scaling` and the engine equivalence
    tests so they always agree on what "each workload family" means.
    """
    if scale == "smoke":
        return [
            ("grid(5,5)", lambda: counter_grid(5, 5)),
            ("chain(2 stages)", lambda: modulus_chain(2, fuel=3)),
            ("rings(3)", lambda: nested_rings(3)),
            ("distractors(2,2)", lambda: distractor_loop(2, 2)),
            ("random(7)", lambda: random_system(7)),
        ]
    if scale != "full":
        raise ValueError(f"unknown scale {scale!r} (expected 'full' or 'smoke')")
    return [
        ("grid(69,69)", lambda: counter_grid(69, 69)),
        ("chain(3 stages)", lambda: modulus_chain(3, fuel=5)),
        ("rings(24)", lambda: nested_rings(24)),
        ("distractors(6,6)", lambda: distractor_loop(6, 6)),
        ("random(7,64)", lambda: random_system(7, states=64, extra_edges=48)),
    ]


def large_scaling_suite(scale: str = "full") -> List[Tuple[str, object]]:
    """Million-state ``(name, factory)`` workloads for exploration scaling.

    Scaled-up grid/chain/distributed shapes (≥ 10^6 states each at
    ``"full"``) for the exploration-scaling experiments; ``"smoke"``
    substitutes instances in the hundreds of states that walk the same
    code paths.  The hypercube is listed first — it is the
    largest-frontier family.
    """
    if scale == "smoke":
        return [
            ("hypercube(6,2)", lambda: grid_hypercube(6, 2)),
            ("chain(3,fuel=7)", lambda: modulus_chain(3, fuel=7)),
            ("ring(3,7)", lambda: distributed_ring(3, 7)),
        ]
    if scale != "full":
        raise ValueError(f"unknown scale {scale!r} (expected 'full' or 'smoke')")
    return [
        ("hypercube(6,9)", lambda: grid_hypercube(6, 9)),
        ("chain(3,fuel=69)", lambda: modulus_chain(3, fuel=69)),
        ("ring(3,69)", lambda: distributed_ring(3, 69)),
    ]
