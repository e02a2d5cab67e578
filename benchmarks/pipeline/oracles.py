"""Program-family templates and their closed-form answers.

The pipeline benchmark writes its own inputs, so that an edit to
``repro.workloads`` cannot change what it measures.  Each template below
returns an input the way a user hands it to the checker: GCL source
text, assertion-file text, or, for ``nested_rings``, the
``(commands, initial, transitions)`` of an explicit system.  Each oracle
returns what the checker must answer for that input, derived by counting
the family's states and transitions by hand, never by running another
code path of the checker.

This module imports nothing from ``repro``.
"""

from __future__ import annotations

from typing import List, Tuple


def _program(name: str, declarations: str, commands: List[str]) -> str:
    body = "\n  [] ".join(commands)
    return f"program {name}\nvar {declarations}\ndo\n     {body}\nod\n"


def _counters(dims: int, side: int) -> str:
    return ", ".join(f"x{i} := {side}" for i in range(dims))


# -- templates ------------------------------------------------------------


def grid_hypercube(dims: int, side: int) -> str:
    """``dims`` counters that each count down from ``side`` on their own."""
    return _program(
        "Hypercube",
        _counters(dims, side),
        [f"dec{i}: x{i} > 0 -> x{i} := x{i} - 1" for i in range(dims)],
    )


def hypercube_trap(dims: int, side: int) -> str:
    """:func:`grid_hypercube` plus a ``fall`` from the initial corner into a
    ``flip``/``flop`` two-cycle that is fair and never ends."""
    corner = " and ".join(f"x{i} == {side}" for i in range(dims))
    return _program(
        "HypercubeTrap",
        _counters(dims, side) + ", t := 0, p := 0",
        [f"dec{i}: t == 0 and x{i} > 0 -> x{i} := x{i} - 1" for i in range(dims)]
        + [
            f"fall: t == 0 and {corner} -> t := 1",
            "flip: t == 1 and p == 0 -> p := 1",
            "flop: t == 1 and p == 1 -> p := 0",
        ],
    )


def grid_hypercube_rebound(dims: int, side: int, kick: int) -> str:
    """:func:`grid_hypercube` plus a ``rebound`` at the all-zero corner that
    sets ``x0`` back to ``kick``.  Two kicks differ in one command, which
    makes it the graph store's one-command-edit family."""
    if not 1 <= kick <= side:
        raise ValueError(f"kick must be within 1..{side}, got {kick}")
    origin = " and ".join(f"x{i} == 0" for i in range(dims))
    return _program(
        "HypercubeRebound",
        _counters(dims, side),
        [f"dec{i}: x{i} > 0 -> x{i} := x{i} - 1" for i in range(dims)]
        + [f"rebound: {origin} -> x0 := {kick}"],
    )


def distributed_ring(stations: int, work: int) -> str:
    """A token ring: the holder burns a unit of its own work or passes the
    token on, forever."""
    declarations = "t := 0, " + ", ".join(
        f"w{i} := {work}" for i in range(stations)
    )
    commands = []
    for i in range(stations):
        commands.append(f"work{i}: t == {i} and w{i} > 0 -> w{i} := w{i} - 1")
        commands.append(f"pass{i}: t == {i} -> t := {(i + 1) % stations}")
    return _program("Ring", declarations, commands)


def counter_grid(width: int, height: int) -> str:
    """Two counters: ``dec`` empties ``v``, ``step`` lowers ``u`` and refills
    ``v``, and ``idle`` spins while either is positive."""
    return _program(
        "Grid",
        f"u := {width}, v := {height}",
        [
            f"step: u > 0 and v == 0 -> u := u - 1; v := {height}",
            "dec:  v > 0 -> v := v - 1",
            "idle: u > 0 or v > 0 -> skip",
        ],
    )


def distractor_loop(distance: int, distractors: int) -> str:
    """The paper's P2 with ``distractors`` skip branches beside ``la``."""
    return _program(
        "Distract",
        f"x := 0, y := {distance}",
        ["la: x < y -> x := x + 1"]
        + [f"skip_{i}: x < y -> skip" for i in range(distractors)],
    )


def nested_rings(depth: int) -> Tuple[Tuple[str, ...], List[str], List[Tuple[str, str, str]]]:
    """The onion of ``depth`` nested regions, as the ``(commands, initial,
    transitions)`` of an explicit system.

    From ``a_j`` one descends with ``enter_j``; ``b`` spins or climbs with
    ``exit_0``; ``exit_j`` climbs out of region ``j``, and out of the top
    region to the terminal ``t``.
    """
    commands = ["spin", "exit_0"]
    transitions = [("b", "spin", "b"), ("b", "exit_0", "a_1" if depth else "t")]
    for j in range(1, depth + 1):
        commands += [f"enter_{j}", f"exit_{j}"]
        below = "b" if j == 1 else f"a_{j - 1}"
        above = "t" if j == depth else f"a_{j + 1}"
        transitions.append((f"a_{j}", f"enter_{j}", below))
        transitions.append((f"a_{j}", f"exit_{j}", above))
    initial = [f"a_{depth}" if depth else "b"]
    return tuple(commands), initial, transitions


def sum_assertion(dims: int) -> str:
    """The assertion file ``T: x0 + … + x{dims-1}``: a stack that only
    claims the coordinate sum decreases on every step."""
    return "T: " + " + ".join(f"x{i}" for i in range(dims)) + "\n"


# -- closed forms ---------------------------------------------------------


def hypercube_states(dims: int, side: int) -> int:
    """Every coordinate takes each value ``0..side``."""
    return (side + 1) ** dims


def hypercube_transitions(dims: int, side: int) -> int:
    """``dec_i`` is enabled wherever ``x_i > 0``: ``side`` of its ``side+1``
    values, times every value of the other coordinates."""
    return dims * side * (side + 1) ** (dims - 1)


def trap_states(dims: int, side: int) -> int:
    """The cube plus the two trap states ``(corner, t=1, p=0|1)``."""
    return hypercube_states(dims, side) + 2


def trap_transitions(dims: int, side: int) -> int:
    """The cube's transitions plus ``fall``, ``flip`` and ``flop``."""
    return hypercube_transitions(dims, side) + 3


#: Violations of :func:`sum_assertion` on a trap: ``fall``, ``flip`` and
#: ``flop`` each leave the coordinate sum unchanged while every ``dec_i``
#: lowers it, and a T-only stack must decrease on every step.
TRAP_SUM_VIOLATIONS = 3


def ring_states(stations: int, work: int) -> int:
    """Token position times every station's remaining work."""
    return stations * (work + 1) ** stations


def counter_grid_states(width: int, height: int) -> int:
    return (width + 1) * (height + 1)


#: Synthesized height on :func:`counter_grid`: every cycle is one state's
#: ``idle`` self-loop, which starves the enabled ``dec`` or ``step``, so
#: one hypothesis over T suffices.
COUNTER_GRID_HEIGHT = 2


def nested_rings_states(depth: int) -> int:
    """``a_1..a_depth``, ``b`` and the terminal ``t``."""
    return depth + 2


def nested_rings_height(depth: int) -> int:
    """One unfairness hypothesis per nesting level, plus ``spin``'s region
    and T: synthesized stacks reach height ``depth + 2``."""
    return depth + 2


def distractor_states(distance: int) -> int:
    """``x`` runs from 0 to ``distance``."""
    return distance + 1


#: Synthesized height on :func:`distractor_loop`: one hypothesis (``la``)
#: over T, however many distractors starve it.
DISTRACTOR_HEIGHT = 2
