"""E14 — compiled GCL exploration against the interpreter, at scale.

The compile-and-cache PR lowered every command's guard and body into
Python closures (:mod:`repro.gcl.compile`), memoized successor sets per
state on the :class:`~repro.gcl.program.Program`, and added an optional
cross-run disk cache (now :mod:`repro.engine.graphstore`).  This bench times
``explore()`` per workload family in four configurations —

* **interpreted** — ``Program(ast, compiled=False)``, the seed's
  tree-walking evaluator;
* **compiled** — a fresh compiled program per repeat (cold successor
  cache: the figure includes closure dispatch but no memoization wins);
* **warm** — a second exploration of an already-explored program (the
  successor cache is warm, but value-plane exploration expands through
  the batched kernels and never consults it, so this column now tracks
  **compiled**);
* **disk hit** — :func:`~repro.engine.graphstore.explore_with_cache`
  reloading a previously stored graph, skipping exploration entirely —

and asserts **bit-identical graphs** across all four: same state order,
same transitions, same enabled sets, same frontier.  Only GCL programs
have an AST to compile; the explicit-state families (``rings``,
``random``) are recorded as ``mode: "explicit"`` rows without timings so
the JSON shows they were skipped rather than silently dropped.

Rows land in the experiment tables (see EXPERIMENTS.md §E14) and in
``BENCH_explore.json`` at the repo root.  ``ENGINE_BENCH_SMOKE=1``
shrinks the workloads to CI size; the ≥ 2× compiled-vs-interpreted gate
on the largest family applies only at full scale, and the verdict
records the scale.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from common import (
    MIN_REPEATS,
    last_peak_rss_kb,
    last_telemetry,
    maybe_enable_bench_telemetry,
    record_table,
    timed_median,
)

from repro.analysis import Table
from repro.engine import explore_with_cache
from repro.gcl import Program
from repro.ts import explore
from repro.workloads import engine_scaling_suite

SMOKE = os.environ.get("ENGINE_BENCH_SMOKE") == "1"
SCALE = "smoke" if SMOKE else "full"
REPEATS = MIN_REPEATS if SMOKE else max(MIN_REPEATS, 3)
LARGEST = "grid"  # the family the speedup criterion is judged on
MIN_SPEEDUP = 2.0
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_explore.json"


def _graph_fingerprint(graph):
    """Everything observable about a ReachableGraph, as a hashable value.

    Two runs agree on this iff they produced bit-identical graphs:
    identical state *order*, transitions, enabled sets and frontier.
    """
    return (
        tuple(state.values for state in graph.states),
        tuple(
            (t.source, t.command, t.target) for t in graph.transitions
        ),
        tuple(
            frozenset(graph.enabled_at(index))
            for index in range(len(graph))
        ),
        tuple(graph.initial_indices),
        tuple(sorted(graph.frontier)),
    )


def _timed_explore(make_program):
    """Median exploration time over fresh program instances."""
    median, graphs = timed_median(
        explore, repeats=REPEATS, setup=make_program
    )
    fingerprint = _graph_fingerprint(graphs[0])
    for graph in graphs[1:]:
        assert _graph_fingerprint(graph) == fingerprint
    return median, fingerprint


def _timed_warm_explore(ast):
    """Median re-exploration time of an already-explored program."""

    def warmed_program():
        program = Program(ast, compiled=True)
        explore(program)
        return program

    median, graphs = timed_median(
        explore, repeats=REPEATS, setup=warmed_program
    )
    return median, _graph_fingerprint(graphs[0])


def _timed_disk_hit(ast, cache_dir):
    """Median time to reload a stored exploration from ``cache_dir``."""
    primed = Program(ast, compiled=True)
    graph, hit = explore_with_cache(primed, cache_dir=cache_dir)
    assert not hit, "cache directory was expected to start cold"

    median, results = timed_median(
        lambda program: explore_with_cache(program, cache_dir=cache_dir),
        repeats=REPEATS,
        setup=lambda: Program(ast, compiled=True),
    )
    for reloaded, was_hit in results:
        assert was_hit, "second run should reload from the disk cache"
    return median, _graph_fingerprint(results[0][0])


def test_e14_explore_scaling():
    maybe_enable_bench_telemetry()
    table = Table(
        "E14 — compiled vs interpreted exploration "
        f"({'smoke sizes' if SMOKE else 'full sizes'})",
        ["workload", "states", "interp s", "compiled s", "warm s",
         "disk hit s", "speedup", "identical"],
    )
    rows = []
    speedups = {}
    with tempfile.TemporaryDirectory(prefix="e14-cache-") as cache_root:
        for name, make in engine_scaling_suite(SCALE):
            system = make()
            if not isinstance(system, Program):
                rows.append({
                    "workload": name,
                    "mode": "explicit",
                    "note": "explicit-state system: no AST to compile",
                })
                continue
            ast = system.ast
            interp_s, fp_interp = _timed_explore(
                lambda: Program(ast, compiled=False)
            )
            compiled_s, fp_compiled = _timed_explore(
                lambda: Program(ast, compiled=True)
            )
            warm_s, fp_warm = _timed_warm_explore(ast)
            cache_dir = Path(cache_root) / name
            disk_s, fp_disk = _timed_disk_hit(ast, cache_dir)
            assert fp_compiled == fp_interp, f"{name}: compiled != interp"
            assert fp_warm == fp_interp, f"{name}: warm cache != interp"
            assert fp_disk == fp_interp, f"{name}: disk cache != interp"
            states = len(fp_interp[0])
            speedup = (
                interp_s / compiled_s if compiled_s > 0 else float("inf")
            )
            speedups[name] = speedup
            table.add(
                name, states, f"{interp_s:.3f}", f"{compiled_s:.3f}",
                f"{warm_s:.3f}", f"{disk_s:.3f}", f"{speedup:.2f}x", "yes",
            )
            rows.append({
                "workload": name,
                "mode": "gcl",
                "states": states,
                "transitions": len(fp_interp[1]),
                "interpreted_seconds": interp_s,
                "compiled_seconds": compiled_s,
                "warm_cache_seconds": warm_s,
                "disk_hit_seconds": disk_s,
                "speedup": speedup,
                "peak_rss_kb": last_peak_rss_kb(),
                "telemetry": last_telemetry(),
                "identical": True,
            })
    record_table(table)

    largest = next(name for name in speedups if name.startswith(LARGEST))
    OUTPUT.write_text(json.dumps({
        "experiment": "E14",
        "scale": SCALE,
        "repeats": REPEATS,
        "largest_family": largest,
        "largest_speedup": speedups[largest],
        "verdict": {
            "scale": SCALE,
            "headline_column": "compiled",
            "speedup_gate_applies": not SMOKE,
            "min_speedup_required": MIN_SPEEDUP if not SMOKE else None,
        },
        "min_speedup_required": MIN_SPEEDUP if not SMOKE else None,
        "rows": rows,
    }, indent=2) + "\n")

    if not SMOKE:
        assert speedups[largest] >= MIN_SPEEDUP, (
            f"compiled exploration is only {speedups[largest]:.2f}x the "
            f"interpreter on {largest} (need {MIN_SPEEDUP}x)"
        )
