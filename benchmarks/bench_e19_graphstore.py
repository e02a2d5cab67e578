"""E19 — the content-addressed graph store: warm mmap loads and
chunk-reusing incremental re-exploration.

:mod:`repro.engine.graphstore` publishes explored graphs as
content-addressed binary chunks under per-configuration manifests, with
mmap-backed zero-copy warm loads and per-command-digest incremental
re-exploration.  This bench puts numbers on all three paths over the
million-state ``HypercubeRebound`` family —

* **cold** — ``explore_with_cache`` into an empty directory: full BFS
  plus the chunked store;
* **v2 warm** — a manifest hit: sha-verified mmap of the chunk files,
  columns adopted zero-copy, no exploration at all;
* **incremental** — a one-command edit of the program (the ``rebound``
  kick changes): unchanged commands replay masks and posts from the
  mapped base columns, only the edited command re-evaluates —

and asserts **bit-identical graphs** (via :func:`repro.engine.graph_digest`)
for every path against a from-scratch serial exploration.  Rows land in
the experiment tables and in ``BENCH_cache.json`` at the repo root.

``ENGINE_BENCH_SMOKE=1`` shrinks the family to CI size; the acceptance
gates — v2 warm ≥ 10× faster than the cold exploration, and the single-command edit
reusing ≥ 50 % of the base's chunks — apply only at full scale, and the
verdict records the scale.
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
from repro.engine import graph_digest
from repro.engine import graphstore
from repro.engine.graphstore import explore_with_cache, last_outcome
from repro.ts import explore
from repro.workloads import grid_hypercube_rebound

SMOKE = os.environ.get("ENGINE_BENCH_SMOKE") == "1"
SCALE = "smoke" if SMOKE else "full"
REPEATS = MIN_REPEATS
#: (dims, side): (6, 9) is the (side+1)^dims = 10^6-state instance the
#: acceptance gates are phrased over.
DIMS, SIDE = (3, 3) if SMOKE else (6, 9)
MIN_WARM_SPEEDUP = 10.0
MIN_CHUNK_REUSE = 0.5
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_cache.json"


def _base_program():
    return grid_hypercube_rebound(DIMS, SIDE, kick=1)


def _edited_program():
    """The same family with only the ``rebound`` body changed — one
    command digest differs, everything else replays."""
    return grid_hypercube_rebound(DIMS, SIDE, kick=2)


def _prime(cache_dir, graph, program):
    """Store ``graph`` for ``program`` the way ``explore_with_cache``
    would, including the family tag the incremental planner matches on."""
    key = graphstore.exploration_cache_key(program, None, None)
    family = graphstore.family_key(program, None, None)
    return graphstore.store_graph(graph, cache_dir, key, family=family)


def _timed_cold(tmp_root):
    """Median explore-and-store time into a fresh directory each repeat."""
    counter = {"n": 0}

    def fresh():
        counter["n"] += 1
        cache_dir = Path(tmp_root) / f"cold-{counter['n']}"
        return (_base_program(), cache_dir)

    def run(arg):
        program, cache_dir = arg
        graph, hit = explore_with_cache(program, cache_dir=cache_dir)
        assert not hit
        return graph

    median, graphs = timed_median(run, repeats=REPEATS, setup=fresh)
    return median, graphs[0]


def _timed_v2_warm(cache_dir):
    """Median manifest-hit time: verify, mmap, adopt — no exploration."""
    median, results = timed_median(
        lambda program: explore_with_cache(program, cache_dir=cache_dir),
        repeats=REPEATS,
        setup=_base_program,
    )
    for _, was_hit in results:
        assert was_hit, "primed directory should serve every warm load"
    return median, results[0][0]


def _incremental_reuse(cache_dir):
    """One incremental run against a base-only directory: the chunk-reuse
    and state-replay figures the acceptance gate is phrased over."""
    graph, hit = explore_with_cache(_edited_program(), cache_dir=cache_dir)
    outcome = last_outcome()
    assert not hit
    assert outcome.kind == "incremental", (
        f"expected the edited program to re-explore incrementally, "
        f"got {outcome.kind!r}"
    )
    return graph, outcome


def _timed_incremental(cache_dir):
    """Median incremental re-exploration time.  The edited manifest is
    removed between repeats so every run takes the replay path instead of
    a plain hit (its chunks may stay: they are content-addressed, and
    republishing dedups against them)."""
    manifest = graphstore._manifest_path(
        cache_dir,
        graphstore.exploration_cache_key(_edited_program(), None, None),
    )

    def without_manifest():
        manifest.unlink(missing_ok=True)
        return _edited_program()

    median, results = timed_median(
        lambda program: explore_with_cache(program, cache_dir=cache_dir),
        repeats=REPEATS,
        setup=without_manifest,
    )
    assert last_outcome().kind == "incremental"
    return median, results[0][0]


def test_e19_graphstore():
    maybe_enable_bench_telemetry()
    table = Table(
        "E19 — graph store: cold, mmap warm, incremental "
        f"({'smoke sizes' if SMOKE else 'full sizes'})",
        ["path", "states", "seconds", "vs cold", "chunks reused",
         "identical"],
    )
    family = f"rebound({DIMS},{SIDE})"
    with tempfile.TemporaryDirectory(prefix="e19-cache-") as tmp_root:
        cold_s, graph = _timed_cold(tmp_root)
        cold_rss = last_peak_rss_kb()
        states = len(graph)
        reference = graph_digest(graph)
        edited_reference = graph_digest(explore(_edited_program()))

        warm_dir = Path(tmp_root) / "warm"
        report = _prime(warm_dir, graph, _base_program())
        v2_s, v2_graph = _timed_v2_warm(warm_dir)
        warm_telemetry = last_telemetry()

        incr_dir = Path(tmp_root) / "incremental"
        _prime(incr_dir, graph, _base_program())
        incr_graph, outcome = _incremental_reuse(incr_dir)
        incr_s, incr_timed_graph = _timed_incremental(incr_dir)

        identical = {
            "v2_warm": graph_digest(v2_graph) == reference,
            "incremental": graph_digest(incr_graph) == edited_reference,
            "incremental_timed":
                graph_digest(incr_timed_graph) == edited_reference,
        }
        assert all(identical.values()), f"digest drift: {identical}"

        warm_speedup = cold_s / v2_s if v2_s > 0 else float("inf")
        chunk_reuse = (
            outcome.chunks_reused / outcome.chunks_total
            if outcome.chunks_total
            else 0.0
        )

        table.add("cold explore+store", states, f"{cold_s:.3f}", "1.00x",
                  "-", "yes")
        table.add("v2 warm (mmap)", states, f"{v2_s:.3f}",
                  f"{warm_speedup:.1f}x", "-", "yes")
        table.add(
            "incremental (1-cmd edit)", states, f"{incr_s:.3f}", "-",
            f"{outcome.chunks_reused}/{outcome.chunks_total} "
            f"({chunk_reuse:.0%})",
            "yes",
        )
        record_table(table)

        rows = [
            {
                "workload": family,
                "measurement": "cold",
                "states": states,
                "cold_seconds": cold_s,
                "chunks_written": report.chunks_total,
                "peak_rss_kb": cold_rss,
                "identical": True,
            },
            {
                "workload": family,
                "measurement": "v2_warm",
                "states": states,
                "v2_warm_seconds": v2_s,
                "warm_speedup_over_cold": warm_speedup,
                "peak_rss_kb": last_peak_rss_kb(),
                "telemetry": warm_telemetry,
                "identical": identical["v2_warm"],
            },
            {
                "workload": family,
                "measurement": "incremental",
                "states": states,
                "incremental_seconds": incr_s,
                "chunks_total": outcome.chunks_total,
                "chunks_reused": outcome.chunks_reused,
                "chunk_reuse": chunk_reuse,
                "reused_states": outcome.reused_states,
                "fresh_states": outcome.fresh_states,
                "identical": identical["incremental"],
            },
        ]

    OUTPUT.write_text(json.dumps({
        "experiment": "E19",
        "scale": SCALE,
        "repeats": REPEATS,
        "family": family,
        "warm_speedup_over_cold": warm_speedup,
        "chunk_reuse": chunk_reuse,
        "verdict": {
            "scale": SCALE,
            "gates_apply": not SMOKE,
            "min_warm_speedup_required": (
                MIN_WARM_SPEEDUP if not SMOKE else None
            ),
            "min_chunk_reuse_required": (
                MIN_CHUNK_REUSE if not SMOKE else None
            ),
            "digest_identical": identical,
        },
        "rows": rows,
    }, indent=2) + "\n")

    if not SMOKE:
        assert warm_speedup >= MIN_WARM_SPEEDUP, (
            f"mmap warm load is only {warm_speedup:.1f}x the cold "
            f"exploration on {family} (need {MIN_WARM_SPEEDUP}x)"
        )
        assert chunk_reuse >= MIN_CHUNK_REUSE, (
            f"the one-command edit reused only {chunk_reuse:.0%} of the "
            f"base's chunks on {family} (need {MIN_CHUNK_REUSE:.0%})"
        )
