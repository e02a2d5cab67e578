"""One workload of the pipeline benchmark, in a fresh interpreter.

``run.py`` starts this script once per set-up launch and once for the
timed run.  It is a closed-loop client: it starts a job only after the
previous job's verdict.  A set-up launch stops at "first job ready"
(imports, input generation and, for ``decide-ring-j2``, the process pool)
and prints one ``ready`` line; the timed run then makes passes over the
job list until ``--seconds`` are spent and prints one JSON object.

Run it through ``run.py``; it imports the library from this checkout's
``src``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def import_checkout():
    """Put this checkout's ``src`` first on ``sys.path`` and import the
    library from it, or exit 2 when the checkout has no sources."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no library sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        print(f"error: imported repro from {repro.__file__}", file=sys.stderr)
        sys.exit(2)


def _program_counters(snapshot: dict) -> dict:
    """The job's program counters, with every ``verify.plane.fallback.*``
    reason folded into ``verify.plane.fallback``, plus the one gauge the
    benchmark reports (the state count at a streaming verdict)."""
    counters = dict(snapshot["counters"])
    counters["verify.plane.fallback"] = sum(
        n for name, n in counters.items() if name.startswith("verify.plane.fallback.")
    )
    counters["stream.states_at_verdict"] = snapshot["gauges"].get(
        "stream.states_at_verdict", 0
    )
    return counters


def _probe_assign(observed: dict) -> float:
    """Seconds to call the compiled assignment on every explored state."""
    graph, assignment = observed["_probe"]
    start = time.perf_counter()
    for index in range(len(graph)):
        assignment(graph.state_of(index))
    return time.perf_counter() - start


def run_passes(mix, seconds: float, trace: bool, min_passes: int) -> dict:
    """Make passes over ``mix.jobs`` until ``seconds`` are spent.

    Untraced, every pass is timed with telemetry off.  Traced, passes
    alternate off and on, so the overhead ratio compares the two in one
    process; traced passes also record spans, program counters and
    ``phase_seconds()`` per job, then reset them.  Everything but the
    job itself (oracle, probe, counter copy, cache reset) runs with the
    clock stopped.
    """
    from mixes import Tracer, mismatches
    from repro import telemetry

    tracer = Tracer()
    plain = {job.id: [] for job in mix.jobs}
    traced = {job.id: [] for job in mix.jobs}
    attempted = failed = 0
    failures = []
    passes = 0
    started = time.perf_counter()
    while True:
        tracer.on = trace and passes % 2 == 1
        if tracer.on:
            telemetry.reset()
            telemetry.enable()
        mix.reset()
        gc.collect()
        for job in mix.jobs:
            tracer.begin(attempted, job_id=job.id, kind=job.kind, **{"pass": passes})
            start = time.perf_counter()
            try:
                observed = job.run(tracer)
                error = None
            except Exception as exc:  # a job that raises is a failed job
                observed, error = {}, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            spans, counts = tracer.end()
            attempted += 1
            wrong = [error] if error else mismatches(observed, job.expect)
            if wrong:
                failed += 1
                if len(failures) < 20:
                    failures.append(
                        {"job": job.id, "kind": job.kind, "pass": passes, "wrong": wrong}
                    )
            if tracer.on:
                if "_probe" in observed:
                    spans["measures.assign"] = _probe_assign(observed)
                traced[job.id].append({
                    "s": elapsed,
                    "spans": spans,
                    "counts": counts,
                    "counters": _program_counters(telemetry.registry().snapshot()),
                    "phases": telemetry.phase_seconds(),
                })
                telemetry.reset()
            else:
                plain[job.id].append(elapsed)
            # Free the job's graph now, not inside the next job's clock.
            observed = None
        if tracer.on:
            telemetry.disable()
            telemetry.reset()
        passes += 1
        spent = time.perf_counter() - started
        if passes >= min_passes and spent + spent / passes > seconds:
            break
    return {
        "passes": passes,
        "measured_s": time.perf_counter() - started,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "plain": plain,
        "traced": traced,
        "spans": tracer.spans,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for."""
    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak / 1024.0


def set_up(name: str, scale: str, seed: int, workdir: Path):
    """Everything before the first job: imports, inputs, the pool."""
    import mixes

    mix = mixes.build(name, scale, seed, workdir)
    spinup = 0.0
    if mix.pool_workers:
        from repro.engine.parallel import get_pool

        start = time.perf_counter()
        pool = get_pool(mix.pool_workers)
        # Workers start on first use; make them exist before the first job.
        list(pool.map(abs, range(mix.pool_workers)))
        spinup = time.perf_counter() - start
    return mix, spinup


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-passes", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_checkout()
    from repro.engine.parallel import shutdown_pool

    mix, spinup = set_up(args.workload, args.scale, args.seed, Path(args.workdir))
    try:
        if args.setup_only:
            print("ready " + json.dumps({"spinup_s": spinup}), flush=True)
            return 0
        result = run_passes(mix, args.seconds, bool(args.trace), args.min_passes)
    finally:
        shutdown_pool()
        mix.cleanup()
    result["peak_rss_mb"] = peak_rss_mb()
    result["jobs"] = [
        {"id": job.id, "kind": job.kind, "size": job.size} for job in mix.jobs
    ]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
