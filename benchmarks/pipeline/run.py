"""The pipeline benchmark: five seeded job mixes, every verdict checked.

Usage, from the root of a checkout::

    python3 benchmarks/pipeline/run.py                       # all workloads
    python3 benchmarks/pipeline/run.py --workload store-edit --seed 7
    python3 benchmarks/pipeline/run.py --trace 1             # per-layer run

Each workload runs in a fresh interpreter (``child.py``) as one
closed-loop client.  Set-up time is the median of fresh launches timed
from exec to "first job ready", half of them before the timed run and
half after it; the timed run makes passes over the job list for
``--seconds``, and a job's time is its median pass.
The command prints every metric as ``workload metric value unit``,
writes a result file with the machine descriptor under ``--out``, and
ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}`` holding the end-to-end metrics of ``BENCHMARK.json`` or,
with ``--trace 1``, its per-layer metrics (prefixed ``workload/`` when
more than one workload ran).  The exit code is 0 when every verdict
matched its closed form, 1 when one did not, and 2 when the benchmark
could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CHILD = HERE / "child.py"

WORKLOADS = (
    "check-hypercube",
    "decide-ring-j2",
    "synthesize-rings",
    "stream-trap",
    "store-edit",
)
DEFAULT_SEED = 1
#: Fresh launches whose median is ``setup_s``.  Half run before the timed
#: run and half after it, so that they sample the host across the run
#: rather than in one second of it.
SETUP_LAUNCHES = {"full": 8, "smoke": 1}
#: Passes a timed run makes at least; past these it makes as many as fit
#: in ``--seconds``.  A traced run alternates untraced and traced passes,
#: so it makes at least two.
MIN_PASSES = {"full": 3, "smoke": 1}
CHILD_TIMEOUT_S = 170

#: The spans jobs record, each reported as ``<span>.share`` of the traced
#: job time.  A span's layer is its first name component.
SPANS = (
    "gcl.parse",
    "measures.assertion",
    "measures.verify",
    "measures.stream_check",
    "ts.system",
    "ts.explore",
    "ts.terminal",
    "fairness.decide",
    "fairness.stream_decide",
    "completeness.synthesize",
    "engine.graphstore.load",
    "engine.graphstore.publish",
    "engine.graphstore.incremental",
)
#: Program counters reported as summed over the job list;
#: ``verify.plane.fallback`` sums every ``verify.plane.fallback.*`` reason.
COUNTERS = (
    "verify.plane.engaged",
    "verify.plane.fallback",
    "shard.rounds",
    "shard.parallel_rounds",
    "batch.rows",
    "parallel.dispatch.parallel",
    "parallel.dispatch.demoted_small_work",
    "synthesize.regions",
    "stream.states_at_verdict",
    "graphstore.bytes.written",
)


def load_catalogue() -> dict:
    """``BENCHMARK.json``: the metric names and units."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def git_head() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def descriptor(seed: int, scale: str) -> dict:
    """The machine and the inputs a result was measured on."""
    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_head(),
        "seed": seed,
        "scale": scale,
    }


# -- children -------------------------------------------------------------


def _start(command: list) -> subprocess.Popen:
    # A session of its own, so that a timeout can kill the child together
    # with the pool workers it started.
    return subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, start_new_session=True
    )


def _finish(child: subprocess.Popen, what: str) -> str:
    """The rest of ``child``'s output once it has exited with 0."""
    try:
        out, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise RuntimeError(f"{what} exceeded {CHILD_TIMEOUT_S} s") from None
    if child.returncode != 0:
        raise RuntimeError(f"{what} failed (exit {child.returncode})")
    return out


def launch_setup(command: list) -> tuple:
    """Seconds from exec to the child's ``ready`` line, and its report."""
    start = time.perf_counter()
    with _start(command + ["--setup-only"]) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        _finish(child, "set-up launch")
    if not line.startswith("ready "):
        raise RuntimeError("set-up launch printed no ready line")
    return elapsed, json.loads(line[len("ready "):])


def run_child(command: list) -> dict:
    with _start(command) as child:
        out = _finish(child, "timed run")
    return json.loads(out.strip().splitlines()[-1])


# -- metrics --------------------------------------------------------------


def p90(values: list) -> float:
    """The 90th percentile (``statistics.quantiles``, inclusive)."""
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _medians(samples: dict, key=lambda sample: sample) -> list:
    """Each job's median over its passes."""
    return [statistics.median(key(s) for s in runs) for runs in samples.values() if runs]


def end_to_end(raw: dict, times: list, setups: list) -> dict:
    """End-to-end metrics from each job's median untraced pass
    (``times``) and the set-up launches."""
    return {
        "setup_s": statistics.median(setups),
        "job_s.p50": statistics.median(times),
        "job_s.p90": p90(times),
        "states_per_s": sum(job["size"] for job in raw["jobs"]) / sum(times),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(raw: dict, launches: list) -> dict:
    """Per-layer metrics of the traced passes: each job's median over
    them, summed over the job list.

    Layer times are reported as shares of the traced job time (the
    assignment probe's too, although it runs outside the job) and the
    pool spin-up as a share of a set-up launch, so that a layer a
    workload never calls reads 0 rather than a time of 0 s.
    """
    traced = raw["traced"]

    def total(field: str, name: str) -> float:
        return sum(_medians(traced, lambda r: r[field].get(name, 0)))

    job_s = sum(_medians(traced, lambda r: r["s"]))
    spans = {name: total("spans", name) for name in SPANS}
    metrics = {f"{name}.share": _ratio(s, job_s) for name, s in spans.items()}
    metrics["measures.assign.share"] = _ratio(total("spans", "measures.assign"), job_s)
    metrics["measures.verify.transitions_per_s"] = _ratio(
        total("counts", "measures.verify.transitions"), spans["measures.verify"]
    )
    metrics["ts.explore.states_per_s"] = _ratio(
        total("counts", "ts.explore.states"), spans["ts.explore"]
    )
    hits, misses = total("counters", "succache.hit"), total("counters", "succache.miss")
    metrics["succache.hit_ratio"] = _ratio(hits, hits + misses)
    hits = total("counters", "graphstore.chunk.hit")
    misses = total("counters", "graphstore.chunk.miss")
    metrics["graphstore.chunk_reuse_ratio"] = _ratio(hits, hits + misses)
    for name in COUNTERS:
        metrics[name] = total("counters", name)
    metrics["parallel.pool.spinup.share"] = statistics.median(
        _ratio(report["spinup_s"], elapsed) for elapsed, report in launches
    )
    for phase in ("explore", "verify", "decide", "synthesize"):
        metrics[f"phase.{phase}.share"] = _ratio(total("phases", phase), job_s)
    metrics["telemetry.overhead_ratio"] = _ratio(job_s, sum(_medians(raw["plain"])))
    return metrics


def layer_shares(per_layer_metrics: dict) -> dict:
    """Each layer's share of the traced job time: its spans' shares summed."""
    shares: dict = {}
    for name in SPANS:
        layer = name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + per_layer_metrics[f"{name}.share"]
    return shares


def run_workload(workload: str, args, workdir: Path) -> dict:
    """Set-up launches, then the timed run; the workload's result."""
    command = [
        sys.executable,
        str(CHILD),
        "--workload", workload,
        "--seed", str(args.seed),
        "--scale", args.scale,
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--min-passes", str(max(MIN_PASSES[args.scale], 2 * args.trace)),
        "--workdir", str(workdir),
    ]
    count = SETUP_LAUNCHES[args.scale]
    launches = [launch_setup(command) for _ in range((count + 1) // 2)]
    raw = run_child(command)
    launches += [launch_setup(command) for _ in range(count // 2)]
    setups = [elapsed for elapsed, _ in launches]
    # Other tenants of the host slow its cores for seconds at a time, in
    # either direction: a job's fastest pass is often one rare quiet
    # moment, so its median pass is the steadier estimate.
    times = [statistics.median(raw["plain"][str(job["id"])]) for job in raw["jobs"]]
    result = {
        "jobs": len(raw["jobs"]),
        "passes": raw["passes"],
        "measured_s": raw["measured_s"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "failures": raw["failures"],
        "setup_launches_s": setups,
        "end_to_end": end_to_end(raw, times, setups),
        "job_table": [dict(job, s=s) for job, s in zip(raw["jobs"], times)],
    }
    if args.trace:
        result["per_layer"] = per_layer(raw, launches)
        result["layers"] = layer_shares(result["per_layer"])
        result["spans"] = raw["spans"]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the pipeline benchmark (see benchmarks/pipeline/README.md)."
    )
    parser.add_argument(
        "--workload", action="append", choices=WORKLOADS,
        help="workload to run (repeatable; default: all five)",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="timed-run length per workload (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument(
        "--out", default=str(HERE / "out"),
        help="directory for result files, trace.json and temporary caches",
    )
    args = parser.parse_args(argv)

    try:
        catalogue = load_catalogue()
    except (OSError, ValueError) as error:
        print(f"error: cannot read BENCHMARK.json: {error}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = catalogue["run_seconds"]
    workloads = args.workload or list(WORKLOADS)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    report = {
        "descriptor": descriptor(args.seed, args.scale),
        "started": time.time(),
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": {},
    }
    units = {m["name"]: m["unit"] for m in catalogue["end_to_end"] + catalogue["per_layer"]}
    for workload in workloads:
        workdir = out / f"work-{os.getpid()}-{workload}"
        try:
            result = run_workload(workload, args, workdir)
        except (RuntimeError, OSError, ValueError) as error:
            print(f"error: {workload}: {error}", file=sys.stderr)
            return 2
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        report["workloads"][workload] = result
        print(
            f"# {workload}: {result['jobs']} jobs, {result['passes']} passes in "
            f"{result['measured_s']:.1f} s, {result['failed']}/{result['attempted']} failed",
            flush=True,
        )
        for failure in result["failures"]:
            print(f"#   FAILED {failure}", flush=True)
        if "layers" in result:
            shares = " ".join(f"{layer} {share:.3f}" for layer, share in result["layers"].items())
            print(f"# {workload} layer shares: {shares}", flush=True)
        shown = dict(result["end_to_end"], **result.get("per_layer", {}))
        for name, value in shown.items():
            print(f"{workload} {name} {value:.6g} {units[name]}", flush=True)

    spans = {name: r.pop("spans") for name, r in report["workloads"].items() if "spans" in r}
    if spans:
        with open(out / "trace.json", "w", encoding="utf-8") as handle:
            json.dump({"descriptor": report["descriptor"], "workloads": spans}, handle)
    result_path = out / f"result-{stamp}-{os.getpid()}.json"
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    print(f"# result written to {result_path}", flush=True)

    attempted = sum(r["attempted"] for r in report["workloads"].values())
    failed = sum(r["failed"] for r in report["workloads"].values())
    metrics = {}
    for workload, result in report["workloads"].items():
        key = "per_layer" if args.trace else "end_to_end"
        values = result[key]
        prefix = "" if len(workloads) == 1 else f"{workload}/"
        for metric in catalogue[key]:
            name = metric["name"]
            metrics[prefix + name] = {"value": values[name], "unit": metric["unit"]}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
