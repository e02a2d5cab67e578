"""The pipeline benchmark end to end at ``--scale smoke``."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import child
import mixes

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "benchmarks" / "pipeline" / "run.py"
CATALOGUE = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in CATALOGUE["workloads"]]


def _shm_segments():
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("repro-shm")}
    except FileNotFoundError:
        return set()


def _run(out, *extra):
    before = _shm_segments()
    started = time.monotonic()
    completed = subprocess.run(
        [sys.executable, str(RUN), "--scale", "smoke", "--seconds", "0.1", "--out", str(out), *extra],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.monotonic() - started
    assert completed.returncode == 0, completed.stderr + completed.stdout
    assert _shm_segments() <= before, "shared-memory segments left behind"
    assert not list(Path(out).glob("work-*")), "temporary cache dirs left behind"
    lines = completed.stdout.strip().splitlines()
    rows = [line.split() for line in lines if not line.startswith(("#", "{"))]
    return rows, json.loads(lines[-1]), elapsed, Path(out)


def _printed(rows):
    printed = {}
    for workload, name, value, unit in rows:
        key = (workload, name)
        assert key not in printed, f"{key} printed twice"
        printed[key] = (float(value), unit)
    return printed


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("untraced"))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    rows, final, _, _ = _run(out, "--trace", "1")
    trace = json.loads((out / "trace.json").read_text(encoding="utf-8"))
    return rows, final, trace


def test_every_end_to_end_metric_printed_once_with_its_unit(untraced):
    rows, _, elapsed, _ = untraced
    printed = _printed(rows)
    for workload in WORKLOADS:
        for metric in CATALOGUE["end_to_end"]:
            value, unit = printed[(workload, metric["name"])]
            assert unit == metric["unit"]
            assert value > 0
    assert elapsed < 20


def test_every_verdict_matches_its_closed_form(untraced):
    _, final, _, _ = untraced
    assert final["correct"] is True
    assert final["failed"] == 0
    assert final["attempted"] > 0
    assert set(final["metrics"]) == {
        f"{w}/{m['name']}" for w in WORKLOADS for m in CATALOGUE["end_to_end"]
    }


def test_result_file_records_the_machine(untraced):
    results = list(untraced[3].glob("result-*.json"))
    assert len(results) == 1
    descriptor = json.loads(results[0].read_text(encoding="utf-8"))["descriptor"]
    assert descriptor["cpu_count"] == os.cpu_count()
    assert descriptor["affinity"] == len(os.sched_getaffinity(0))
    assert descriptor["seed"] == 1 and descriptor["scale"] == "smoke"
    assert {"python", "platform", "commit"} <= set(descriptor)


def test_traced_run_prints_every_per_layer_metric(traced):
    rows, final, _ = traced
    printed = _printed(rows)
    for workload in WORKLOADS:
        for metric in CATALOGUE["per_layer"]:
            assert printed[(workload, metric["name"])][1] == metric["unit"]
        assert printed[(workload, "telemetry.overhead_ratio")][0] > 0
    assert final["failed"] == 0


def test_trace_spans_are_well_nested_and_share_job_ids(traced):
    _, _, trace = traced
    assert set(trace["workloads"]) == set(WORKLOADS)
    for workload, spans in trace["workloads"].items():
        roots = [s for s in spans if s["parent"] is None]
        assert roots and all(s["name"] == "job" for s in roots)
        assert len({s["job"] for s in roots}) == len(roots)
        children = [s for s in spans if s["parent"] is not None]
        assert children, workload
        for span in children:
            parent = spans[span["parent"]]
            assert parent["id"] == span["parent"]
            assert span["job"] == parent["job"]
            assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]


def test_planted_wrong_answer_is_counted_as_a_failure(tmp_path):
    mix = mixes.build("check-hypercube", "smoke", 1, tmp_path)
    mix.jobs[0].expect["states"] += 1
    result = child.run_passes(mix, seconds=0, trace=False, min_passes=1)
    assert result["attempted"] == len(mix.jobs)
    assert result["failed"] == 1
    assert result["failures"][0]["job"] == 0
