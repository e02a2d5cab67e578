"""The acceptance protocol of ``compare.py`` on synthetic result sets."""

import json
from pathlib import Path

import pytest

import compare

ROOT = Path(__file__).resolve().parents[2]
CATALOGUE = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
MACHINE = {
    "cpu_count": 2,
    "affinity": 2,
    "python": "3.11.7",
    "platform": "Linux-x86_64",
    "seed": 1,
    "scale": "full",
}
BASE = {"setup_s": 0.2, "job_s.p50": 0.02, "job_s.p90": 0.1, "states_per_s": 1e5, "peak_rss_mb": 50.0}
#: ±1% run-to-run wobble, the same on both sides.
WOBBLE = [1.0, 1.01, 0.99, 1.005, 0.995, 1.0, 1.01, 0.99, 1.002, 0.998]


def _runs(side, scale=None, failed=0, first=None, commit="c", **descriptor):
    """Ten results; ``scale`` multiplies one metric, ``first`` picks which
    side starts each pair (alternating by default)."""
    runs = []
    for i, wobble in enumerate(WOBBLE):
        parent_first = (i % 2 == 0) if first is None else first
        offset = 0 if (side == "parent") == parent_first else 1
        metrics = {name: value * wobble for name, value in BASE.items()}
        if scale:
            name, factor = scale
            metrics[name] *= factor
        runs.append({
            "descriptor": dict(MACHINE, commit=commit, **descriptor),
            "started": 10.0 * i + offset,
            "trace": 0,
            "workloads": {"w": {"end_to_end": metrics, "attempted": 100, "failed": failed}},
        })
    return runs


def _verdicts(parent, change):
    report = compare.compare(parent, change, CATALOGUE)
    return {name: j["verdict"] for name, j in report["w"]["metrics"].items()}, report["w"]["failed"]


def test_same_code_is_same_everywhere():
    verdicts, failed = _verdicts(_runs("parent"), _runs("change", commit="d"))
    assert set(verdicts.values()) == {"same"}
    assert failed == (0.0, 0.0)


def test_a_slowdown_past_the_bound_is_a_regression():
    verdicts, _ = _verdicts(_runs("parent"), _runs("change", scale=("job_s.p90", 1.4)))
    assert verdicts["job_s.p90"] == "regression"
    assert verdicts["job_s.p50"] == "same"


def test_a_consistent_speedup_is_a_gain():
    verdicts, _ = _verdicts(_runs("parent"), _runs("change", scale=("states_per_s", 1.2)))
    assert verdicts["states_per_s"] == "gain"


def test_a_speedup_within_the_noise_is_not_a_gain():
    verdicts, _ = _verdicts(_runs("parent"), _runs("change", scale=("job_s.p50", 0.998)))
    assert verdicts["job_s.p50"] == "same"


def test_a_spread_wider_than_the_bound_is_unresolved():
    change = _runs("change")
    for run, factor in zip(change, [1.0, 1.6, 0.7, 1.5, 0.8, 1.0, 1.4, 0.75, 1.0, 1.0]):
        run["workloads"]["w"]["end_to_end"]["job_s.p50"] *= factor
    verdicts, _ = _verdicts(_runs("parent"), change)
    assert verdicts["job_s.p50"] == "unresolved"


def test_pairs_may_run_different_seeds():
    parent, change = _runs("parent"), _runs("change", commit="d")
    for i, (p, c) in enumerate(zip(parent, change)):
        p["descriptor"]["seed"] = c["descriptor"]["seed"] = 100 + i
    verdicts, _ = _verdicts(parent, change)
    assert set(verdicts.values()) == {"same"}


def test_failed_share_is_reported_per_side():
    _, failed = _verdicts(_runs("parent"), _runs("change", failed=3))
    assert failed == (0.0, 0.03)


@pytest.mark.parametrize(
    "change, reason",
    [
        (_runs("change", cpu_count=4), "cpu_count"),
        (_runs("change", seed=2), "seed"),
        (_runs("change")[:9], "pairs"),
        (_runs("change", first=True), "alternate"),
    ],
)
def test_incomparable_sets_are_refused(change, reason):
    parent = _runs("parent", first=True) if reason == "alternate" else _runs("parent")
    with pytest.raises(compare.Incomparable, match=reason):
        compare.compare(parent, change, CATALOGUE)
