"""Compare two sets of pipeline-benchmark results: parent and change.

Usage, from the root of a checkout::

    python3 benchmarks/pipeline/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the ``result-*.json`` files of untraced
``run.py`` runs (traced results are skipped).  The protocol:

* both sides must come from the same machine and scale (``descriptor``
  fields other than ``commit`` and ``seed``), or nothing is compared;
* runs pair up in start order, at least 10 pairs; the two runs of a
  pair must share a seed, and which side ran first must alternate;
* a (metric, workload) pair is a **gain** when the change wins at least
  9 of 10 pairs (ties count for neither) and the medians differ by more
  than the parent's interquartile range; a **regression** when the
  change's median is worse than the parent's by more than the metric's
  ``BENCHMARK.json`` bound; **unresolved** when either side's spread
  (interquartile range over median) exceeds the bound, unless every run
  of the change reads better than every run of the parent; otherwise
  **same**;
* the share of failed jobs must not rise.

It prints one row per workload and exits 0, 1 on a regression or a rise
in failures, or 2 when the results cannot be compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

MIN_PAIRS = 10
WIN_SHARE = 0.9
#: Descriptor fields that must match across both sides; ``commit`` is
#: what differs, and ``seed`` need only match within a pair.
MACHINE = ("cpu_count", "affinity", "python", "platform", "scale")


class Incomparable(Exception):
    """The two result sets cannot be compared under the protocol."""


def load_runs(directory: Path) -> list:
    """The untraced results in ``directory``, in start order."""
    runs = []
    for path in sorted(Path(directory).glob("result-*.json")):
        with open(path, encoding="utf-8") as handle:
            run = json.load(handle)
        if not run.get("trace"):
            runs.append(run)
    return sorted(runs, key=lambda run: run["started"])


def check_descriptors(parent: list, change: list) -> None:
    reference = (parent + change)[0]["descriptor"]
    for run in parent + change:
        for field in MACHINE:
            if run["descriptor"][field] != reference[field]:
                raise Incomparable(
                    f"descriptors differ in {field}: "
                    f"{reference[field]!r} vs {run['descriptor'][field]!r}"
                )


def judge(parent: list, change: list, bound: float, higher: bool) -> dict:
    """The verdict on one (metric, workload) pair of paired samples."""
    better = (lambda c, p: c > p) if higher else (lambda c, p: c < p)
    p1, pm, p3 = statistics.quantiles(parent, n=4)
    c1, cm, c3 = statistics.quantiles(change, n=4)
    worse_by = (pm - cm) / pm if higher else (cm - pm) / pm
    spread = max((p3 - p1) / pm, (c3 - c1) / cm)
    wins = sum(better(c, p) for p, c in zip(parent, change))
    separated = all(better(c, p) for c in change for p in parent)
    if spread > bound and not separated:
        verdict = "unresolved"
    elif better(cm, pm) and wins >= WIN_SHARE * len(parent) and abs(cm - pm) > p3 - p1:
        verdict = "gain"
    elif worse_by > bound:
        verdict = "regression"
    else:
        verdict = "same"
    return {
        "verdict": verdict,
        "parent": (p1, pm, p3),
        "change": (c1, cm, c3),
        "delta": -worse_by,
        "spread": spread,
        "wins": wins,
    }


def compare(parent: list, change: list, catalogue: dict) -> dict:
    """``{workload: {"metrics": {name: judgement}, "failed": (p, c)}}``."""
    if not parent or not change:
        raise Incomparable("a side has no untraced result files")
    check_descriptors(parent, change)
    workloads = [
        w for w in parent[0]["workloads"] if all(w in r["workloads"] for r in parent + change)
    ]
    if not workloads:
        raise Incomparable("no workload was run on every result of both sides")
    pairs = list(zip(parent, change))
    if len(pairs) < MIN_PAIRS:
        raise Incomparable(f"{len(pairs)} pairs, at least {MIN_PAIRS} needed")
    for p, c in pairs:
        if p["descriptor"]["seed"] != c["descriptor"]["seed"]:
            raise Incomparable(
                f"a pair ran seeds {p['descriptor']['seed']} and {c['descriptor']['seed']}; "
                "both runs of a pair need the same seed"
            )
    parent_first = sum(p["started"] < c["started"] for p, c in pairs)
    if abs(2 * parent_first - len(pairs)) > 1:
        raise Incomparable(
            f"the parent ran first in {parent_first} of {len(pairs)} pairs; "
            "alternate which side runs first"
        )
    report = {}
    for workload in workloads:
        rows = {}
        for metric in catalogue["end_to_end"]:
            name = metric["name"]
            rows[name] = judge(
                [p["workloads"][workload]["end_to_end"][name] for p, _ in pairs],
                [c["workloads"][workload]["end_to_end"][name] for _, c in pairs],
                metric["bound"],
                metric["better"] == "higher",
            )

        def failed_share(runs: list) -> float:
            results = [run["workloads"][workload] for run in runs]
            return sum(r["failed"] for r in results) / sum(r["attempted"] for r in results)

        report[workload] = {
            "metrics": rows,
            "failed": (failed_share(parent), failed_share(change)),
        }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="directory of the parent's result files")
    parser.add_argument("change", help="directory of the change's result files")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        catalogue = json.load(handle)
    parent, change = load_runs(Path(args.parent)), load_runs(Path(args.change))
    try:
        report = compare(parent, change, catalogue)
    except Incomparable as error:
        print(f"refusing to compare: {error}", file=sys.stderr)
        return 2

    print(f"{len(parent)} parent runs, {len(change)} change runs; "
          f"descriptor {json.dumps({k: parent[0]['descriptor'][k] for k in MACHINE})}")
    bad = False
    for workload, row in report.items():
        cells = [
            f"{name} {j['verdict']} ({j['delta']:+.1%})" for name, j in row["metrics"].items()
        ]
        p_failed, c_failed = row["failed"]
        rose = c_failed > p_failed
        cells.append(f"failed_share {p_failed:.3g} -> {c_failed:.3g}{' ROSE' if rose else ''}")
        print(f"{workload}: " + " | ".join(cells))
        bad |= rose or any(j["verdict"] == "regression" for j in row["metrics"].values())
    print("\nquartiles (q1 median q3), parent vs change; spread = IQR / median")
    for workload, row in report.items():
        for name, j in row["metrics"].items():
            p, c = j["parent"], j["change"]
            print(
                f"  {workload:17s} {name:13s} "
                f"{p[0]:.4g} {p[1]:.4g} {p[2]:.4g}  vs  {c[0]:.4g} {c[1]:.4g} {c[2]:.4g}"
                f"  spread {j['spread']:.1%}  wins {j['wins']}"
            )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
