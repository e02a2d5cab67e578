#!/usr/bin/env python3
"""Diff the committed ``BENCH_*.json`` files against a baseline.

The benches regenerate the ``BENCH_*.json`` artifacts in the repo root;
this tool answers "did that run get faster or slower, per family?" by
comparing every timing column row-by-row against either

* the same files at a **git revision** (``--rev HEAD~1``, the default
  being ``HEAD`` — i.e. working tree vs. last commit), or
* a **directory** of previously saved artifacts (``--baseline-dir``).

Rows are matched by their workload/family label; every numeric
``*_seconds`` column is compared as ``speedup = baseline / current`` (so
>1.0 means the current tree is faster).  Exit status is 1 when any
column regressed past ``--regression`` (default 0.8×, i.e. >25 % slower),
which is what lets CI use this as a cheap perf tripwire::

    python benchmarks/compare.py                    # working tree vs HEAD
    python benchmarks/compare.py --rev v0           # vs a tag/commit
    python benchmarks/compare.py --baseline-dir /tmp/old --only BENCH_cache.json

``--trajectory [DIR]`` is a different lens: no baseline, no gate — it
reads *every* ``BENCH_*.json`` under ``DIR`` (default: the repo root) and
prints one flat history table of wall seconds and peak RSS per family per
experiment, so a reviewer can eyeball how cost moved across the whole
bench suite as the stack of PRs grew::

    python benchmarks/compare.py --trajectory
    python benchmarks/compare.py --trajectory /tmp/artifacts-from-ci

Only timing columns participate in the gate; state counts, digests and
RSS columns are reported informationally when they changed.  Peak-RSS
columns are *not* compared across the PR that changed their accounting
(``RUSAGE_SELF`` → ``max(SELF, CHILDREN)`` — see ``benchmarks/common.py``);
a larger RSS figure against an older baseline may be the accounting fix,
not a regression.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
from typing import Any, Dict, Iterable, List, Optional, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Row keys (in priority order) used to match rows across the two runs.
ROW_KEYS = ("workload", "family", "measurement", "name")

#: A timing column regressing past this factor fails the run (``--regression``).
DEFAULT_REGRESSION_GATE = 0.8


def _load_current(path: pathlib.Path) -> Optional[Dict[str, Any]]:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


def _load_git(rev: str, name: str) -> Optional[Dict[str, Any]]:
    proc = subprocess.run(
        ["git", "show", f"{rev}:{name}"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        return None
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError:
        return None


def _row_label(row: Dict[str, Any]) -> Optional[str]:
    for key in ROW_KEYS:
        value = row.get(key)
        if isinstance(value, str):
            # A file may key rows on workload *and* qualify them (E17 rows
            # repeat workloads across measurements) — fold the qualifiers in.
            extras = [
                str(row[k])
                for k in ("mode", "measurement")
                if k != key and isinstance(row.get(k), str)
            ]
            return " / ".join([value] + extras)
    return None


def _rows_by_label(payload: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    rows = payload.get("rows")
    labelled: Dict[str, Dict[str, Any]] = {}
    if isinstance(rows, list):
        for row in rows:
            if isinstance(row, dict):
                label = _row_label(row)
                if label is not None and label not in labelled:
                    labelled[label] = row
    return labelled


def _timing_columns(row: Dict[str, Any]) -> List[str]:
    return [
        key
        for key, value in row.items()
        if key.endswith("_seconds")
        and isinstance(value, (int, float))
        and not isinstance(value, bool)
    ]


def compare_file(
    name: str,
    current: Dict[str, Any],
    baseline: Dict[str, Any],
) -> Tuple[List[Tuple[str, str, float, float, float]], List[str]]:
    """``(timing_diffs, notes)`` for one artifact.

    Each diff is ``(row_label, column, baseline_s, current_s, speedup)``.
    """
    diffs: List[Tuple[str, str, float, float, float]] = []
    notes: List[str] = []
    old_rows = _rows_by_label(baseline)
    new_rows = _rows_by_label(current)
    for label in new_rows:
        if label not in old_rows:
            notes.append(f"{name}: new row {label!r} (no baseline)")
    for label in old_rows:
        if label not in new_rows:
            notes.append(f"{name}: row {label!r} dropped since baseline")
    for label, new_row in new_rows.items():
        old_row = old_rows.get(label)
        if old_row is None:
            continue
        for column in _timing_columns(new_row):
            old_value = old_row.get(column)
            if not isinstance(old_value, (int, float)) or isinstance(old_value, bool):
                continue
            new_value = new_row[column]
            speedup = old_value / new_value if new_value > 0 else float("inf")
            diffs.append((label, column, float(old_value), float(new_value), speedup))
        for column in ("states", "transitions", "graph_digest", "digest"):
            if column in old_row and column in new_row and old_row[column] != new_row[column]:
                notes.append(
                    f"{name}: {label!r} {column} changed "
                    f"{old_row[column]!r} -> {new_row[column]!r}"
                )
    return diffs, notes


def _render(
    name: str, diffs: Iterable[Tuple[str, str, float, float, float]], gate: float
) -> Tuple[List[str], int]:
    lines: List[str] = []
    regressions = 0
    rows = [
        (label, column, f"{old:.3f}", f"{new:.3f}", f"{speedup:.2f}x",
         "REGRESSION" if speedup < gate else "")
        for label, column, old, new, speedup in diffs
    ]
    regressions = sum(1 for row in rows if row[5])
    headers = ("family", "column", "baseline_s", "current_s", "speedup", "")
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines.append(f"== {name} ==")
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return lines, regressions


def trajectory_rows(
    directory: pathlib.Path,
) -> List[Tuple[str, str, str, float, Optional[float]]]:
    """Every timing column of every artifact under ``directory``.

    Returns ``(experiment, family, column, seconds, peak_rss_kb)`` tuples,
    ordered by artifact name then row order; ``peak_rss_kb`` is ``None``
    for rows that do not record RSS (e.g. child-process measurements).

    An artifact that cannot be read, fails to parse, or does not hold a
    JSON object is skipped with one warning on stderr — a stale or
    half-written file must never take the whole history table down.
    """
    collected: List[Tuple[str, str, str, float, Optional[float]]] = []
    for path in sorted(directory.glob("BENCH_*.json")):
        payload = _load_current(path)
        if payload is None:
            print(
                f"warning: {path.name}: unreadable or malformed JSON — "
                f"skipped",
                file=sys.stderr,
            )
            continue
        if not isinstance(payload, dict):
            print(
                f"warning: {path.name}: top level is "
                f"{type(payload).__name__}, not a JSON object — skipped",
                file=sys.stderr,
            )
            continue
        experiment = payload.get("experiment")
        if not isinstance(experiment, str):
            experiment = path.stem.replace("BENCH_", "")
        for label, row in _rows_by_label(payload).items():
            rss = row.get("peak_rss_kb")
            if not isinstance(rss, (int, float)) or isinstance(rss, bool):
                rss = None
            for column in _timing_columns(row):
                collected.append(
                    (experiment, label, column, float(row[column]), rss)
                )
    return collected


def render_trajectory(
    rows: List[Tuple[str, str, str, float, Optional[float]]],
) -> str:
    headers = ("experiment", "family", "column", "seconds", "peak_rss_kb")
    cells = [
        (experiment, label, column, f"{seconds:.3f}",
         "-" if rss is None else f"{rss:.0f}")
        for experiment, label, column, seconds, rss in rows
    ]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in cells))
        if cells else len(headers[i])
        for i in range(len(headers))
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    previous = None
    for row in cells:
        if previous is not None and row[0] != previous:
            lines.append("")
        previous = row[0]
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--rev",
        default="HEAD",
        help="git revision holding the baseline BENCH_*.json (default: HEAD)",
    )
    parser.add_argument(
        "--baseline-dir",
        type=pathlib.Path,
        default=None,
        help="read baseline artifacts from this directory instead of git",
    )
    parser.add_argument(
        "--only",
        action="append",
        default=None,
        metavar="FILE",
        help="compare only these artifact names (repeatable)",
    )
    parser.add_argument(
        "--regression",
        type=float,
        default=DEFAULT_REGRESSION_GATE,
        help=(
            "fail (exit 1) when any timing column's speedup drops below "
            f"this factor (default {DEFAULT_REGRESSION_GATE})"
        ),
    )
    parser.add_argument(
        "--trajectory",
        nargs="?",
        type=pathlib.Path,
        const=REPO_ROOT,
        default=None,
        metavar="DIR",
        help=(
            "print the wall/RSS history table over every BENCH_*.json "
            "under DIR (default: the repo root) instead of diffing"
        ),
    )
    args = parser.parse_args(argv)

    if args.trajectory is not None:
        rows = trajectory_rows(args.trajectory)
        if not rows:
            print(
                f"no BENCH_*.json artifacts under {args.trajectory}",
                file=sys.stderr,
            )
            return 2
        print(render_trajectory(rows))
        return 0

    names = args.only or sorted(
        path.name for path in REPO_ROOT.glob("BENCH_*.json")
    )
    if not names:
        print("no BENCH_*.json artifacts found", file=sys.stderr)
        return 2

    total_regressions = 0
    compared = 0
    all_notes: List[str] = []
    for name in names:
        current = _load_current(REPO_ROOT / name)
        if current is None:
            all_notes.append(f"{name}: unreadable in working tree — skipped")
            continue
        if args.baseline_dir is not None:
            baseline = _load_current(args.baseline_dir / name)
            source = str(args.baseline_dir)
        else:
            baseline = _load_git(args.rev, name)
            source = args.rev
        if baseline is None:
            all_notes.append(f"{name}: no baseline at {source} — skipped")
            continue
        diffs, notes = compare_file(name, current, baseline)
        all_notes.extend(notes)
        if not diffs:
            all_notes.append(f"{name}: no comparable timing rows")
            continue
        compared += 1
        lines, regressions = _render(name, diffs, args.regression)
        total_regressions += regressions
        print("\n".join(lines))
        print()
    for note in all_notes:
        print(f"note: {note}")
    if compared == 0:
        print("nothing compared", file=sys.stderr)
        return 2
    if total_regressions:
        print(
            f"{total_regressions} timing column(s) regressed past "
            f"{args.regression}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
