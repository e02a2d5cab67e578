"""Telemetry must be invisible to results: bit-identical graphs, clean CLI.

Collection may add wall time but never changes what the engine computes —
the canonical :func:`~repro.engine.shard.graph_digest` must agree with
telemetry on and off, at every job count.  The CLI smoke tests cover the
``--trace``/``--metrics-out``/``--progress`` plumbing end to end.
"""

import json

import pytest

from repro import telemetry
from repro.cli import main
from repro.engine.shard import graph_digest
from repro.telemetry import validate_snapshot
from repro.ts import explore
from repro.workloads import counter_grid, nested_rings

P2 = "examples/assertions/p2.gcl"


def _digest(make_system, n_jobs=None):
    return graph_digest(explore(make_system(), n_jobs=n_jobs))


class TestBitIdentity:
    @pytest.mark.parametrize("make", [
        lambda: counter_grid(5, 5),
        lambda: nested_rings(3),
    ])
    def test_serial_explore_digest_unchanged(self, make):
        baseline = _digest(make)
        telemetry.enable()
        assert _digest(make) == baseline

    def test_sharded_explore_digest_unchanged(self, monkeypatch):
        monkeypatch.setenv("REPRO_FORCE_PARALLEL", "1")
        make = lambda: counter_grid(5, 5)
        baseline = _digest(make, n_jobs=2)
        telemetry.enable()
        assert _digest(make, n_jobs=2) == baseline
        assert _digest(make) == baseline  # serial agrees too

    def test_progress_line_does_not_change_the_graph(self, capsys):
        baseline = _digest(lambda: counter_grid(5, 5))
        telemetry.enable(progress=True)
        assert _digest(lambda: counter_grid(5, 5)) == baseline


class TestCliSinks:
    def test_metrics_out_writes_a_valid_snapshot(self, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        assert main(
            ["synthesize", P2, "--metrics-out", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        validate_snapshot(payload)
        counters = payload["metrics"]["counters"]
        assert counters["explore.runs"] == 1
        assert counters["verify.transitions"] > 0
        names = [span["name"] for span in payload["spans"]]
        assert names == ["explore", "synthesize", "verify"]

    def test_trace_prints_the_span_tree_to_stderr(self, capsys):
        assert main(["synthesize", P2, "--trace"]) == 0
        captured = capsys.readouterr()
        assert "trace:" in captured.err
        assert "explore" in captured.err
        assert "synthesize" in captured.err
        # stdout is unchanged user output, footer included
        assert "engine:" in captured.out

    def test_cli_output_identical_with_and_without_sinks(
        self, tmp_path, capsys
    ):
        main(["synthesize", P2])
        plain = capsys.readouterr().out
        main([
            "synthesize", P2,
            "--trace",
            "--metrics-out", str(tmp_path / "m.json"),
            "--progress",
        ])
        instrumented = capsys.readouterr().out

        def stable(text):
            # Timings jitter run to run; compare everything but digits.
            return "".join(ch for ch in text if not ch.isdigit())

        assert stable(instrumented) == stable(plain)

    def test_cli_disables_telemetry_on_exit(self):
        main(["explore", P2])
        assert not telemetry.enabled()


class TestDisabledAllocatesNothing:
    def test_no_spans_no_metrics_after_full_pipeline(self):
        from repro.completeness.synthesis import synthesize_measure
        from repro.measures.verification import check_measure

        graph = explore(counter_grid(4, 4))
        synthesis = synthesize_measure(graph)
        check_measure(graph, synthesis.assignment())
        assert telemetry.root_spans() == []
        snap = telemetry.snapshot()
        assert snap["metrics"] == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        assert snap["spans"] == []
