"""E12 — the decision procedure and measure synthesis at scale.

Paper context: fair termination is Π¹₁-complete in general (footnote 1),
but finite-state instances are decidable — and the completeness argument
is *constructive* there: the synthesiser emits a stack assignment that the
independent checker then verifies.  Rows: per workload family and size —
states, decision time burden proxies (transitions), synthesised stack
height, and checker verdict; every synthesised measure passes.  The
nested-rings rows grow stack height to 1602; ``seconds`` is the median of
three explore → decide → synthesise → verify runs.  Benchmarks:
the full decide→synthesise→verify pipeline on a ~2.5k-state grid.
"""

from common import record_table, timed_median

from repro.analysis import Table
from repro.completeness import synthesize_measure
from repro.fairness import check_fair_termination
from repro.measures import check_measure
from repro.ts import explore
from repro.workloads import (
    counter_grid,
    modulus_chain,
    nested_rings,
    token_ring,
)

WORKLOADS = [
    ("grid(9,9)", lambda: counter_grid(9, 9)),
    ("grid(19,19)", lambda: counter_grid(19, 19)),
    ("grid(49,49)", lambda: counter_grid(49, 49)),
    ("chain(2 stages)", lambda: modulus_chain(2)),
    ("chain(3 stages)", lambda: modulus_chain(3, fuel=5)),
    ("ring(32)", lambda: token_ring(32)),
    ("ring(128)", lambda: token_ring(128)),
    ("rings(8)", lambda: nested_rings(8)),
    ("rings(100)", lambda: nested_rings(100)),
    ("rings(400)", lambda: nested_rings(400)),
    ("rings(1600)", lambda: nested_rings(1600)),
]


def pipeline(system):
    graph = explore(system)
    verdict = check_fair_termination(graph)
    assert verdict.fairly_terminates
    synthesis = synthesize_measure(graph)
    result = check_measure(graph, synthesis.assignment(), keep_witnesses=False)
    assert result.ok
    return graph, synthesis


def test_e12_synthesis_scaling(benchmark):
    table = Table(
        "E12 — decide → synthesise → verify on growing workloads",
        ["workload", "states", "transitions", "stack height", "regions",
         "verified", "seconds"],
    )
    for name, make in WORKLOADS:
        seconds, results = timed_median(lambda: pipeline(make()), warmup=0)
        graph, synthesis = results[-1]
        table.add(
            name,
            len(graph),
            len(graph.transitions),
            synthesis.max_stack_height(),
            synthesis.region_count(),
            "PASS",
            f"{seconds:.2f}",
        )
    record_table(table)
    benchmark(pipeline, counter_grid(49, 49))
