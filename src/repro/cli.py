"""Command-line interface: ``repro-fair`` / ``python -m repro``.

Subcommands
-----------

* ``show FILE`` — parse and pretty-print a GCL program;
* ``explore FILE`` — enumerate reachable states;
* ``decide FILE`` — decide fair termination (Streett emptiness), printing a
  fair-lasso counterexample when one exists;
* ``synthesize FILE`` — synthesise and verify a fair termination measure,
  printing each state's stack;
* ``simulate FILE`` — run under a fair or adversarial scheduler;
* ``tree FILE`` — run the Theorem 3 construction on the history tree and
  report its statistics.

All subcommands accept ``--max-states``/``--max-depth`` exploration bounds
(infinite-state programs need them) and ``--jobs N``, which fans the
columnar verification plane of ``check``/``synthesize`` out over a process
pool (results are identical to the serial run).  Exploration, decision and
synthesis always run in-process; there ``--jobs`` is accepted and has no
effect.  ``synthesize`` and ``check`` print an engine-timing footer.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Optional, Sequence

from repro import telemetry

from repro.completeness.construction import longest_chain_length, theorem3_construction
from repro.completeness.history import add_history_variable
from repro.completeness.synthesis import NotFairlyTerminatingError, synthesize_measure
from repro.fairness.checker import check_fair_termination
from repro.fairness.scheduler import (
    AdversarialScheduler,
    LeastRecentlyExecutedScheduler,
)
from repro.fairness.simulate import simulate
from repro.gcl.pretty import render_program
from repro.gcl.program import Program, parse_program
from repro.measures.verification import check_measure
from repro.ts.explore import explore


def _load(path: str) -> Program:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_program(handle.read())


def _explore(args: argparse.Namespace, program: Program):
    """Explore honouring ``--max-states``/``--max-depth``/``--jobs``/
    ``--cache-dir``/``--cache-max-mb``."""
    from repro.engine.graphstore import explore_with_cache

    graph, hit = explore_with_cache(
        program,
        max_states=args.max_states,
        max_depth=args.max_depth,
        cache_dir=args.cache_dir,
        n_jobs=args.jobs,
        cache_max_mb=args.cache_max_mb,
    )
    if args.cache_dir is not None:
        from repro.engine.graphstore import last_outcome

        outcome = last_outcome()
        if outcome.kind == "incremental":
            detail = f"miss, incremental: {outcome.reused_states} states replayed"
        else:
            detail = "hit" if hit else "miss"
        print(f"graph cache: {detail} ({args.cache_dir})")
    return graph


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("file", help="GCL source file")
    parser.add_argument(
        "--max-states", type=int, default=None, help="exploration state budget"
    )
    parser.add_argument(
        "--max-depth", type=int, default=None, help="exploration depth bound"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for measure verification (the columnar "
        "plane); no effect on exploration, decision or synthesis "
        "(default/1 = serial; small work auto-falls back to serial; "
        "results are bit-identical either way)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="cache explored graphs on disk, keyed by the canonical "
        "program text, the exploration bounds and the job count; repeated "
        "runs skip exploration entirely",
    )
    parser.add_argument(
        "--cache-max-mb",
        type=float,
        default=None,
        metavar="MB",
        help="size cap for --cache-dir; when the cache exceeds it, least "
        "recently used entries are evicted (default: unbounded)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="print the hierarchical span tree (phase timings and per-span "
        "counters) to stderr when the command finishes",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write the full telemetry snapshot (counters, gauges, "
        "histograms, spans) as JSON to FILE (see docs/METHOD.md "
        "§Observability for the schema)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="live one-line exploration progress on stderr "
        "(states, queued, depth, states/s; plain lines when stderr is "
        "not a TTY)",
    )
    parser.add_argument(
        "--events-out",
        default=None,
        metavar="FILE",
        help="append the structured event stream (run lifecycle, phases, "
        "exploration rounds, cache outcomes, verdicts) to FILE as NDJSON "
        "— one schema-validated JSON object per line (docs/METHOD.md §13)",
    )
    parser.add_argument(
        "--expose",
        type=int,
        default=None,
        metavar="PORT",
        help="serve GET /metrics (Prometheus text), /events (NDJSON tail "
        "of the flight recorder) and /healthz on 127.0.0.1:PORT for the "
        "duration of the run (0 = ephemeral port; set "
        "REPRO_EXPOSE_LINGER=SECONDS to keep serving after the command "
        "finishes)",
    )


#: Root-span name → footer label (the CLI spells "synthesise" British).
_PHASE_LABELS = (
    ("explore", "explore"),
    ("synthesize", "synthesise"),
    ("verify", "verify"),
    ("decide", "decide"),
)


def _engine_footer(args: argparse.Namespace) -> str:
    """One-line engine report: root-span phase timings, per-cache hit/miss
    totals, the states-until-verdict of a streaming run, and the worker
    count used — all sourced from the one shared snapshot helper
    (:func:`repro.telemetry.sinks.engine_counters`), never from ad-hoc
    registry reads."""
    from repro.engine import resolve_jobs

    counters = telemetry.engine_counters()
    phases = counters["phases"]
    parts = [
        f"{label} {phases[name]:.3f}s"
        for name, label in _PHASE_LABELS
        if name in phases
    ]
    if counters["succ_hits"] or counters["succ_misses"]:
        parts.append(
            f"succ-cache hit/miss {counters['succ_hits']}/{counters['succ_misses']}"
        )
    if counters["store_hits"] or counters["store_misses"]:
        parts.append(
            f"graph-store hit/miss "
            f"{counters['store_hits']}/{counters['store_misses']}"
        )
    if counters["incremental_reused"]:
        parts.append(f"incremental reuse {counters['incremental_reused']} states")
    if counters["plane_rows"]:
        parts.append(f"verify-plane {counters['plane_rows']} rows")
    if counters["mask_primes"]:
        parts.append(f"mask primes {counters['mask_primes']}")
    if counters["states_at_verdict"] is not None:
        parts.append(f"verdict at {int(counters['states_at_verdict'])} states")
    report = " · ".join(parts) if parts else "no instrumented phases ran"
    return f"engine: {report} (jobs={resolve_jobs(args.jobs)})"


def _cmd_show(args: argparse.Namespace) -> int:
    program = _load(args.file)
    print(render_program(program.ast), end="")
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    program = _load(args.file)
    graph = _explore(args, program)
    print(f"{program.name}: {graph.describe()}")
    terminal = graph.terminal_indices()
    print(f"terminal states: {len(terminal)}")
    for index in terminal[:10]:
        print(f"  {graph.state_of(index)!r}")
    return 0


def _cmd_decide(args: argparse.Namespace) -> int:
    program = _load(args.file)
    if args.stream:
        from repro.fairness.checker import check_fair_termination_streaming

        result = check_fair_termination_streaming(
            program,
            max_states=args.max_states,
            max_depth=args.max_depth,
            n_jobs=args.jobs,
        )
    else:
        graph = _explore(args, program)
        result = check_fair_termination(graph)
    print(f"{program.name}: {result}")
    if args.stream:
        print(_engine_footer(args))
    if result.witness is not None:
        print("fair infinite computation (counterexample):")
        print(f"  {result.witness.lasso.describe()}")
        return 1
    if not result.decisive:
        print(
            "note: exploration was bounded; the verdict covers the explored "
            "region only"
        )
    return 0


def _cmd_synthesize(args: argparse.Namespace) -> int:
    program = _load(args.file)
    graph = _explore(args, program)
    if not graph.complete:
        print(
            "error: synthesis needs the complete reachable graph; raise "
            "--max-states/--max-depth or bound the program",
            file=sys.stderr,
        )
        return 2
    try:
        synthesis = synthesize_measure(graph, n_jobs=args.jobs)
    except NotFairlyTerminatingError as error:
        print(f"{program.name} does not fairly terminate: {error}")
        if error.witness is not None:
            print(f"  {error.witness.lasso.describe()}")
        return 1
    check = check_measure(graph, synthesis.assignment(), n_jobs=args.jobs)
    check.raise_if_failed()
    print(
        f"{program.name}: fair termination measure synthesised and verified "
        f"({check.transitions_checked} transitions, max stack height "
        f"{synthesis.max_stack_height()})"
    )
    print(_engine_footer(args))
    if args.stacks:
        for index in range(len(graph)):
            state = graph.state_of(index)
            print(f"  {state!r}: {synthesis.stacks[index].render()}")
    if args.profile:
        from repro.analysis import profile_measure

        profile = profile_measure(graph, synthesis.assignment(), check)
        print(profile.describe())
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    program = _load(args.file)
    if args.starve:
        scheduler = AdversarialScheduler(avoid=set(args.starve))
        kind = f"adversarial (starving {args.starve})"
    else:
        scheduler = LeastRecentlyExecutedScheduler(program.commands())
        kind = "least-recently-executed (strongly fair)"
    result = simulate(program, scheduler, max_steps=args.steps)
    outcome = "terminated" if result.terminated else "still running"
    print(f"{program.name} under {kind}: {outcome} after {result.steps} steps")
    counts = result.trace.execution_counts()
    for command in program.commands():
        print(f"  {command}: executed {counts.get(command, 0)} times")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.measures.annotate import annotate
    from repro.measures.assertfile import load_assertion_file

    program = _load(args.file)
    assertion = load_assertion_file(args.assertion)
    try:
        proof = annotate(program, assertion)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.stream or args.fail_fast:
        result = proof.check_streaming(
            max_states=args.max_states,
            max_depth=args.max_depth,
            n_jobs=args.jobs,
            max_violations=1 if args.fail_fast else None,
        )
    else:
        result = proof.check(
            max_states=args.max_states, max_depth=args.max_depth, n_jobs=args.jobs
        )
    print(f"{program.name} with {args.assertion}: {result.summary()}")
    print(_engine_footer(args))
    if getattr(result, "stopped_early", False):
        print(
            f"stopped early: exploration halted after "
            f"{result.states_explored} states (first violation found)"
        )
    if result.ok:
        if not result.complete:
            print(
                "note: the state space was only partially explored; the "
                "conditions hold on the explored region"
            )
        return 0
    for violation in result.violations[: args.show]:
        print(violation)
    remaining = len(result.violations) - args.show
    if remaining > 0:
        print(f"... and {remaining} further violations")
    return 1


def _cmd_compare(args: argparse.Namespace) -> int:
    program = _load(args.file)
    graph = _explore(args, program)
    if not graph.complete:
        print(
            "error: the comparison needs the complete reachable graph",
            file=sys.stderr,
        )
        return 2
    from repro.baselines import compare_methods

    comparison = compare_methods(program.name, graph, scheduler_credit=args.credit)
    print(f"{program.name}: {len(graph)} states")
    for method, programs, states, notes in comparison.rows():
        print(f"  {method}: {programs} program(s), {states} states reasoned "
              f"about ({notes})")
    return 0


def _cmd_notions(args: argparse.Namespace) -> int:
    from repro.fairness import (
        find_fair_cycle,
        find_impartial_cycle,
        find_weakly_fair_cycle,
    )

    program = _load(args.file)
    graph = _explore(args, program)
    rows = [
        ("weak fairness (justice)", find_weakly_fair_cycle(graph)),
        ("strong fairness", find_fair_cycle(graph)),
        ("impartiality", find_impartial_cycle(graph)),
    ]
    print(f"{program.name}: termination under the [LPS81] notions")
    for name, witness in rows:
        verdict = "terminates" if witness is None else "does NOT terminate"
        print(f"  under {name}: {verdict}")
        if witness is not None:
            print(f"    fair cycle: {witness.lasso.describe()}")
    if not graph.complete:
        print("note: exploration was bounded; verdicts cover the explored region")
    return 0


def _cmd_response(args: argparse.Namespace) -> int:
    from repro.gcl.eval import evaluate_bool
    from repro.gcl.parser import parse_expression
    from repro.response import (
        ResponseProperty,
        check_fair_response,
        check_response_measure,
        pending_indices,
        synthesize_response_measure,
    )

    program = _load(args.file)
    trigger_expr = parse_expression(args.trigger)
    response_expr = parse_expression(args.response)
    prop = ResponseProperty(
        name=f"{args.trigger} leads to {args.response}",
        trigger=lambda state: evaluate_bool(trigger_expr, state),
        response=lambda state: evaluate_bool(response_expr, state),
    )
    result = check_fair_response(
        program, prop, max_states=args.max_states, max_depth=args.max_depth
    )
    print(f"{program.name}: G(({args.trigger}) -> F ({args.response})): {result}")
    if result.witness is not None:
        print("fair counterexample (obligation pending forever):")
        print(f"  {result.witness.lasso.describe()}")
        return 1
    if result.decisive:
        pending = pending_indices(result.product_graph)
        if pending:
            synthesis = synthesize_response_measure(result.product_graph, pending)
            check = check_response_measure(
                result.product_graph, pending, synthesis.assignment()
            )
            check.raise_if_failed()
            print(
                f"response measure synthesised and verified on "
                f"{len(pending)} pending states "
                f"({check.transitions_checked} transitions)"
            )
    else:
        print("note: exploration was bounded; the verdict covers the explored region")
    return 0


def _cmd_tree(args: argparse.Namespace) -> int:
    program = _load(args.file)
    depth = args.max_depth if args.max_depth is not None else 8
    graph = explore(add_history_variable(program), max_depth=depth)
    measure = theorem3_construction(graph)
    verification = measure.verify()
    print(f"{program.name}: history tree to depth {depth}: {graph.describe()}")
    print(f"verification: {verification.summary()}")
    print(
        f"W: {measure.relation.size} values, {len(measure.relation.edges)} "
        f"descents, longest chain {longest_chain_length(measure.relation)}; "
        f"case 1 × {measure.stats.case1_total}, case 2 × "
        f"{measure.stats.case2_total}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-fair",
        description="Stack assertions and progress measures for fair "
        "termination (Klarlund, PODC 1992)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    show = subparsers.add_parser("show", help="parse and pretty-print")
    _add_common(show)
    show.set_defaults(run=_cmd_show)

    explore_cmd = subparsers.add_parser("explore", help="enumerate states")
    _add_common(explore_cmd)
    explore_cmd.set_defaults(run=_cmd_explore)

    decide = subparsers.add_parser("decide", help="decide fair termination")
    _add_common(decide)
    decide.add_argument(
        "--stream",
        action="store_true",
        help="hunt for a fair-lasso counterexample during staged exploration "
        "and exit as soon as one is found; verdicts match the materialized "
        "run for the same bounds (streaming bypasses --cache-dir)",
    )
    decide.set_defaults(run=_cmd_decide)

    synthesize = subparsers.add_parser(
        "synthesize", help="synthesise a fair termination measure"
    )
    _add_common(synthesize)
    synthesize.add_argument(
        "--stacks", action="store_true", help="print each state's stack"
    )
    synthesize.add_argument(
        "--profile", action="store_true", help="print measure statistics"
    )
    synthesize.set_defaults(run=_cmd_synthesize)

    simulate_cmd = subparsers.add_parser("simulate", help="run a scheduler")
    _add_common(simulate_cmd)
    simulate_cmd.add_argument(
        "--steps", type=int, default=10_000, help="step budget"
    )
    simulate_cmd.add_argument(
        "--starve",
        nargs="*",
        default=None,
        help="starve these commands (adversarial scheduler)",
    )
    simulate_cmd.set_defaults(run=_cmd_simulate)

    tree = subparsers.add_parser(
        "tree", help="Theorem 3 construction on the history tree"
    )
    _add_common(tree)
    tree.set_defaults(run=_cmd_tree)

    check = subparsers.add_parser(
        "check", help="verify a stack-assertion file against a program"
    )
    _add_common(check)
    check.add_argument(
        "--assertion", required=True, help="assertion file (see docs/METHOD.md)"
    )
    check.add_argument(
        "--show", type=int, default=3, help="violations to print on failure"
    )
    check.add_argument(
        "--stream",
        action="store_true",
        help="verify each transition as exploration reaches it instead of "
        "materializing the graph first; memory stays proportional to the "
        "frontier and verdicts are identical (streaming bypasses --cache-dir)",
    )
    check.add_argument(
        "--fail-fast",
        action="store_true",
        help="stop exploring at the first violation (implies --stream)",
    )
    check.set_defaults(run=_cmd_check)

    compare = subparsers.add_parser(
        "compare", help="stack assertions vs earlier methods"
    )
    _add_common(compare)
    compare.add_argument(
        "--credit", type=int, default=2, help="explicit-scheduler credit bound"
    )
    compare.set_defaults(run=_cmd_compare)

    notions = subparsers.add_parser(
        "notions", help="termination under weak/strong/impartial fairness"
    )
    _add_common(notions)
    notions.set_defaults(run=_cmd_notions)

    response = subparsers.add_parser(
        "response", help="check G(trigger -> F response) under strong fairness"
    )
    _add_common(response)
    response.add_argument(
        "--trigger", required=True, help="GCL boolean expression, e.g. 'x == 2'"
    )
    response.add_argument(
        "--response", required=True, help="GCL boolean expression, e.g. 'x == 0'"
    )
    response.set_defaults(run=_cmd_response)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point.

    Telemetry collects for every subcommand (its cost is one flag check per
    phase boundary) so the engine footer and the ``--trace`` /
    ``--metrics-out`` sinks always have data; it is reset first and disabled
    afterwards so embedding callers (tests, benchmarks) never see CLI state
    leak into their own measurements.  The structured event stream is reset
    alongside it: every run starts at sequence number 1 with a ``run.start``
    event and closes with ``run.end``.  An unhandled exception in any
    subcommand dumps the flight-recorder tail, a metrics snapshot and the
    traceback to ``postmortem-<ts>.json`` before re-raising.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    telemetry.reset()
    telemetry.reset_events()
    telemetry.enable(progress=getattr(args, "progress", False))
    sink = None
    server = None
    events_out = getattr(args, "events_out", None)
    if events_out is not None:
        sink = telemetry.NdjsonEventSink(events_out)
        telemetry.subscribe(sink)
    expose_port = getattr(args, "expose", None)
    if expose_port is not None:
        from repro.telemetry.expose import ExpositionServer, linger_seconds

        server = ExpositionServer(port=expose_port)
        server.start()
        print(
            f"expose: serving /metrics /events /healthz on {server.url}",
            file=sys.stderr,
        )
    started = time.monotonic()
    telemetry.emit(
        "run.start",
        command=args.command,
        file=getattr(args, "file", None),
        pid=os.getpid(),
        jobs=getattr(args, "jobs", None),
    )
    code: Optional[int] = None
    try:
        code = args.run(args)
        return code
    except Exception as error:
        path = telemetry.write_postmortem(
            error,
            command=args.command,
            argv=list(argv) if argv is not None else sys.argv[1:],
        )
        print(f"postmortem written: {path}", file=sys.stderr)
        raise
    finally:
        counters = telemetry.engine_counters()
        telemetry.emit(
            "run.end",
            command=args.command,
            exit_code=code,
            crashed=code is None,
            seconds=time.monotonic() - started,
            succ_hits=counters["succ_hits"],
            succ_misses=counters["succ_misses"],
            store_hits=counters["store_hits"],
            store_misses=counters["store_misses"],
            states_at_verdict=counters["states_at_verdict"],
        )
        if getattr(args, "trace", False):
            telemetry.print_trace()
        metrics_out = getattr(args, "metrics_out", None)
        if metrics_out is not None:
            telemetry.write_metrics(metrics_out)
        if server is not None:
            linger = linger_seconds()
            if linger:
                time.sleep(linger)
            server.stop()
        if sink is not None:
            sink.close()
        telemetry.disable()


if __name__ == "__main__":
    sys.exit(main())
