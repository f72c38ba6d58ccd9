"""``repro`` commands that schedule loops on a machine."""

from __future__ import annotations

import argparse
import json
import sys

from repro.commands.common import (
    add_observability_flags,
    add_resilience_flags,
    add_runlog_flag,
    load_machine,
    make_budget,
    observing,
    record_run,
    write_export,
)
from repro.errors import ReproError


def _graphs(args: argparse.Namespace) -> list:
    """The ``--kernel`` graph, or the first ``--loops`` suite loops."""
    if args.kernel:
        from repro.workloads.kernels import KERNELS

        return [KERNELS[args.kernel]()]
    from repro.workloads.loopgen import loop_suite

    return loop_suite(args.loops)


def _schedule_corpus(args: argparse.Namespace, machine) -> int:
    """``repro schedule --corpus``: the whole suite in one pass."""
    from repro.scheduler.corpus import CorpusScheduler

    graphs = _graphs(args)
    policy = None
    budget = None
    if args.fallback:
        from repro.scheduler.ladder import FallbackPolicy

        policy = FallbackPolicy(
            deadline_s=args.deadline, max_units=args.max_units
        )
    else:
        budget = make_budget(args, "schedule:corpus")
    scheduler = CorpusScheduler(
        machine,
        representation=args.representation,
        word_cycles=args.word_cycles,
        policy=policy,
        processes=args.processes,
    )
    record_run(
        machine=machine.name,
        workload=args.kernel or ("suite[%d]" % args.loops),
        representation=scheduler.representation,
        rung="corpus",
    )
    with observing(args) as tracer:
        if tracer is not None:
            tracer.meta.update(
                command="schedule", machine=machine.name,
                representation=scheduler.representation,
                kernel=args.kernel or ("suite[%d]" % args.loops),
            )
        result = scheduler.schedule_suite(graphs, budget=budget)
        record_run(
            result.work,
            ((o.ii, o.mii) for o in result.outcomes if not o.failed),
        )
        print(
            "%-22s %4s %4s %4s %-6s"
            % ("loop", "ops", "MII", "II", "rung")
        )
        optimal = 0
        for outcome in result.outcomes:
            if outcome.failed:
                print(
                    "%-22s %4d %4s %4s %-6s"
                    % (outcome.name, outcome.ops, "-", "-",
                       outcome.error_type)
                )
                continue
            optimal += outcome.ii == outcome.mii
            print(
                "%-22s %4d %4d %4d %-6s"
                % (outcome.name, outcome.ops, outcome.mii,
                   outcome.ii, outcome.rung)
            )
        print(
            "\ncorpus: %d scheduled, %d degraded, %d failed of %d loops"
            " (%d at MII)"
            % (result.scheduled, result.degraded, result.failed,
               len(result.outcomes), optimal)
        )
    return 1 if result.failed else 0


def _write_explain_report(machine, graphs, args, path: str) -> None:
    """Build and write a ``repro-explain-report`` v1 JSON artifact."""
    from repro.analysis.explain import build_explain_report
    from repro.resilience import artifacts

    report = build_explain_report(
        machine,
        graphs,
        representation=args.representation,
        word_cycles=args.word_cycles,
    )
    artifacts.write_json(path, report, kind="explain")
    print("wrote explain report %s" % path, file=sys.stderr)


def schedule_arguments(p: argparse.ArgumentParser) -> None:
    from repro.query.modulo import DISCRETE, REPRESENTATIONS
    from repro.workloads.kernels import KERNELS

    p.add_argument("machine")
    p.add_argument("--kernel", choices=sorted(KERNELS))
    p.add_argument("--loops", type=int, default=20)
    p.add_argument(
        "--representation", choices=REPRESENTATIONS, default=DISCRETE
    )
    p.add_argument(
        "--corpus",
        action="store_true",
        help="schedule the whole suite in one pass; loop failures are"
        " contained per loop and reported, exiting 1",
    )
    p.add_argument(
        "--processes",
        type=int,
        default=None,
        metavar="N",
        help="with --corpus: schedule the suite in N processes (default:"
        " the available CPUs, fewer for small suites; 1 is serial)."
        " Forced serial when a --max-units/--deadline budget is set or"
        " the run is traced",
    )
    p.add_argument("--word-cycles", type=int, default=1)
    p.add_argument(
        "--explain",
        metavar="FILE",
        help="also write a repro-explain-report v1 JSON artifact"
        " attributing MII and per-II failures (see 'repro explain')",
    )
    add_observability_flags(p)
    add_resilience_flags(p)
    add_runlog_flag(p)


def schedule(args: argparse.Namespace) -> int:
    machine = load_machine(args.machine)
    if args.corpus:
        return _schedule_corpus(args, machine)
    from repro.scheduler.modulo import IterativeModuloScheduler

    scheduler = IterativeModuloScheduler(
        machine,
        representation=args.representation,
        word_cycles=args.word_cycles,
    )
    graphs = _graphs(args)
    optimal = 0
    record_run(
        machine=machine.name,
        workload=args.kernel or ("suite[%d]" % args.loops),
        representation=args.representation,
        rung="full",
    )
    with observing(args) as tracer:
        if tracer is not None:
            tracer.meta.update(
                command="schedule", machine=machine.name,
                representation=args.representation,
                kernel=args.kernel or ("suite[%d]" % args.loops),
            )
        if args.fallback:
            from repro.scheduler.ladder import (
                FallbackPolicy,
                schedule_with_fallback,
            )

            policy = FallbackPolicy(
                deadline_s=args.deadline, max_units=args.max_units
            )
            print(
                "%-22s %4s %4s %4s %-6s"
                % ("loop", "ops", "MII", "II", "rung")
            )
            rungs = set()
            for graph in graphs:
                outcome = schedule_with_fallback(
                    machine,
                    graph,
                    policy,
                    representation=args.representation,
                    word_cycles=args.word_cycles,
                )
                optimal += outcome.ii == outcome.mii
                rungs.add(outcome.rung)
                record_run(outcome.work, [(outcome.ii, outcome.mii)])
                print(
                    "%-22s %4d %4d %4d %-6s"
                    % (
                        graph.name,
                        graph.num_operations,
                        outcome.mii,
                        outcome.ii,
                        outcome.rung,
                    )
                )
            record_run(rung=",".join(sorted(rungs)) or "full")
        else:
            print(
                "%-22s %4s %4s %4s %8s"
                % ("loop", "ops", "MII", "II", "dec/op")
            )
            for graph in graphs:
                result = scheduler.schedule(
                    graph, budget=make_budget(args, "schedule:" + graph.name)
                )
                optimal += result.optimal
                record_run(result.work, [(result.ii, result.mii)])
                print(
                    "%-22s %4d %4d %4d %8.2f"
                    % (
                        graph.name,
                        graph.num_operations,
                        result.mii,
                        result.ii,
                        result.decisions_per_op,
                    )
                )
        print(
            "\n%d/%d loops scheduled at MII (%.1f%%)"
            % (optimal, len(graphs), 100.0 * optimal / len(graphs))
        )
        if args.explain:
            _write_explain_report(machine, graphs, args, args.explain)
    return 0


def explain_arguments(p: argparse.ArgumentParser) -> None:
    from repro.query.modulo import DISCRETE, REPRESENTATIONS
    from repro.workloads.kernels import KERNELS

    p.description = (
        "Replay the iterative modulo scheduler, fold its"
        " decision events and report why each loop scheduled"
        " at the II it did: which constraint pins MII (recurrence,"
        " saturated resource, or self-contention), which (resource,"
        " cycle) cells blocked each failed II, and what was evicted."
        " Exits 1 when any loop failed to schedule."
    )
    p.add_argument("machine")
    p.add_argument("--kernel", choices=sorted(KERNELS))
    p.add_argument("--loops", type=int, default=8)
    p.add_argument(
        "--representation", choices=REPRESENTATIONS, default=DISCRETE
    )
    p.add_argument("--word-cycles", type=int, default=1)
    p.add_argument(
        "--format",
        choices=("text", "json", "html"),
        default="text",
    )
    p.add_argument(
        "-o", "--out",
        metavar="FILE",
        help="write the report to FILE (JSON becomes a checksummed"
        " artifact; text/HTML are written verbatim)",
    )
    add_observability_flags(p)
    add_runlog_flag(p)


def explain(args: argparse.Namespace) -> int:
    from repro.analysis.explain import (
        build_explain_report,
        render_explain_html,
        render_explain_text,
    )
    from repro.workloads.translate import port_graph

    machine = load_machine(args.machine)
    # The suite speaks the Cydra vocabulary; port it onto machines with
    # a registered opcode map (playdoh, alpha, mips) so every study
    # machine can be explained.
    graphs = [port_graph(graph, machine) for graph in _graphs(args)]
    record_run(
        machine=machine.name,
        workload=args.kernel or ("suite[%d]" % args.loops),
        representation=args.representation,
    )
    with observing(args) as tracer:
        if tracer is not None:
            tracer.meta.update(
                command="explain", machine=machine.name,
                representation=args.representation,
                kernel=args.kernel or ("suite[%d]" % args.loops),
            )
        report = build_explain_report(
            machine,
            graphs,
            representation=args.representation,
            word_cycles=args.word_cycles,
        )
        if args.format == "json":
            if args.out:
                from repro.resilience import artifacts

                artifacts.write_json(args.out, report, kind="explain")
                print("wrote explain report %s" % args.out, file=sys.stderr)
            else:
                json.dump(report, sys.stdout, indent=2, sort_keys=True)
                sys.stdout.write("\n")
        else:
            render = (
                render_explain_html if args.format == "html"
                else render_explain_text
            )
            text = render(report, machine)
            if args.out:
                from repro._atomic import atomic_write_text

                try:
                    atomic_write_text(args.out, text + "\n")
                except OSError as exc:
                    raise ReproError(
                        "cannot write explain file %r: %s" % (args.out, exc)
                    )
                print("wrote %s" % args.out, file=sys.stderr)
            else:
                print(text)
    record_run(
        loops=(
            (entry["ii"], entry["mii"]["mii"])
            for entry in report["loops"] if entry["succeeded"]
        ),
        failed=report["summary"]["failed"],
    )
    return 0 if report["summary"]["failed"] == 0 else 1


def expand_arguments(p: argparse.ArgumentParser) -> None:
    from repro.workloads.kernels import KERNELS

    p.add_argument("machine")
    p.add_argument("--kernel", choices=sorted(KERNELS), default="daxpy")
    p.add_argument("--iterations", type=int, default=4)
    p.add_argument("--limit", type=int, default=48)


def expand(args: argparse.Namespace) -> int:
    from repro.scheduler.expand import expand as expand_schedule
    from repro.scheduler.modulo import IterativeModuloScheduler
    from repro.workloads.kernels import KERNELS

    machine = load_machine(args.machine)
    scheduler = IterativeModuloScheduler(machine)
    graph = KERNELS[args.kernel]()
    result = scheduler.schedule(graph)
    expanded = expand_schedule(result, iterations=args.iterations)
    print(
        "%s on %s: II=%d (MII=%d), %d stages"
        % (graph.name, machine.name, result.ii, result.mii,
           expanded.num_stages)
    )
    print()
    print(expanded.render_kernel())
    print()
    print("timeline (%d iterations):" % args.iterations)
    print(expanded.render_timeline(limit=args.limit))
    return 0


def automata_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("machine")
    p.add_argument("--factor", choices=("unit", "resource"), default="unit")
    p.add_argument("--max-states", type=int, default=200_000)
    add_observability_flags(p)


def automata(args: argparse.Namespace) -> int:
    from repro.automata.core import AutomatonTooLarge, PipelineAutomaton
    from repro.automata.factored import FactoredAutomata
    from repro.core.reduce import reduce_machine
    from repro.obs import trace as obs_trace

    machine = load_machine(args.machine)
    with observing(args) as tracer:
        if tracer is not None:
            tracer.meta.update(
                command="automata", machine=machine.name, factor=args.factor
            )
        try:
            with obs_trace.span(
                "build_monolithic", obs_trace.CAT_AUTOMATA,
                machine=machine.name,
            ):
                monolithic = PipelineAutomaton.build(
                    machine, max_states=args.max_states
                )
            print(
                "monolithic automaton: %d states, %d transitions (~%d KiB)"
                % (
                    monolithic.num_states,
                    monolithic.num_transitions,
                    monolithic.memory_bytes() // 1024,
                )
            )
        except AutomatonTooLarge:
            print(
                "monolithic automaton: exceeds %d states" % args.max_states
            )
        try:
            with obs_trace.span(
                "build_factored", obs_trace.CAT_AUTOMATA,
                machine=machine.name, mode=args.factor,
            ):
                factored = FactoredAutomata.build(
                    machine, mode=args.factor, max_states=args.max_states
                )
            print(
                "%s-factored automata: %d factors, %d total states "
                "(largest %d, ~%d KiB)"
                % (
                    args.factor,
                    factored.num_factors,
                    factored.num_states,
                    factored.max_factor_states,
                    factored.memory_bytes() // 1024,
                )
            )
        except AutomatonTooLarge:
            print(
                "%s-factored automata: a factor exceeds %d states"
                % (args.factor, args.max_states)
            )
        print(
            "reduced bitvector alternative: %d reserved bits per cycle"
            % reduce_machine(machine).reduced.num_resources
        )
    return 0


def profile_arguments(p: argparse.ArgumentParser) -> None:
    from repro.query.modulo import DISCRETE, REPRESENTATIONS
    from repro.workloads.kernels import KERNELS

    p.description = (
        "Run the full pipeline (forbidden matrix, Algorithm 1,"
        " selection, Iterative Modulo Scheduling) with the observability"
        " layer active and print a per-phase time/work breakdown."
        " Optionally export metrics JSON and a Perfetto-loadable Chrome"
        " trace."
    )
    p.add_argument("machine", help="built-in name or MDL file")
    p.add_argument(
        "--kernel",
        choices=sorted(KERNELS),
        help="profile one named kernel instead of the loop suite",
    )
    p.add_argument(
        "--loops",
        type=int,
        default=8,
        help="loop-suite size when no kernel is given (default: 8)",
    )
    p.add_argument(
        "--representation", choices=REPRESENTATIONS, default=DISCRETE
    )
    p.add_argument("--word-cycles", type=int, default=1)
    p.add_argument(
        "--objective", choices=("res-uses", "word-uses"), default="res-uses"
    )
    p.add_argument(
        "--reduced",
        action="store_true",
        help="schedule on the reduced description (paper's configuration)",
    )
    p.add_argument(
        "--reduction-cache",
        metavar="DIR",
        help="serve the reduction from a digest-keyed cache directory"
        " (entries are verified on load; corruption falls back to a"
        " fresh reduction)",
    )
    p.add_argument(
        "--flamegraph",
        metavar="FILE",
        help="write spans as collapsed stacks ('-' for stdout) for"
        " flamegraph.pl / speedscope / inferno",
    )
    p.add_argument(
        "--sample",
        action="store_true",
        help="run the background sampling stack profiler alongside the"
        " span tracer; sampled stacks merge into --flamegraph",
    )
    p.add_argument(
        "--sample-interval",
        type=float,
        default=0.005,
        metavar="SECONDS",
        help="sampling period for --sample (default: 0.005)",
    )
    add_observability_flags(p)
    add_runlog_flag(p)


def profile(args: argparse.Namespace) -> int:
    from repro.obs.export import (
        collapsed_stack_lines,
        render_text,
        write_chrome_trace,
        write_metrics,
    )
    from repro.obs.profile import profile_machine
    from repro.obs.trace import Tracer

    machine = load_machine(args.machine)
    record_run(
        machine=machine.name,
        workload=args.kernel or ("suite[%d]" % args.loops),
        representation=args.representation,
    )
    # Per-query spans are only worth recording when a per-span export
    # (Chrome trace or flamegraph) is requested.
    tracer = Tracer(
        trace_queries=bool(args.trace or args.flamegraph)
    )
    sampler = None
    if args.sample:
        from repro.obs.sampler import StackSampler

        sampler = StackSampler(interval_s=args.sample_interval).start()
    try:
        work = profile_machine(
            machine,
            kernel=args.kernel,
            loops=args.loops,
            representation=args.representation,
            word_cycles=args.word_cycles,
            objective=args.objective,
            schedule_reduced=args.reduced,
            tracer=tracer,
            reduction_cache=args.reduction_cache,
        )
    finally:
        if sampler is not None:
            sampler.stop()
    record_run(work, quality={
        key: tracer.metrics.get_counter("profile." + key)
        for key in ("loops", "loops_at_mii", "ii_total", "mii_total")
    })
    if sampler is not None:
        print(
            "sampler: %d stacks captured at %.1fms intervals"
            % (sampler.samples, sampler.interval_s * 1e3),
            file=sys.stderr,
        )
    if args.metrics != "-" and args.flamegraph != "-":
        # With ``--metrics -``/``--flamegraph -`` stdout carries the
        # export alone.
        print(render_text(tracer))
    if args.metrics:
        write_export(write_metrics, tracer, args.metrics, "metrics")
        if args.metrics != "-":
            print("wrote metrics %s" % args.metrics, file=sys.stderr)
    if args.trace:
        write_export(write_chrome_trace, tracer, args.trace, "trace")
        print(
            "wrote trace %s (open in https://ui.perfetto.dev)" % args.trace,
            file=sys.stderr,
        )
    if args.flamegraph:
        lines = collapsed_stack_lines(tracer)
        if sampler is not None:
            # Sampled stacks (weighted in estimated microseconds, rooted
            # under "sampler") merge into the same collapsed file as the
            # instrumented spans — one flamegraph, two vantage points.
            lines.extend(sampler.collapsed_lines())
        text = "\n".join(lines) + "\n" if lines else ""
        if args.flamegraph == "-":
            sys.stdout.write(text)
        else:
            from repro._atomic import atomic_write_text

            try:
                atomic_write_text(args.flamegraph, text)
            except OSError as exc:
                raise ReproError(
                    "cannot write flamegraph file %r: %s"
                    % (args.flamegraph, exc)
                )
        if args.flamegraph != "-":
            print(
                "wrote collapsed stacks %s (flamegraph.pl / speedscope"
                " / inferno)" % args.flamegraph,
                file=sys.stderr,
            )
    return 0
