"""Command-line interface: ``repro <command>`` (or ``python -m repro``).

Commands
--------
``reduce``    reduce a machine description and optionally write it out
``verify``    check that two descriptions preserve the same constraints
``certify``   issue or independently check a preservation certificate
``stats``     print the Tables 1-4 metrics for a description
``show``      dump a (built-in) machine as MDL text
``schedule``  modulo-schedule the named kernels or a generated loop suite
``explain``   scheduling provenance: MII attribution, per-II failure
              blame, decision-ledger rollups (text/JSON/HTML)
``report``    human-readable machine / reduction report
``diff``      scheduling-constraint diff between two descriptions
``expand``    modulo-schedule a kernel and print its software pipeline
``automata``  build the contention-recognizing automata and report sizes
``lint``      static-analysis audit: machine descriptions, or with
              ``--code`` the repro sources themselves
``profile``   reduce + schedule under tracing; per-phase time/work report
``chaos``     deterministic fault injection against the resilience layer
``fuzz``      seeded fuzz campaign: generated machines through the
              differential pipeline oracle (plus composed chaos plans)
``bench``     benchmark observatory: ``run`` / ``compare`` / ``report``
``runs``      run registry: ``list`` / ``show`` / ``diff`` / ``trend`` /
              ``gc``

``certify`` validates Theorem-1 witness certificates without re-running
the reduction (``repro certify ORIG REDUCED [--cert FILE]``); ``reduce``
emits one with ``--certificate FILE``, and ``reduce --cache`` verifies
warm hits via their stored certificate unless ``--paranoid`` — see
``docs/certificates.md``.

``bench run`` records a schema-versioned, checksummed benchmark result
(deterministic work units, robust wall-time stats, per-phase spans,
schedule quality); ``bench compare`` gates a candidate run against a
baseline (work units gate hard, wall time only when bootstrap intervals
disagree) and exits 1 on regression — see ``docs/benchmarking.md``.

``reduce`` and ``schedule`` accept ``--deadline``/``--max-units`` budgets
(exceeded budgets exit 3) and ``--fallback`` to degrade down the verified
fallback ladder instead of failing — see ``docs/robustness.md``.

``reduce``, ``schedule``, ``automata``, and ``profile`` accept
``--metrics FILE`` (schema-versioned JSON metrics, ``-`` for stdout) and
``--trace FILE`` (Chrome ``trace_event`` JSON, loadable in Perfetto) —
see ``docs/observability.md``.

``explain`` replays the scheduler under a decision ledger and reports
*why* each loop scheduled at its II (``repro-explain-report`` v1);
``schedule --explain FILE`` writes the same document alongside a normal
run — see ``docs/explain.md``.

``reduce``, ``schedule``, ``bench run``, ``certify``, ``fuzz``,
``chaos``, ``profile``, and ``explain`` accept ``--runlog DIR`` (or the
``REPRO_RUNLOG`` environment variable) to append one checksummed
``repro-runlog-record`` v1 document per invocation to the persistent run
registry; ``repro runs`` queries it — see ``docs/runs.md``.

``fuzz`` generates seeded, lintable machine descriptions and pushes each
through reduce → certify → schedule, cross-checking the three query
representations and classifying every run ``ok`` / ``handled`` / ``bug``
(``repro fuzz --seed N --runs M [--shrink] [--out FILE]``) — see
``docs/fuzzing.md``.

Machines are referenced either by a built-in name (``cydra5``,
``cydra5-subset``, ``alpha21064``, ``mips-r3000``, ``playdoh``,
``example``, ``buffered-pu``, ``clustered-vliw``) or by the path of an
MDL file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import List, Optional, Tuple

from repro import mdl
from repro.core import reduce_machine
from repro.core.forbidden import ForbiddenLatencyMatrix
from repro.core.machine import MachineDescription
from repro.core.verify import differences
from repro.errors import BudgetExceeded, ReproError
from repro.machines import (
    CORPUS_MACHINES,
    STUDY_MACHINES,
    example_machine,
    playdoh,
)
from repro.query import DISCRETE, REPRESENTATIONS
from repro.query.work import FUNCTIONS
from repro.scheduler import IterativeModuloScheduler
from repro.stats import describe
from repro.workloads import KERNELS, loop_suite

_BUILTINS = dict(STUDY_MACHINES)
_BUILTINS["example"] = example_machine
_BUILTINS["playdoh"] = playdoh
_BUILTINS.update(CORPUS_MACHINES)


def _load_machine(ref: str) -> MachineDescription:
    if ref in _BUILTINS:
        return _BUILTINS[ref]()
    if os.sep in ref or ref.endswith(".mdl") or os.path.exists(ref):
        try:
            return mdl.load_file(ref)
        except (OSError, UnicodeDecodeError) as exc:
            raise ReproError(
                "cannot read machine file %r: %s" % (ref, exc)
            ) from exc
    raise ReproError(
        "unknown machine %r: not a built-in machine and not an existing"
        " MDL file (built-ins: %s)" % (ref, ", ".join(sorted(_BUILTINS)))
    )


# ----------------------------------------------------------------------
# Run registry (flight recorder) plumbing.  One recorder is active per
# recorded invocation (see main()); command bodies contribute what they
# know through these helpers, each a no-op when the runlog is off so the
# disabled path stays a single global read.
# ----------------------------------------------------------------------
_RECORDER = None
_RECORDER_BUDGETS: List[object] = []

#: Commands that append a registry record when ``--runlog`` is set.  The
#: ``runs`` query family never records itself — reading the registry
#: must not grow it.
_RECORDED_COMMANDS = frozenset(
    ("reduce", "schedule", "certify", "fuzz", "chaos", "profile", "explain")
)


def _record_command(args: argparse.Namespace) -> Optional[str]:
    """The registry command label for this invocation, or ``None``."""
    command = getattr(args, "command", None)
    if command in _RECORDED_COMMANDS:
        return command
    if command == "bench" and getattr(args, "bench_command", None) == "run":
        return "bench run"
    return None


def _runlog_note(**fields) -> None:
    if _RECORDER is not None:
        _RECORDER.note(**fields)


def _runlog_units(units) -> None:
    if _RECORDER is not None:
        _RECORDER.add_units(units)


def _runlog_work(work) -> None:
    if _RECORDER is not None:
        _RECORDER.add_work(work)


def _runlog_quality(**quality) -> None:
    if _RECORDER is not None:
        _RECORDER.merge_quality(quality)


def _runlog_harvest(tracer) -> None:
    """Copy a tracer's query work and profile quality into the recorder.

    The shared registry keys (``query.<fn>.units`` counters, per-function
    timers, ``profile.*`` quality counters) are the same ones the metrics
    JSON reads, so a runlog record and a ``--metrics`` export of the same
    run always agree.
    """
    if _RECORDER is None or tracer is None:
        return
    units = {}
    for function in FUNCTIONS:
        name = "query." + function
        value = tracer.metrics.get_counter(name + ".units")
        if value:
            units[function] = value
        timer = tracer.metrics.timers.get(name)
        if timer is not None and timer.count:
            _RECORDER.calls[function] = (
                _RECORDER.calls.get(function, 0) + timer.count
            )
    _RECORDER.add_units(units)
    quality = {}
    for key in ("loops", "loops_at_mii", "ii_total", "mii_total"):
        value = tracer.metrics.get_counter("profile." + key)
        if value:
            quality[key] = value
    if quality:
        _RECORDER.merge_quality(quality)


@contextlib.contextmanager
def _observing(args: argparse.Namespace):
    """Activate tracing for a command when ``--trace``/``--metrics`` ask.

    Yields the tracer (or ``None`` when observability is off) and writes
    the requested export files after the command body finishes.  An
    active run recorder also forces tracing on — the registry record
    needs the work-counter snapshot — but with the runlog off the
    untraced zero-overhead path is untouched.
    """
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)
    if not trace_path and not metrics_path and _RECORDER is None:
        yield None
        return
    from repro.obs.export import write_chrome_trace, write_metrics
    from repro.obs.trace import Tracer, tracing

    tracer = Tracer(trace_queries=bool(trace_path))
    with tracing(tracer):
        if metrics_path == "-":
            # Stdout must carry the JSON document alone; the command's
            # human-readable report moves to stderr.
            with contextlib.redirect_stdout(sys.stderr):
                yield tracer
        else:
            yield tracer
    _runlog_harvest(tracer)
    if metrics_path:
        _write_export(write_metrics, tracer, metrics_path, "metrics")
        if metrics_path != "-":
            print("wrote metrics %s" % metrics_path, file=sys.stderr)
    if trace_path:
        _write_export(write_chrome_trace, tracer, trace_path, "trace")
        print(
            "wrote trace %s (open in https://ui.perfetto.dev)" % trace_path,
            file=sys.stderr,
        )


def _write_export(writer, tracer, path: str, what: str) -> None:
    try:
        writer(tracer, path)
    except OSError as exc:
        raise ReproError("cannot write %s file %r: %s" % (what, path, exc))


def _add_observability_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        help="write metrics JSON to FILE ('-' for stdout)",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="write a Chrome trace_event JSON to FILE (Perfetto-loadable)",
    )


def _make_budget(args: argparse.Namespace, label: str):
    """A :class:`~repro.resilience.budget.Budget` from ``--deadline`` /
    ``--max-units`` (``None`` when neither flag is given)."""
    deadline = getattr(args, "deadline", None)
    max_units = getattr(args, "max_units", None)
    if deadline is None and max_units is None:
        return None
    from repro.resilience.budget import Budget

    budget = Budget(deadline_s=deadline, max_units=max_units, label=label)
    if _RECORDER is not None:
        # Remember the object so the registry record can report the
        # units actually consumed, not just the configured caps.
        _RECORDER_BUDGETS.append(budget)
    return budget


def _add_runlog_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--runlog",
        metavar="DIR",
        help="append a checksummed run record to this registry directory"
        " (default: $REPRO_RUNLOG when set; see 'repro runs')",
    )


def _add_resilience_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--deadline",
        type=float,
        metavar="SECONDS",
        help="wall-clock budget; exceeded budgets exit 3 (or degrade"
        " with --fallback)",
    )
    parser.add_argument(
        "--max-units",
        type=int,
        metavar="N",
        help="work-unit budget (same currency as the query metrics)",
    )
    parser.add_argument(
        "--fallback",
        action="store_true",
        help="degrade down the verified fallback ladder instead of failing",
    )


def _cmd_reduce(args: argparse.Namespace) -> int:
    machine = _load_machine(args.machine)
    _runlog_note(machine=machine.name, rung="full")
    with _observing(args) as tracer:
        if tracer is not None:
            tracer.meta.update(
                command="reduce", machine=machine.name,
                objective=args.objective, word_cycles=args.word_cycles,
            )
        certificate = None
        if args.fallback:
            from repro.resilience.fallback import reduce_with_fallback
            from repro.scheduler.ladder import FallbackPolicy

            policy = FallbackPolicy(
                deadline_s=args.deadline, max_units=args.max_units
            )
            outcome = reduce_with_fallback(machine, policy)
            _runlog_note(rung=outcome.rung)
            print(
                "fallback ladder served rung %r (%s) after %d attempt(s)"
                % (outcome.rung, outcome.marker, len(outcome.attempts))
            )
            for attempt in outcome.attempts:
                if attempt.failed:
                    print(
                        "  %s: %s failed (%s)"
                        % (attempt.rung, attempt.detail, attempt.error_type)
                    )
            if outcome.reduction is not None:
                print(outcome.reduction.summary())
            served = outcome.machine
            certificate = outcome.certificate
        elif args.cache:
            from repro.resilience.reduction_cache import cached_reduce

            cached = cached_reduce(
                machine,
                objective=args.objective,
                word_cycles=args.word_cycles,
                cache_dir=args.cache,
                paranoid=args.paranoid,
            )
            _runlog_note(rung="cache:%s" % cached.source)
            if cached.reduction is not None:
                print(cached.reduction.summary())
            detail = "verified via %s" % cached.verification
            if cached.verify_units:
                detail += ", %d work units" % cached.verify_units
            print(
                "reduction cache: %s (digest %s, %s)"
                % (cached.source, cached.digest[:16], detail)
            )
            served = cached.reduced
            certificate = cached.certificate
        else:
            reduction = reduce_machine(
                machine,
                objective=args.objective,
                word_cycles=args.word_cycles,
                budget=_make_budget(args, "reduce"),
            )
            print(reduction.summary())
            served = reduction.reduced
            if args.certificate:
                from repro.core.certificate import issue_certificate

                certificate = issue_certificate(reduction)
        if args.output:
            from repro.resilience import artifacts

            artifacts.write_machine(args.output, served)
            print(
                "wrote %s (+ checksum sidecar %s)"
                % (args.output, artifacts.sidecar_path(args.output))
            )
        if args.certificate:
            from repro.resilience import artifacts

            if certificate is None:
                raise ReproError(
                    "no certificate available to write (the served"
                    " description was not verified)"
                )
            artifacts.write_certificate(args.certificate, certificate)
            print(
                "wrote certificate %s (%d instances, %d classes)"
                % (
                    args.certificate,
                    len(certificate.witnesses),
                    len(certificate.classes),
                )
            )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    first = _load_machine(args.first)
    second = _load_machine(args.second)
    mismatches = differences(first, second)
    if not mismatches:
        print(
            "EQUIVALENT: %r and %r preserve the same scheduling constraints"
            % (first.name, second.name)
        )
        return 0
    print("NOT EQUIVALENT: %d differing operation pairs" % len(mismatches))
    for op_x, op_y, only_first, only_second in mismatches[: args.limit]:
        print(
            "  %s / %s: only-first=%s only-second=%s"
            % (op_x, op_y, sorted(only_first), sorted(only_second))
        )
    return 1


def _cmd_certify(args: argparse.Namespace) -> int:
    from repro.core.certificate import (
        certificate_from_machines,
        check_certificate,
        equivalence_work_units,
    )
    from repro.core.verify import assert_equivalent
    from repro.errors import (
        CertificateError,
        EquivalenceError,
        render_mismatches,
    )
    from repro.resilience import artifacts

    original = _load_machine(args.original)
    reduced = _load_machine(args.reduced)
    _runlog_note(
        machine=original.name, workload="certify:%s" % reduced.name
    )
    document = {
        "schema": "repro-certify-report",
        "version": 1,
        "original": original.name,
        "reduced": reduced.name,
        "ok": False,
    }

    def emit(error=None):
        if error is not None:
            document["error"] = error
        if args.format == "json":
            print(json.dumps(document, indent=2, sort_keys=True))

    try:
        if args.cert:
            certificate = artifacts.load_certificate(args.cert)
            source = args.cert
        else:
            certificate = certificate_from_machines(original, reduced)
            source = "issued"
        check = check_certificate(
            certificate, original, reduced,
            recompute_matrix=not args.structural,
        )
        if args.paranoid:
            assert_equivalent(original, reduced)
    except EquivalenceError as exc:
        emit({"kind": "equivalence", "message": str(exc)})
        if args.format != "json":
            print("NOT CERTIFIED: %s" % exc, file=sys.stderr)
            if exc.mismatches:
                print(
                    "  witness pairs: %s"
                    % render_mismatches(exc.mismatches),
                    file=sys.stderr,
                )
        return 1
    except CertificateError as exc:
        error = {"kind": exc.kind or "certificate", "message": str(exc)}
        if exc.instance is not None:
            error["instance"] = list(exc.instance)
        emit(error)
        if args.format != "json":
            print("CERTIFICATE REJECTED: %s" % exc, file=sys.stderr)
        return 1

    # Certificate-check work is denominated in the ``check`` currency
    # (usage-touch units, same as the paper's Table 6 rows).
    _runlog_units({"check": check.units})
    document.update(
        ok=True,
        mode="paranoid" if args.paranoid else check.mode,
        instances=check.instances,
        classes=check.classes,
        units=check.units,
        equivalence_units=equivalence_work_units(original, reduced),
        matrix_digest=certificate.matrix_digest,
        certificate=source,
    )
    if args.emit:
        artifacts.write_certificate(args.emit, certificate)
        document["emitted"] = args.emit
    emit()
    if args.format != "json":
        print(
            "CERTIFIED (%s): %r preserves the scheduling constraints of"
            " %r" % (document["mode"], reduced.name, original.name)
        )
        print(
            "  %d instances in %d classes; check spent %d work units"
            " (full equivalence re-check costs %d)"
            % (
                check.instances, check.classes, check.units,
                document["equivalence_units"],
            )
        )
        if args.emit:
            print(
                "  wrote certificate %s (+ checksum sidecar %s)"
                % (args.emit, artifacts.sidecar_path(args.emit))
            )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    machine = _load_machine(args.machine)
    matrix = ForbiddenLatencyMatrix.from_machine(machine)
    stats = describe(machine, word_cycles=tuple(args.word_cycles))
    print("machine:                %s" % machine.name)
    print("operations:             %d" % machine.num_operations)
    print("operation classes:      %d" % len(matrix.operation_classes()))
    print("resources:              %d" % stats.num_resources)
    print("total usages:           %d" % machine.total_usages)
    print("avg usages/op:          %.1f" % stats.avg_usages_per_op)
    print("forbidden latencies:    %d (max %d)" % (
        matrix.instance_count, matrix.max_latency))
    for k in args.word_cycles:
        print(
            "avg %d-cycle-word uses:  %.1f" % (k, stats.avg_word_usages[k])
        )
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    machine = _load_machine(args.machine)
    sys.stdout.write(mdl.dumps(machine))
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    machine = _load_machine(args.machine)
    if args.corpus:
        return _cmd_schedule_corpus(args, machine)
    scheduler = IterativeModuloScheduler(
        machine,
        representation=args.representation,
        word_cycles=args.word_cycles,
    )
    if args.kernel:
        graphs = [KERNELS[args.kernel]()]
    else:
        graphs = loop_suite(args.loops)
    optimal = 0
    _runlog_note(
        machine=machine.name,
        workload=args.kernel or ("suite[%d]" % args.loops),
        representation=args.representation,
        rung="full",
    )
    with _observing(args) as tracer:
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
                _runlog_quality(
                    loops=1,
                    loops_at_mii=int(outcome.ii == outcome.mii),
                    ii_total=outcome.ii,
                    mii_total=outcome.mii,
                )
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
            _runlog_note(rung=",".join(sorted(rungs)) or "full")
        else:
            print(
                "%-22s %4s %4s %4s %8s"
                % ("loop", "ops", "MII", "II", "dec/op")
            )
            for graph in graphs:
                result = scheduler.schedule(
                    graph, budget=_make_budget(args, "schedule:" + graph.name)
                )
                optimal += result.optimal
                _runlog_quality(
                    loops=1,
                    loops_at_mii=int(result.optimal),
                    ii_total=result.ii,
                    mii_total=result.mii,
                )
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


def _cmd_schedule_corpus(args: argparse.Namespace, machine) -> int:
    """``repro schedule --corpus``: the whole suite in one pass."""
    from repro.scheduler.corpus import CorpusScheduler

    if args.kernel:
        graphs = [KERNELS[args.kernel]()]
    else:
        graphs = loop_suite(args.loops)
    policy = None
    budget = None
    if args.fallback:
        from repro.scheduler.ladder import FallbackPolicy

        policy = FallbackPolicy(
            deadline_s=args.deadline, max_units=args.max_units
        )
    else:
        budget = _make_budget(args, "schedule:corpus")
    scheduler = CorpusScheduler(
        machine,
        representation=args.representation,
        word_cycles=args.word_cycles,
        policy=policy,
        processes=args.processes,
    )
    _runlog_note(
        machine=machine.name,
        workload=args.kernel or ("suite[%d]" % args.loops),
        representation=scheduler.representation,
        rung="corpus",
    )
    with _observing(args) as tracer:
        if tracer is not None:
            tracer.meta.update(
                command="schedule", machine=machine.name,
                representation=scheduler.representation,
                kernel=args.kernel or ("suite[%d]" % args.loops),
            )
        result = scheduler.schedule_suite(graphs, budget=budget)
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
            _runlog_quality(
                loops=1,
                loops_at_mii=int(outcome.ii == outcome.mii),
                ii_total=outcome.ii,
                mii_total=outcome.mii,
            )
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
    _runlog_work(result.work)
    return 1 if result.failed else 0


def _write_explain_report(machine, graphs, args, path: str) -> None:
    """Build and write a ``repro-explain-report`` v1 JSON artifact."""
    from repro.analysis import build_explain_report
    from repro.resilience import artifacts

    report = build_explain_report(
        machine,
        graphs,
        representation=args.representation,
        word_cycles=args.word_cycles,
    )
    artifacts.write_json(path, report, kind="explain")
    print("wrote explain report %s" % path, file=sys.stderr)


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.analysis import (
        build_explain_report,
        render_explain_html,
        render_explain_text,
    )

    from repro.workloads import port_graph

    machine = _load_machine(args.machine)
    if args.kernel:
        graphs = [KERNELS[args.kernel]()]
    else:
        graphs = loop_suite(args.loops)
    # The suite speaks the Cydra vocabulary; port it onto machines with
    # a registered opcode map (playdoh, alpha, mips) so every study
    # machine can be explained.
    graphs = [port_graph(graph, machine) for graph in graphs]
    _runlog_note(
        machine=machine.name,
        workload=args.kernel or ("suite[%d]" % args.loops),
        representation=args.representation,
    )
    with _observing(args) as tracer:
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
    _runlog_note(failed=report["summary"]["failed"])
    return 0 if report["summary"]["failed"] == 0 else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.resilience import artifacts
    from repro.resilience.chaos import run_chaos

    machine = _load_machine(args.machine)
    _runlog_note(machine=machine.name, seed=args.seed)
    with _observing(args) as tracer:
        if tracer is not None:
            tracer.meta.update(
                command="chaos", machine=machine.name, seed=args.seed
            )
        report = run_chaos(
            machine,
            seed=args.seed,
            faults=args.faults,
            workdir=args.workdir,
            budget=_make_budget(args, "chaos"),
        )
        print(report.render_text())
        if args.out:
            header = artifacts.write_json(
                args.out, report.to_dict(), kind="chaos"
            )
            # Read the artifact straight back: a chaos run that cannot
            # round-trip its own report through the checksummed store is
            # itself a resilience failure.
            artifacts.verify_artifact(args.out)
            print(
                "wrote %s (sha256 %s)" % (args.out, header["sha256"]),
                file=sys.stderr,
            )
    _runlog_note(
        faults=len(report.outcomes),
        unhandled=sum(1 for r in report.outcomes if not r.handled),
    )
    # Exit-code contract: 0 = every fault handled, 1 = any unhandled
    # fault, 3 = budget exceeded (raised through main()'s handler).
    return 0 if report.ok else 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz import run_campaign
    from repro.resilience import artifacts

    with _observing(args) as tracer:
        if tracer is not None:
            tracer.meta.update(
                command="fuzz", seed=args.seed, profile=args.profile
            )
        report = run_campaign(
            seed=args.seed,
            runs=args.runs,
            profile=args.profile,
            max_units=args.budget,
            do_shrink=args.shrink,
            bundle_dir=args.bundles,
            plans_every=args.plans_every,
        )
        counts = report["counts"]
        _runlog_note(
            workload="fuzz[%d]" % args.runs,
            seed=args.seed,
            fuzz_profile=args.profile,
            ok_runs=counts["ok"],
            handled_runs=counts["handled"],
            bug_runs=counts["bug"],
        )
        print(
            "fuzz campaign seed=%d profile=%s: %d runs"
            % (args.seed, args.profile, args.runs)
        )
        print(
            "  ok=%d handled=%d bug=%d plans=%d"
            % (
                counts["ok"], counts["handled"], counts["bug"],
                len(report["plans"]),
            )
        )
        for bug in report["bugs"]:
            print(
                "  BUG run=%d seed=%d %s (%s)"
                % (
                    bug["run"], bug["seed"], bug["fingerprint"],
                    bug["stage"],
                )
            )
        for manifest in report["bundles"]:
            print("  repro bundle: %s" % manifest["directory"])
        if args.out:
            artifacts.write_json(args.out, report, kind="fuzz")
            artifacts.verify_artifact(args.out)
            print("wrote %s" % args.out, file=sys.stderr)
    return 0 if report["ok"] else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis import describe_machine, describe_reduction

    machine = _load_machine(args.machine)
    print(describe_machine(machine))
    if args.reduce:
        print()
        print(
            describe_reduction(
                reduce_machine(
                    machine,
                    objective=args.objective,
                    word_cycles=args.word_cycles,
                )
            )
        )
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.analysis import diff_constraints
    from repro.core import find_witness

    first = _load_machine(args.first)
    second = _load_machine(args.second)
    text = diff_constraints(first, second, limit=args.limit)
    print(text)
    if text.startswith("EQUIVALENT"):
        return 0
    witness = find_witness(first, second)
    if witness is not None:
        print("witness: " + witness.describe())
    return 1


def _cmd_expand(args: argparse.Namespace) -> int:
    from repro.scheduler import expand

    machine = _load_machine(args.machine)
    scheduler = IterativeModuloScheduler(machine)
    graph = KERNELS[args.kernel]()
    result = scheduler.schedule(graph)
    expanded = expand(result, iterations=args.iterations)
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


def _cmd_automata(args: argparse.Namespace) -> int:
    from repro.automata import (
        AutomatonTooLarge,
        FactoredAutomata,
        PipelineAutomaton,
    )

    from repro.obs import trace as obs_trace

    machine = _load_machine(args.machine)
    with _observing(args) as tracer:
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


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs.export import (
        collapsed_stack_lines,
        render_text,
        write_chrome_trace,
        write_metrics,
    )
    from repro.obs.profile import profile_machine
    from repro.obs.trace import Tracer

    machine = _load_machine(args.machine)
    _runlog_note(
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
        profile_machine(
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
    _runlog_harvest(tracer)
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
        _write_export(write_metrics, tracer, args.metrics, "metrics")
        if args.metrics != "-":
            print("wrote metrics %s" % args.metrics, file=sys.stderr)
    if args.trace:
        _write_export(write_chrome_trace, tracer, args.trace, "trace")
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


def _bench_machines(args: argparse.Namespace):
    """Resolve the ``bench run`` machine list to (name, machine) pairs."""
    from repro.bench import runner

    if args.machines:
        names = list(args.machines)
    elif args.quick:
        names = list(runner.QUICK_MACHINES)
    else:
        names = list(runner.DEFAULT_MACHINES)
    return [(name, _load_machine(name)) for name in names]


def _cmd_bench_run(args: argparse.Namespace) -> int:
    from repro.bench import render_result_text, save_result
    from repro.bench import runner

    machines = _bench_machines(args)
    representations = [
        r.strip() for r in args.representations.split(",") if r.strip()
    ]
    for representation in representations:
        if representation not in REPRESENTATIONS:
            raise ReproError(
                "unknown representation %r (choose from %s)"
                % (representation, ", ".join(REPRESENTATIONS))
            )
    loops = args.loops or (
        runner.QUICK_LOOPS if args.quick else runner.DEFAULT_LOOPS
    )
    repetitions = args.repetitions or (
        runner.QUICK_REPETITIONS if args.quick else runner.DEFAULT_REPETITIONS
    )
    result = runner.run_benchmark(
        machines,
        representations=representations,
        loops=loops,
        repetitions=repetitions,
        schedule_reduced=args.reduced,
        budget=_make_budget(args, "bench"),
        label=args.label,
        quick=args.quick,
        case_filter=args.filter,
    )
    _runlog_note(
        machine=",".join(name for name, _ in machines),
        workload="bench[%d cases]" % len(result.cases),
        representation=args.representations,
    )
    for case in result.cases.values():
        units = {}
        for key, value in case.work.items():
            # Case work keys are "query.<currency>.units"; the registry
            # stores bare currency names.
            if key.startswith("query.") and key.endswith(".units"):
                units[key[len("query."):-len(".units")]] = value
        _runlog_units(units)
        _runlog_quality(**{
            key: case.quality[key]
            for key in ("loops", "loops_at_mii", "ii_total", "mii_total")
            if key in case.quality
        })
    if args.format == "json":
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_result_text(result))
    if args.output:
        save_result(args.output, result)
        print("wrote %s (+ checksum sidecar)" % args.output,
              file=sys.stderr)
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    from repro.bench import (
        CompareConfig,
        compare_results,
        load_result,
        render_comparison_text,
    )
    from repro.resilience import artifacts

    base = load_result(args.base)
    new = load_result(args.new)
    config = CompareConfig(
        work_ratio=args.work_ratio,
        quality_ratio=args.quality_ratio,
        gate_wall=args.gate_wall,
        min_units=args.min_units,
    )
    comparison = compare_results(base, new, config)
    if args.format == "json":
        print(json.dumps(comparison.to_dict(), indent=2, sort_keys=True))
    else:
        print(
            render_comparison_text(
                comparison, base, new, top=args.top, verbose=args.verbose
            )
        )
    if args.output:
        artifacts.write_json(
            args.output, comparison.to_dict(), kind="bench-compare"
        )
        print("wrote %s (+ checksum sidecar)" % args.output,
              file=sys.stderr)
    return 0 if comparison.ok else 1


def _cmd_bench_report(args: argparse.Namespace) -> int:
    from repro.bench import load_result, render_result_text

    result = load_result(args.result)
    if args.format == "json":
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_result_text(result))
    return 0


def _runs_log(args: argparse.Namespace):
    """Open the registry named by ``--runlog`` / ``REPRO_RUNLOG``."""
    from repro.obs.runlog import ENV_RUNLOG, RunLog

    directory = args.runlog or os.environ.get(ENV_RUNLOG)
    if not directory:
        raise ReproError(
            "no run registry: pass --runlog DIR or set REPRO_RUNLOG"
        )
    if not os.path.isdir(directory):
        raise ReproError("run registry %r does not exist" % directory)
    return RunLog(directory)


def _cmd_runs_list(args: argparse.Namespace) -> int:
    log = _runs_log(args)
    records = log.records()
    if args.tail:
        records = records[-args.tail:]
    if args.format == "json":
        print(json.dumps(
            [
                record.data if not record.corrupt
                else {"seq": record.seq, "corrupt": True,
                      "error": record.error}
                for record in records
            ],
            indent=2, sort_keys=True,
        ))
        return 0
    print(
        "%6s  %-10s %-8s %4s %9s %12s  %s"
        % ("seq", "command", "outcome", "exit", "dur s", "units", "what")
    )
    for record in records:
        if record.corrupt:
            print(
                "%6d  CORRUPT: %s" % (record.seq, record.error)
            )
            continue
        what = str(
            record.data.get("machine", record.data.get("workload", ""))
        )
        workload = record.data.get("workload")
        if workload and workload != what:
            what = "%s %s" % (what, workload)
        print(
            "%6d  %-10s %-8s %4s %9.3f %12d  %s"
            % (
                record.seq,
                record.command,
                record.outcome,
                record.data.get("exit_code", "?"),
                float(record.data.get("duration_s", 0.0)),
                int(sum(record.units().values())),
                what,
            )
        )
    corrupt = sum(1 for record in records if record.corrupt)
    print(
        "\n%d record(s)%s in %s"
        % (
            len(records),
            " (%d corrupt)" % corrupt if corrupt else "",
            log.directory,
        )
    )
    return 1 if corrupt else 0


def _cmd_runs_show(args: argparse.Namespace) -> int:
    record = _runs_log(args).get(args.seq)
    if record.corrupt:
        print(
            "record %d is corrupt: %s" % (record.seq, record.error),
            file=sys.stderr,
        )
        if record.data:
            print(json.dumps(record.data, indent=2, sort_keys=True))
        return 1
    print(json.dumps(record.data, indent=2, sort_keys=True))
    return 0


def _cmd_runs_diff(args: argparse.Namespace) -> int:
    from repro.bench import CompareConfig, compare_metric_maps
    from repro.errors import RunlogError

    log = _runs_log(args)
    base = log.get(args.base)
    new = log.get(args.new)
    for which, record in (("base", base), ("candidate", new)):
        if record.corrupt:
            raise RunlogError(
                "%s record %d is corrupt: %s"
                % (which, record.seq, record.error),
                path=record.path,
            )
    config = CompareConfig(
        work_ratio=args.work_ratio,
        quality_ratio=args.quality_ratio,
        min_units=args.min_units,
    )
    case_key = "runs %d..%d" % (base.seq, new.seq)
    comparison = compare_metric_maps(
        case_key,
        {"units." + k: v for k, v in base.units().items()},
        {"units." + k: v for k, v in new.units().items()},
        base_quality=base.quality(),
        new_quality=new.quality(),
        config=config,
    )
    if args.format == "json":
        print(json.dumps(comparison.to_dict(), indent=2, sort_keys=True))
        return 0 if comparison.ok else 1
    print(
        "diff %s: base seq %d (%s) vs candidate seq %d (%s)"
        % (case_key, base.seq, base.command, new.seq, new.command)
    )
    for note in comparison.notes:
        print("  note: %s" % note)
    for delta in comparison.deltas:
        ratio = delta.ratio
        print(
            "  %-28s %12s -> %-12s %-8s %-12s%s"
            % (
                delta.metric,
                "-" if delta.base is None else "%g" % delta.base,
                "-" if delta.new is None else "%g" % delta.new,
                "x%.4f" % ratio if ratio is not None else "",
                delta.classification,
                " [gated]" if delta.gated else "",
            )
        )
    print("verdict: %s" % ("ok" if comparison.ok else "REGRESSION"))
    return 0 if comparison.ok else 1


def _cmd_runs_trend(args: argparse.Namespace) -> int:
    from repro.obs.runlog import detect_changepoint

    log = _runs_log(args)
    points = log.series(args.metric, window=args.window)
    if len(points) < 4:
        print(
            "trend %s: %d point(s) — need at least 4 to test for a"
            " changepoint" % (args.metric, len(points))
        )
        return 0
    changepoint = detect_changepoint(
        points,
        args.metric,
        seed=args.seed,
        permutations=args.permutations,
        alpha=args.alpha,
        min_ratio=args.min_ratio,
        bigger_is_better=args.metric.endswith("loops_at_mii"),
    )
    values = [value for _seq, value in points]
    print(
        "trend %s: %d points (seq %d..%d), mean %.3f"
        % (
            args.metric, len(points), points[0][0], points[-1][0],
            sum(values) / len(values),
        )
    )
    if changepoint is None:
        print("no significant changepoint")
        return 0
    print(
        "%s at seq %d: mean %.3f -> %.3f (x%.4f), score %.3f,"
        " p=%.4f (seeded permutation test, seed=%d)"
        % (
            changepoint.direction.upper(),
            changepoint.seq,
            changepoint.before,
            changepoint.after,
            changepoint.ratio if changepoint.ratio is not None else 0.0,
            changepoint.score,
            changepoint.p_value,
            args.seed,
        )
    )
    if args.format == "json":
        print(json.dumps(changepoint.to_dict(), indent=2, sort_keys=True))
    return 1 if changepoint.direction == "regression" else 0


def _cmd_runs_gc(args: argparse.Namespace) -> int:
    log = _runs_log(args)
    removed = log.gc(keep=args.keep, prune_corrupt=args.prune_corrupt)
    remaining = len(log.records())
    print(
        "removed %d record(s), %d remaining in %s"
        % (len(removed), remaining, log.directory)
    )
    return 0


def _load_machine_with_raw(
    ref: str,
) -> Tuple[Optional[MachineDescription], Optional["mdl.RawMachine"]]:
    """Load ``ref`` keeping the raw parse when it names an MDL file.

    Built-ins return ``(machine, None)``.  Files return ``(None, raw)``
    so the linter can attach real source lines and can still audit files
    that fail semantic validation.
    """
    if ref in _BUILTINS:
        return _BUILTINS[ref](), None
    if os.sep in ref or ref.endswith(".mdl") or os.path.exists(ref):
        try:
            return None, mdl.parse_file(ref)
        except (OSError, UnicodeDecodeError) as exc:
            raise ReproError(
                "cannot read machine file %r: %s" % (ref, exc)
            ) from exc
    raise ReproError(
        "unknown machine %r: not a built-in machine and not an existing"
        " MDL file (built-ins: %s)" % (ref, ", ".join(sorted(_BUILTINS)))
    )


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import (
        Baseline,
        lint_machine,
        lint_source,
        registered_rules,
        write_baseline,
    )

    if args.list_rules:
        if args.format == "json":
            print(
                json.dumps(
                    [
                        {
                            "id": lint_rule.id,
                            "severity": lint_rule.severity,
                            "summary": lint_rule.summary,
                        }
                        for lint_rule in registered_rules()
                    ],
                    indent=2,
                )
            )
        else:
            for lint_rule in registered_rules():
                print(
                    "%-24s %-8s %s"
                    % (lint_rule.id, lint_rule.severity, lint_rule.summary)
                )
        return 0
    if not args.machine and not args.code:
        raise ReproError("lint needs a machine (or --code / --list-rules)")

    baseline = Baseline.load(args.baseline) if args.baseline else None
    severity_overrides = {}
    for override in args.severity or []:
        rule_id, eq, severity = override.partition("=")
        if not eq:
            raise ReproError(
                "--severity takes RULE=LEVEL, got %r" % override
            )
        severity_overrides[rule_id] = severity
    rules = None
    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
    options = {
        "max_cycle": args.max_cycle,
        "mismatch_limit": args.mismatch_limit,
    }

    if args.code:
        from repro.lint.code import lint_code_paths

        if args.against:
            raise ReproError("--against does not apply to lint --code")
        report = lint_code_paths(
            paths=args.machine or None,
            rules=rules,
            severity_overrides=severity_overrides,
            baseline=baseline,
            options=options,
        )
    else:
        if len(args.machine) > 1:
            raise ReproError(
                "lint audits one machine at a time"
                " (multiple paths are a --code feature)"
            )
        reference = (
            _load_machine(args.against) if args.against else None
        )
        machine, raw = _load_machine_with_raw(args.machine[0])
        kwargs = dict(
            against=reference,
            rules=rules,
            severity_overrides=severity_overrides,
            baseline=baseline,
            options=options,
        )
        if raw is not None:
            report = lint_source(raw, **kwargs)
        else:
            report = lint_machine(machine, **kwargs)

    if args.write_baseline:
        write_baseline(args.write_baseline, [report])
        print(
            "wrote %d suppression(s) to %s"
            % (len(report.diagnostics), args.write_baseline),
            file=sys.stderr,
        )

    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render_text(show_info=args.show_info))
    return 1 if report.exceeds(args.fail_on) else 0


def _cmd_table(args: argparse.Namespace) -> int:
    from repro.stats import render_reduction_table

    machine = _load_machine(args.machine)
    reductions = {"res-uses": reduce_machine(machine)}
    for k in args.word_cycles:
        reductions["%d-cycle-word" % k] = reduce_machine(
            machine, objective="word-uses", word_cycles=k
        )
    print(
        render_reduction_table(
            "Machine description metrics: %s" % machine.name,
            machine,
            reductions,
            word_cycles=tuple(args.word_cycles),
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reduced multipipeline machine descriptions "
        "(Eichenberger & Davidson, PLDI 1996)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="reduce a machine description")
    p.add_argument("machine", help="built-in name or MDL file")
    p.add_argument(
        "--objective",
        choices=("res-uses", "word-uses"),
        default="res-uses",
    )
    p.add_argument("--word-cycles", type=int, default=1)
    p.add_argument(
        "-o",
        "--output",
        help="write reduced machine as a checksummed MDL artifact",
    )
    p.add_argument(
        "--cache",
        metavar="DIR",
        help="digest-keyed reduction cache directory: repeats are served"
        " from verified checksummed artifacts (corrupt entries fall back"
        " to a fresh reduction and are rewritten)",
    )
    p.add_argument(
        "--certificate",
        metavar="FILE",
        help="write the reduction's preservation certificate as a"
        " checksummed artifact",
    )
    p.add_argument(
        "--paranoid",
        action="store_true",
        help="with --cache: re-prove disk hits with the full"
        " forbidden-matrix equivalence check instead of the certificate",
    )
    _add_observability_flags(p)
    _add_resilience_flags(p)
    _add_runlog_flag(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("verify", help="compare two descriptions")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--limit", type=int, default=8)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "certify",
        help="issue or check a preservation certificate",
        description="Prove that REDUCED preserves the scheduling"
        " constraints of ORIGINAL.  Without --cert, a certificate is"
        " issued (and optionally written with --emit); with --cert, the"
        " stored certificate artifact is validated independently —"
        " soundness and coverage of its Theorem-1 witness pairs plus a"
        " recomputation of the original's forbidden matrix.  Exits 1"
        " when certification fails.",
    )
    p.add_argument("original", help="built-in name or MDL file")
    p.add_argument("reduced", help="built-in name or MDL file")
    p.add_argument(
        "--cert",
        metavar="FILE",
        help="validate this certificate artifact instead of issuing",
    )
    p.add_argument(
        "--emit",
        metavar="FILE",
        help="write the certificate as a checksummed artifact",
    )
    p.add_argument(
        "--structural",
        action="store_true",
        help="skip recomputing the original's matrix (binding by"
        " canonical-MDL digest only — the warm-cache trust model)",
    )
    p.add_argument(
        "--paranoid",
        action="store_true",
        help="additionally run the full forbidden-matrix equivalence"
        " check",
    )
    p.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    _add_runlog_flag(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("stats", help="print description metrics")
    p.add_argument("machine")
    p.add_argument(
        "--word-cycles", type=int, nargs="+", default=[1, 2, 4]
    )
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("show", help="dump a machine as MDL")
    p.add_argument("machine")
    p.set_defaults(func=_cmd_show)

    p = sub.add_parser(
        "table", help="render the Tables 1-4 metrics for a machine"
    )
    p.add_argument("machine")
    p.add_argument("--word-cycles", type=int, nargs="+", default=[1, 2, 4])
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("report", help="machine / reduction report")
    p.add_argument("machine")
    p.add_argument("--reduce", action="store_true")
    p.add_argument(
        "--objective", choices=("res-uses", "word-uses"), default="res-uses"
    )
    p.add_argument("--word-cycles", type=int, default=1)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("diff", help="scheduling-constraint diff")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--limit", type=int, default=20)
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser("expand", help="print a software pipeline")
    p.add_argument("machine")
    p.add_argument("--kernel", choices=sorted(KERNELS), default="daxpy")
    p.add_argument("--iterations", type=int, default=4)
    p.add_argument("--limit", type=int, default=48)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("automata", help="automata size report")
    p.add_argument("machine")
    p.add_argument("--factor", choices=("unit", "resource"), default="unit")
    p.add_argument("--max-states", type=int, default=200_000)
    _add_observability_flags(p)
    p.set_defaults(func=_cmd_automata)

    p = sub.add_parser(
        "profile",
        help="reduce + schedule under tracing; time/work breakdown",
        description="Run the full pipeline (forbidden matrix, Algorithm 1,"
        " selection, Iterative Modulo Scheduling) with the observability"
        " layer active and print a per-phase time/work breakdown."
        " Optionally export metrics JSON and a Perfetto-loadable Chrome"
        " trace.",
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
    _add_observability_flags(p)
    _add_runlog_flag(p)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser(
        "bench",
        help="benchmark observatory: run / compare / report",
        description="Record schema-versioned benchmark results"
        " (deterministic work units, robust wall-time statistics,"
        " per-phase spans, schedule quality), compare a candidate run"
        " against a baseline with a noise-immune gate, and render stored"
        " results.  See docs/benchmarking.md.",
    )
    bench_sub = p.add_subparsers(dest="bench_command", required=True)

    b = bench_sub.add_parser(
        "run", help="run the benchmark matrix and record a result"
    )
    b.add_argument(
        "machines",
        nargs="*",
        help="machines to benchmark (default: example + cydra5-subset;"
        " --quick: example only)",
    )
    b.add_argument(
        "--quick",
        action="store_true",
        help="the CI configuration: small loop count, 3 repetitions",
    )
    b.add_argument(
        "--representations",
        default=",".join(REPRESENTATIONS),
        metavar="R[,R]",
        help="query representations to matrix over"
        " (default: %(default)s)",
    )
    b.add_argument(
        "--filter",
        metavar="SUBSTRING",
        help="run only cases whose 'machine/representation' key contains"
        " SUBSTRING (e.g. 'cydra5-subset/' or '/compiled')",
    )
    b.add_argument(
        "--loops",
        type=int,
        help="loop-suite size per case (default: 8; --quick: 4)",
    )
    b.add_argument(
        "--repetitions",
        type=int,
        help="wall-time repetitions per case (default: 5; --quick: 3)",
    )
    b.add_argument(
        "--reduced",
        action="store_true",
        help="schedule on the reduced description",
    )
    b.add_argument("--label", default="", help="free-form run label")
    b.add_argument(
        "-o",
        "--output",
        metavar="FILE",
        help="write the result as a checksummed JSON artifact",
    )
    b.add_argument("--format", choices=("text", "json"), default="text")
    b.add_argument(
        "--deadline", type=float, metavar="SECONDS",
        help="wall-clock budget for the whole run (exit 3 when exceeded)",
    )
    b.add_argument(
        "--max-units", type=int, metavar="N",
        help="work-unit budget for the whole run",
    )
    _add_runlog_flag(b)
    b.set_defaults(func=_cmd_bench_run)

    b = bench_sub.add_parser(
        "compare",
        help="gate a candidate result against a baseline (exit 1 on"
        " regression)",
    )
    b.add_argument("base", help="baseline result file")
    b.add_argument("new", help="candidate result file")
    b.add_argument(
        "--work-ratio",
        type=float,
        default=1.01,
        help="deterministic work counters fail beyond this ratio"
        " (default: 1.01)",
    )
    b.add_argument(
        "--quality-ratio",
        type=float,
        default=1.0,
        help="schedule-quality counters fail beyond this ratio"
        " (default: 1.0 — any II increase fails)",
    )
    b.add_argument(
        "--min-units",
        type=float,
        default=16.0,
        help="ignore work counters below this many units (default: 16)",
    )
    b.add_argument(
        "--gate-wall",
        action="store_true",
        help="let wall-time regressions (disjoint bootstrap intervals)"
        " fail the gate — only meaningful on identical hardware",
    )
    b.add_argument(
        "--top",
        type=int,
        default=5,
        help="phases per case in the differential profile (default: 5)",
    )
    b.add_argument(
        "--verbose",
        action="store_true",
        help="also list neutral / unclassified deltas",
    )
    b.add_argument(
        "-o",
        "--output",
        metavar="FILE",
        help="write the comparison report as a checksummed JSON artifact",
    )
    b.add_argument("--format", choices=("text", "json"), default="text")
    b.set_defaults(func=_cmd_bench_compare)

    b = bench_sub.add_parser(
        "report", help="render a stored benchmark result"
    )
    b.add_argument("result", help="result file written by bench run -o")
    b.add_argument("--format", choices=("text", "json"), default="text")
    b.set_defaults(func=_cmd_bench_report)

    p = sub.add_parser(
        "lint",
        help="static-analysis audit (machine plane or --code plane)",
        description="Audit a machine description for constraint-level"
        " defects: redundant or unused rows, collapsible operations,"
        " dominated alternatives, ill-formed cycles, and (with --against)"
        " forbidden-latency disagreement with a reference description."
        " With --code, audit Python sources instead: determinism"
        " (unordered iteration), work accounting, budget checkpoints,"
        " atomic writes, and exception hygiene.",
    )
    p.add_argument(
        "machine",
        nargs="*",
        help="built-in name or MDL file; with --code, files or"
        " directories of Python sources (default: the repro package)",
    )
    p.add_argument(
        "--code",
        action="store_true",
        help="run the code-plane rules over Python sources instead of"
        " a machine description",
    )
    p.add_argument(
        "--against",
        metavar="REF",
        help="reference description for the equivalence audit",
    )
    p.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    p.add_argument(
        "--fail-on",
        choices=("error", "warning", "info"),
        default="error",
        help="exit 1 when findings reach this severity (default: error)",
    )
    p.add_argument(
        "--baseline",
        metavar="FILE",
        help="suppress findings recorded in this baseline file",
    )
    p.add_argument(
        "--write-baseline",
        metavar="FILE",
        help="record the current findings into a baseline file",
    )
    p.add_argument(
        "--rules",
        metavar="ID[,ID...]",
        help="run only these rule ids (default: all)",
    )
    p.add_argument(
        "--severity",
        action="append",
        metavar="RULE=LEVEL",
        help="override a rule's severity (repeatable)",
    )
    p.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules and exit",
    )
    p.add_argument(
        "--show-info",
        action="store_true",
        help="list info-severity findings in text output",
    )
    p.add_argument(
        "--max-cycle",
        type=int,
        default=512,
        help="plausibility bound for the cycle-overflow rule",
    )
    p.add_argument(
        "--mismatch-limit",
        type=int,
        default=20,
        help="cap on reported equivalence mismatches",
    )
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser("schedule", help="run the modulo scheduler")
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
        default=0,
        metavar="N",
        help="with --corpus: fan the suite out over N worker processes"
        " (forced serial when a --max-units/--deadline budget is set)",
    )
    p.add_argument("--word-cycles", type=int, default=1)
    p.add_argument(
        "--explain",
        metavar="FILE",
        help="also write a repro-explain-report v1 JSON artifact"
        " attributing MII and per-II failures (see 'repro explain')",
    )
    _add_observability_flags(p)
    _add_resilience_flags(p)
    _add_runlog_flag(p)
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser(
        "explain",
        help="scheduling provenance: MII attribution and per-II blame",
        description="Replay the iterative modulo scheduler under a"
        " recording decision ledger and report why each loop scheduled"
        " at the II it did: which constraint pins MII (recurrence,"
        " saturated resource, or self-contention), which (resource,"
        " cycle) cells blocked each failed II, and what was evicted."
        " Exits 1 when any loop failed to schedule.",
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
    _add_observability_flags(p)
    _add_runlog_flag(p)
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser(
        "chaos",
        help="deterministic fault injection against the resilience layer",
        description="Inject seed-derived faults (dropped/shifted usages,"
        " phase delays, truncated artifact writes, flipped checksums,"
        " corrupted reduction-cache entries) and report whether each was"
        " detected or survived via the verified fallback ladder.  Exits 0"
        " when every fault was handled, 1 when any fault goes unhandled,"
        " and 3 when the --deadline/--max-units budget is exceeded.",
    )
    p.add_argument("machine", help="built-in name or MDL file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--deadline", type=float, metavar="SECONDS",
        help="wall-clock budget for the whole fault sweep (exceeded"
        " budgets exit 3)",
    )
    p.add_argument(
        "--max-units", type=int, metavar="N",
        help="work-unit budget for the whole fault sweep (exceeded"
        " budgets exit 3)",
    )
    p.add_argument(
        "--faults",
        nargs="+",
        metavar="FAULT",
        choices=(
            "drop-usage",
            "shift-usage",
            "phase-delay",
            "truncate-write",
            "flip-checksum",
            "corrupt-cache",
        ),
        help="fault classes to inject (default: all)",
    )
    p.add_argument(
        "--out",
        metavar="FILE",
        help="write the chaos report as a checksummed JSON artifact",
    )
    p.add_argument(
        "--workdir",
        metavar="DIR",
        help="directory for artifact-fault files (default: a temp dir)",
    )
    _add_observability_flags(p)
    _add_runlog_flag(p)
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser(
        "fuzz",
        help="seeded fuzz campaign through the differential pipeline"
        " oracle",
        description="Generate seed-derived machine descriptions and push"
        " each through lint, the three query representations, reduce,"
        " certify, and the modulo scheduler, cross-checking every stage"
        " differentially.  Every fourth run additionally executes a"
        " composed multi-fault chaos plan.  The report is byte-identical"
        " across repeated runs of the same campaign.  Exits 1 when any"
        " run produced a bug verdict.",
    )
    p.add_argument("--seed", type=int, default=0, help="campaign seed")
    p.add_argument(
        "--runs", type=int, default=20,
        help="number of generated machines (default: 20)",
    )
    from repro.fuzz.mdlgen import PROFILES as _fuzz_profiles

    p.add_argument(
        "--profile",
        default="mixed",
        choices=tuple(sorted(_fuzz_profiles)),
        help="generator profile (default: mixed)",
    )
    p.add_argument(
        "--budget", type=int, metavar="UNITS",
        help="work-unit budget per oracle pipeline stage (exceeded stages"
        " become handled verdicts, not bugs)",
    )
    p.add_argument(
        "--shrink", action="store_true",
        help="minimize every bug to a local-minimum repro machine",
    )
    p.add_argument(
        "--bundles", metavar="DIR",
        help="with --shrink: write checksummed repro bundles under DIR",
    )
    p.add_argument(
        "--plans-every", type=int, default=4, metavar="N",
        help="run a composed chaos plan every N-th run (0 disables;"
        " default: 4)",
    )
    p.add_argument(
        "--out", metavar="FILE",
        help="write the campaign report as a checksummed JSON artifact",
    )
    _add_observability_flags(p)
    _add_runlog_flag(p)
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser(
        "runs",
        help="run registry: list / show / diff / trend / gc",
        description="Query the persistent run registry that --runlog"
        " (or REPRO_RUNLOG) populates: list and inspect records, gate"
        " one run against another with the bench comparator's policy,"
        " detect work/quality regressions over the longitudinal series"
        " with a seeded changepoint test, and expire old records."
        "  See docs/runs.md.",
    )
    runs_sub = p.add_subparsers(dest="runs_command", required=True)

    def _add_runs_common(r):
        _add_runlog_flag(r)
        r.add_argument(
            "--format", choices=("text", "json"), default="text"
        )

    r = runs_sub.add_parser("list", help="list registry records")
    r.add_argument(
        "--tail", type=int, default=0, metavar="N",
        help="show only the newest N records",
    )
    _add_runs_common(r)
    r.set_defaults(func=_cmd_runs_list)

    r = runs_sub.add_parser("show", help="print one record as JSON")
    r.add_argument("seq", type=int, help="record sequence number")
    _add_runs_common(r)
    r.set_defaults(func=_cmd_runs_show)

    r = runs_sub.add_parser(
        "diff",
        help="gate one record against another (exit 1 on regression)",
        description="Compare two registry records' work units and"
        " schedule quality under the bench comparator's two-tier"
        " policy: deterministic work gates hard beyond --work-ratio"
        " above the --min-units floor, quality gates at"
        " --quality-ratio (loops_at_mii bigger-is-better), and a"
        " loops/mii_total mismatch marks the pair incomparable.",
    )
    r.add_argument("base", type=int, help="baseline record seq")
    r.add_argument("new", type=int, help="candidate record seq")
    r.add_argument("--work-ratio", type=float, default=1.01)
    r.add_argument("--quality-ratio", type=float, default=1.0)
    r.add_argument("--min-units", type=float, default=16.0)
    _add_runs_common(r)
    r.set_defaults(func=_cmd_runs_diff)

    r = runs_sub.add_parser(
        "trend",
        help="seeded changepoint detection over a metric series"
        " (exit 1 on regression)",
    )
    r.add_argument(
        "--metric", default="units.check", metavar="NAME",
        help="dotted metric: units.<currency>, calls.<currency>,"
        " quality.<key>, total_units, duration_s (default: units.check)",
    )
    r.add_argument(
        "--window", type=int, default=0, metavar="N",
        help="analyze only the trailing N records (default: all)",
    )
    r.add_argument(
        "--seed", type=int, default=0,
        help="permutation-test seed (default: 0)",
    )
    r.add_argument(
        "--alpha", type=float, default=0.05,
        help="significance level (default: 0.05)",
    )
    r.add_argument(
        "--permutations", type=int, default=200,
        help="permutation count (default: 200)",
    )
    r.add_argument(
        "--min-ratio", type=float, default=1.02,
        help="ignore level shifts smaller than this ratio (default: 1.02)",
    )
    _add_runs_common(r)
    r.set_defaults(func=_cmd_runs_trend)

    r = runs_sub.add_parser("gc", help="expire old registry records")
    r.add_argument(
        "--keep", type=int, required=True, metavar="N",
        help="keep only the newest N records",
    )
    r.add_argument(
        "--prune-corrupt", action="store_true",
        help="also delete corrupt records regardless of age",
    )
    _add_runs_common(r)
    r.set_defaults(func=_cmd_runs_gc)

    return parser


#: Exit code -> registry outcome label (see docs/runs.md).
_OUTCOME_LABELS = {
    0: "ok",
    1: "fail",
    2: "error",
    3: "budget-exceeded",
    130: "interrupted",
    141: "interrupted",
}


def main(argv: Optional[List[str]] = None) -> int:
    global _RECORDER
    parser = build_parser()
    args = parser.parse_args(argv)
    runlog_dir = getattr(args, "runlog", None) or os.environ.get(
        "REPRO_RUNLOG"
    )
    recorder = None
    command = _record_command(args)
    if runlog_dir and command is not None:
        from repro.obs.runlog import RunRecorder

        # The registry location is where the record *lands*, not part of
        # the workload's identity — exclude it so the same invocation
        # logged to two directories produces byte-identical records.
        recorder = RunRecorder(
            command,
            {
                k: v for k, v in vars(args).items()
                if k not in ("func", "runlog")
            },
        )
    _RECORDER = recorder
    del _RECORDER_BUDGETS[:]
    try:
        code = _dispatch(args)
    finally:
        _RECORDER = None
    if recorder is not None:
        budgets = list(_RECORDER_BUDGETS)
        del _RECORDER_BUDGETS[:]
        if budgets:
            recorder.note(budget={
                "units": sum(budget.units for budget in budgets),
                "deadline_s": getattr(args, "deadline", None),
                "max_units": getattr(args, "max_units", None),
            })
        outcome = _OUTCOME_LABELS.get(code, "fail")
        from repro.obs.runlog import RunLog

        try:
            RunLog(runlog_dir).append(recorder.finalize(outcome, code))
        except OSError as exc:
            # The registry is an observer: failing to append must never
            # change the recorded command's own outcome.
            print(
                "warning: cannot append runlog record to %r: %s"
                % (runlog_dir, exc),
                file=sys.stderr,
            )
    return code


def _dispatch(args: argparse.Namespace) -> int:
    try:
        return args.func(args)
    except KeyboardInterrupt:
        # Atomic artifact writes guarantee no partial files survive the
        # interrupt; 130 = 128 + SIGINT, the shell convention.
        print("interrupted", file=sys.stderr)
        return 130
    except BudgetExceeded as exc:
        # Distinct from usage errors (2) and lint/verify findings (1) so
        # callers can retry with a larger budget or --fallback.
        print("budget exceeded: %s" % exc, file=sys.stderr)
        return 3
    except ReproError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. `repro bench report | head`).
        # Point stdout at devnull so the interpreter's shutdown flush
        # doesn't raise again; 141 = 128 + SIGPIPE, the shell convention.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
