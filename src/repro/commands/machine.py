"""``repro`` commands on one or two machine descriptions."""

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
)
from repro.errors import ReproError


def reduce_arguments(p: argparse.ArgumentParser) -> None:
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
    add_observability_flags(p)
    add_resilience_flags(p)
    add_runlog_flag(p)


def reduce(args: argparse.Namespace) -> int:
    from repro.core.reduce import reduce_machine

    machine = load_machine(args.machine)
    record_run(machine=machine.name, rung="full")
    with observing(args) as tracer:
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
            record_run(rung=outcome.rung)
            print(
                "fallback ladder served rung %r (verified) after %d"
                " attempt(s)" % (outcome.rung, len(outcome.attempts))
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
            record_run(rung="cache:%s" % cached.source)
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
                budget=make_budget(args, "reduce"),
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


def verify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--limit", type=int, default=8)


def verify(args: argparse.Namespace) -> int:
    from repro.core.verify import differences

    first = load_machine(args.first)
    second = load_machine(args.second)
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


def certify_arguments(p: argparse.ArgumentParser) -> None:
    p.description = (
        "Prove that REDUCED preserves the scheduling"
        " constraints of ORIGINAL.  Without --cert, a certificate is"
        " issued (and optionally written with --emit); with --cert, the"
        " stored certificate artifact is validated independently —"
        " soundness and coverage of its Theorem-1 witness pairs plus a"
        " recomputation of the original's forbidden matrix.  Exits 1"
        " when certification fails."
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
    add_runlog_flag(p)


def certify(args: argparse.Namespace) -> int:
    from collections import Counter

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
    from repro.query.work import CHECK, WorkCounters
    from repro.resilience import artifacts

    original = load_machine(args.original)
    reduced = load_machine(args.reduced)
    record_run(
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
    record_run(WorkCounters(units=Counter({CHECK: check.units})))
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


def stats_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("machine")
    p.add_argument(
        "--word-cycles", type=int, nargs="+", default=[1, 2, 4]
    )


def stats(args: argparse.Namespace) -> int:
    from repro.core.forbidden import ForbiddenLatencyMatrix
    from repro.stats.metrics import describe

    machine = load_machine(args.machine)
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


def show_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("machine")


def show(args: argparse.Namespace) -> int:
    from repro.mdl.format import dumps

    sys.stdout.write(dumps(load_machine(args.machine)))
    return 0


def table_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("machine")
    p.add_argument("--word-cycles", type=int, nargs="+", default=[1, 2, 4])


def table(args: argparse.Namespace) -> int:
    from repro.core.reduce import reduce_machine
    from repro.stats.tables import render_reduction_table

    machine = load_machine(args.machine)
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


def report_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("machine")
    p.add_argument("--reduce", action="store_true")
    p.add_argument(
        "--objective", choices=("res-uses", "word-uses"), default="res-uses"
    )
    p.add_argument("--word-cycles", type=int, default=1)


def report(args: argparse.Namespace) -> int:
    from repro.analysis.report import describe_machine, describe_reduction
    from repro.core.reduce import reduce_machine

    machine = load_machine(args.machine)
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


def diff_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--limit", type=int, default=20)


def diff(args: argparse.Namespace) -> int:
    from repro.analysis.report import diff_constraints
    from repro.core.witness import find_witness

    first = load_machine(args.first)
    second = load_machine(args.second)
    text = diff_constraints(first, second, limit=args.limit)
    print(text)
    if text.startswith("EQUIVALENT"):
        return 0
    witness = find_witness(first, second)
    if witness is not None:
        print("witness: " + witness.describe())
    return 1
