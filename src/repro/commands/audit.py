"""``repro`` commands that audit descriptions and the pipeline: lint,
chaos and fuzz."""

from __future__ import annotations

import argparse
import json
import sys

from repro.commands.common import (
    add_observability_flags,
    add_runlog_flag,
    load_machine,
    make_budget,
    observing,
    record_run,
)
from repro.errors import ReproError


def lint_arguments(p: argparse.ArgumentParser) -> None:
    p.description = (
        "Audit a machine description for constraint-level"
        " defects: redundant or unused rows, collapsible operations,"
        " dominated alternatives, ill-formed cycles, and (with --against)"
        " forbidden-latency disagreement with a reference description."
        " With --code, audit Python sources instead: determinism"
        " (unordered iteration), work accounting, budget checkpoints,"
        " atomic writes, and exception hygiene."
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


def lint(args: argparse.Namespace) -> int:
    from repro.lint.baseline import Baseline, write_baseline
    from repro.lint.registry import (
        lint_machine,
        lint_source,
        registered_rules,
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
            load_machine(args.against) if args.against else None
        )
        machine, raw = load_machine(args.machine[0], raw=True)
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


def chaos_arguments(p: argparse.ArgumentParser) -> None:
    p.description = (
        "Run the chaos plan: every fault of every pipeline phase"
        " (dropped/shifted usages and phase delays while reducing and"
        " mid-ladder, truncated writes and flipped checksums on warm"
        " reduction-cache entries and on stored artifacts), with"
        " seed-derived corruptions, and report whether each was"
        " detected or survived.  Exits 0 when every step was handled,"
        " 1 when any step goes unhandled, and 3 when the"
        " --deadline/--max-units budget is exceeded."
    )
    p.add_argument("machine", help="built-in name or MDL file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--deadline", type=float, metavar="SECONDS",
        help="wall-clock budget for the whole plan (exceeded budgets"
        " exit 3)",
    )
    p.add_argument(
        "--max-units", type=int, metavar="N",
        help="work-unit budget for the whole plan (exceeded budgets"
        " exit 3)",
    )
    p.add_argument(
        "--out",
        metavar="FILE",
        help="write the chaos report as a checksummed JSON artifact",
    )
    p.add_argument(
        "--workdir",
        metavar="DIR",
        help="directory for artifact and cache files (default: a temp"
        " dir)",
    )
    add_observability_flags(p)
    add_runlog_flag(p)


def chaos(args: argparse.Namespace) -> int:
    from repro.fuzz.plans import chaos_plan, run_plan
    from repro.resilience import artifacts

    machine = load_machine(args.machine)
    record_run(machine=machine.name, seed=args.seed)
    with observing(args) as tracer:
        if tracer is not None:
            tracer.meta.update(
                command="chaos", machine=machine.name, seed=args.seed
            )
        report = run_plan(
            machine,
            chaos_plan(args.seed),
            workdir=args.workdir,
            budget=make_budget(args, "chaos"),
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
    record_run(
        faults=len(report.outcomes),
        unhandled=sum(1 for r in report.outcomes if not r.handled),
    )
    # Exit-code contract: 0 = every step handled, 1 = any unhandled
    # step, 3 = budget exceeded (raised through main()'s handler).
    return 0 if report.ok else 1


def fuzz_arguments(p: argparse.ArgumentParser) -> None:
    from repro.fuzz.mdlgen import PROFILES

    p.description = (
        "Generate seed-derived machine descriptions and push"
        " each through lint, the three query representations, reduce,"
        " certify, and the modulo scheduler, cross-checking every stage"
        " differentially.  Every fourth run additionally executes a"
        " composed multi-fault chaos plan.  The report is byte-identical"
        " across repeated runs of the same campaign.  Exits 1 when any"
        " run produced a bug verdict."
    )
    p.add_argument("--seed", type=int, default=0, help="campaign seed")
    p.add_argument(
        "--runs", type=int, default=20,
        help="number of generated machines (default: 20)",
    )
    p.add_argument(
        "--profile",
        default="mixed",
        choices=tuple(sorted(PROFILES)),
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
    add_observability_flags(p)
    add_runlog_flag(p)


def fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz.campaign import run_campaign
    from repro.resilience import artifacts

    with observing(args) as tracer:
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
        record_run(
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
