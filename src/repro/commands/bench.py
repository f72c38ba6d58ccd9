"""``repro bench``: record, gate and render benchmark results."""

from __future__ import annotations

import argparse
import json
import sys

from repro.commands.common import (
    add_runlog_flag,
    load_machine,
    make_budget,
    record_run,
)
from repro.errors import ReproError


def group_arguments(p: argparse.ArgumentParser) -> None:
    p.description = (
        "Record schema-versioned benchmark results (the deterministic"
        " work counters and schedule quality of one traced pass per"
        " case), compare a candidate run against a baseline with an exact"
        " gate, and render stored results.  See docs/benchmarking.md."
    )


def run_arguments(p: argparse.ArgumentParser) -> None:
    from repro.query.modulo import REPRESENTATIONS

    p.add_argument(
        "machines",
        nargs="*",
        help="machines to benchmark (default: example, cydra5-subset,"
        " alpha21064)",
    )
    p.add_argument(
        "--representations",
        default=",".join(REPRESENTATIONS),
        metavar="R[,R]",
        help="query representations to matrix over"
        " (default: %(default)s)",
    )
    p.add_argument(
        "--filter",
        metavar="SUBSTRING",
        help="run only cases whose 'machine/representation' key contains"
        " SUBSTRING (e.g. 'cydra5-subset/' or '/compiled')",
    )
    p.add_argument(
        "--loops",
        type=int,
        help="loop-suite size per case (default: 64)",
    )
    p.add_argument(
        "--reduced",
        action="store_true",
        help="schedule on the reduced description",
    )
    p.add_argument("--label", default="", help="free-form run label")
    p.add_argument(
        "-o",
        "--output",
        metavar="FILE",
        help="write the result as a checksummed JSON artifact",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument(
        "--deadline", type=float, metavar="SECONDS",
        help="wall-clock budget for the whole run (exit 3 when exceeded)",
    )
    p.add_argument(
        "--max-units", type=int, metavar="N",
        help="work-unit budget for the whole run",
    )
    add_runlog_flag(p)


def run(args: argparse.Namespace) -> int:
    from repro.bench import runner
    from repro.bench.report import render_result_text
    from repro.bench.result import save_result
    from repro.query.modulo import REPRESENTATIONS

    machines = [
        (name, load_machine(name))
        for name in args.machines or runner.DEFAULT_MACHINES
    ]
    representations = [
        r.strip() for r in args.representations.split(",") if r.strip()
    ]
    for representation in representations:
        if representation not in REPRESENTATIONS:
            raise ReproError(
                "unknown representation %r (choose from %s)"
                % (representation, ", ".join(REPRESENTATIONS))
            )
    result, work = runner.run_benchmark(
        machines,
        representations=representations,
        loops=args.loops or runner.DEFAULT_LOOPS,
        schedule_reduced=args.reduced,
        budget=make_budget(args, "bench"),
        label=args.label,
        case_filter=args.filter,
    )
    record_run(
        work,
        machine=",".join(name for name, _ in machines),
        workload="bench[%d cases]" % len(result.cases),
        representation=args.representations,
    )
    for case in result.cases.values():
        record_run(quality=case.quality)
    if args.format == "json":
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_result_text(result))
    if args.output:
        save_result(args.output, result)
        print("wrote %s (+ checksum sidecar)" % args.output,
              file=sys.stderr)
    return 0


def compare_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("base", help="baseline result file")
    p.add_argument("new", help="candidate result file")
    p.add_argument(
        "--verbose",
        action="store_true",
        help="also list neutral / unclassified deltas",
    )
    p.add_argument(
        "-o",
        "--output",
        metavar="FILE",
        help="write the comparison report as a checksummed JSON artifact",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")


def compare(args: argparse.Namespace) -> int:
    from repro.bench.compare import compare_results
    from repro.bench.report import render_comparison_text
    from repro.bench.result import load_result
    from repro.resilience import artifacts

    comparison = compare_results(
        load_result(args.base), load_result(args.new)
    )
    if args.format == "json":
        print(json.dumps(comparison.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_comparison_text(comparison, verbose=args.verbose))
    if args.output:
        artifacts.write_json(
            args.output, comparison.to_dict(), kind="bench-compare"
        )
        print("wrote %s (+ checksum sidecar)" % args.output,
              file=sys.stderr)
    return 0 if comparison.ok else 1


def report_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("result", help="result file written by bench run -o")
    p.add_argument("--format", choices=("text", "json"), default="text")


def report(args: argparse.Namespace) -> int:
    from repro.bench.report import render_result_text
    from repro.bench.result import load_result

    result = load_result(args.result)
    if args.format == "json":
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_result_text(result))
    return 0
