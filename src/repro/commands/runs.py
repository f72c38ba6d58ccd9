"""``repro runs``: query and expire the persistent run registry."""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.commands.common import add_runlog_flag
from repro.errors import ReproError


def _open_log(args: argparse.Namespace):
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


def _add_common(p: argparse.ArgumentParser) -> None:
    add_runlog_flag(p)
    p.add_argument("--format", choices=("text", "json"), default="text")


def group_arguments(p: argparse.ArgumentParser) -> None:
    p.description = (
        "Query the persistent run registry that --runlog (or"
        " REPRO_RUNLOG) populates: list and inspect records, gate one run"
        " against another with the bench comparator's exact policy, gate"
        " the oldest against the newest run of each repeated invocation,"
        " and expire old records.  See docs/runs.md."
    )


def list_records_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--tail", type=int, default=0, metavar="N",
        help="show only the newest N records",
    )
    _add_common(p)


def list_records(args: argparse.Namespace) -> int:
    log = _open_log(args)
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


def show_record_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("seq", type=int, help="record sequence number")
    _add_common(p)


def show_record(args: argparse.Namespace) -> int:
    record = _open_log(args).get(args.seq)
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


def diff_records_arguments(p: argparse.ArgumentParser) -> None:
    p.description = (
        "Compare two registry records' work units and"
        " schedule quality under the bench comparator's exact gate:"
        " any rise in a work currency or in ii_total, or any fall in"
        " loops_at_mii, is a regression; a loops/mii_total mismatch"
        " marks the pair incomparable."
    )
    p.add_argument("base", type=int, help="baseline record seq")
    p.add_argument("new", type=int, help="candidate record seq")
    _add_common(p)


def _compare(base, new, case_key: str):
    """The bench comparator's exact gate on two records' work and
    quality, which ``diff`` and ``trend`` share."""
    from repro.bench.compare import compare_metric_maps

    return compare_metric_maps(
        case_key,
        {"units." + k: v for k, v in base.units().items()},
        {"units." + k: v for k, v in new.units().items()},
        base_quality=base.quality(),
        new_quality=new.quality(),
    )


def _print_deltas(comparison, moved=None) -> None:
    moved = moved or {}
    for note in comparison.notes:
        print("  note: %s" % note)
    for delta in comparison.deltas:
        ratio = delta.ratio
        print(
            "  %-28s %12s -> %-12s %-8s %-12s%s%s"
            % (
                delta.metric,
                "-" if delta.base is None else "%g" % delta.base,
                "-" if delta.new is None else "%g" % delta.new,
                "x%.4f" % ratio if ratio is not None else "",
                delta.classification,
                " [gated]" if delta.gated else "",
                " first moved at seq %d" % moved[delta.metric]
                if delta.metric in moved else "",
            )
        )


def diff_records(args: argparse.Namespace) -> int:
    from repro.errors import RunlogError

    log = _open_log(args)
    base = log.get(args.base)
    new = log.get(args.new)
    for which, record in (("base", base), ("candidate", new)):
        if record.corrupt:
            raise RunlogError(
                "%s record %d is corrupt: %s"
                % (which, record.seq, record.error),
                path=record.path,
            )
    case_key = "runs %d..%d" % (base.seq, new.seq)
    comparison = _compare(base, new, case_key)
    if args.format == "json":
        print(json.dumps(comparison.to_dict(), indent=2, sort_keys=True))
        return 0 if comparison.ok else 1
    print(
        "diff %s: base seq %d (%s) vs candidate seq %d (%s)"
        % (case_key, base.seq, base.command, new.seq, new.command)
    )
    _print_deltas(comparison)
    print("verdict: %s" % ("ok" if comparison.ok else "REGRESSION"))
    return 0 if comparison.ok else 1


def trend_arguments(p: argparse.ArgumentParser) -> None:
    p.description = (
        "Group the registry's records by invocation (argv_digest) and,"
        " for each invocation run more than once, gate its oldest record"
        " against its newest under the same exact comparison as 'runs"
        " diff', naming the seq at which each moved metric first"
        " changed.  Exits 1 on a gated regression."
    )
    p.add_argument(
        "--window", type=int, default=0, metavar="N",
        help="compare only each invocation's newest N records"
        " (default: all)",
    )
    _add_common(p)


def _first_moved(records, metric: str) -> int:
    """The seq of the first record whose ``metric`` differs from the
    first record's."""
    kind, _, key = metric.partition(".")

    def value(record):
        values = record.units() if kind == "units" else record.quality()
        return values.get(key)

    base = value(records[0])
    return next(r.seq for r in records[1:] if value(r) != base)


def trend(args: argparse.Namespace) -> int:
    from repro.bench.compare import NEUTRAL

    if args.window < 0:
        raise ReproError("--window must be >= 0, got %d" % args.window)
    log = _open_log(args)
    invocations = {}
    for record in log.records(include_corrupt=False):
        invocations.setdefault(
            record.data.get("argv_digest"), []
        ).append(record)
    repeated = []
    for digest, records in invocations.items():
        records = records[-args.window:] if args.window else records
        if len(records) < 2:
            continue
        comparison = _compare(
            records[0], records[-1], "%s %s" % (records[0].command, digest)
        )
        moved = {
            delta.metric: _first_moved(records, delta.metric)
            for delta in comparison.deltas
            if delta.gated and delta.classification != NEUTRAL
        }
        repeated.append((digest, records, comparison, moved))
    ok = all(comparison.ok for _d, _r, comparison, _m in repeated)
    if args.format == "json":
        print(json.dumps({
            "ok": ok,
            "invocations": [
                {
                    "argv_digest": digest,
                    "command": records[0].command,
                    "seqs": [record.seq for record in records],
                    "first_moved": moved,
                    "comparison": comparison.to_dict(),
                }
                for digest, records, comparison, moved in repeated
            ],
        }, indent=2, sort_keys=True))
        return 0 if ok else 1
    print(
        "trend: %d invocation(s), %d run more than once"
        % (len(invocations), len(repeated))
    )
    for digest, records, comparison, moved in repeated:
        print(
            "%s %s: seq %d vs seq %d (%d records): %s"
            % (
                records[0].command, digest, records[0].seq,
                records[-1].seq, len(records),
                "ok" if comparison.ok else "REGRESSION",
            )
        )
        _print_deltas(comparison, moved)
    print("verdict: %s" % ("ok" if ok else "REGRESSION"))
    return 0 if ok else 1


def gc_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--keep", type=int, required=True, metavar="N",
        help="keep only the newest N records",
    )
    p.add_argument(
        "--prune-corrupt", action="store_true",
        help="also delete corrupt records regardless of age",
    )
    _add_common(p)


def gc(args: argparse.Namespace) -> int:
    log = _open_log(args)
    removed = log.gc(keep=args.keep, prune_corrupt=args.prune_corrupt)
    remaining = len(log.records())
    print(
        "removed %d record(s), %d remaining in %s"
        % (len(removed), remaining, log.directory)
    )
    return 0
