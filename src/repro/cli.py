"""Command-line interface: ``repro <command>`` (or ``python -m repro``).

:data:`COMMANDS` is the one table of commands: name, handler, help and
whether the run registry records it.  A handler lives in a module of
:mod:`repro.commands`, imported only when its command runs, so
``repro --help`` and every command load only what they use.

``certify`` validates Theorem-1 witness certificates without re-running
the reduction (``repro certify ORIG REDUCED [--cert FILE]``); ``reduce``
emits one with ``--certificate FILE``, and ``reduce --cache`` verifies
warm hits via their stored certificate unless ``--paranoid`` — see
``docs/certificates.md``.

``bench run`` records a schema-versioned, checksummed benchmark result:
the deterministic work counters and schedule quality of one traced pass
per machine × representation case.  ``bench compare`` gates a candidate
run against a baseline exactly (any rise in work or II, any fall in
loops at MII) and exits 1 on regression — see ``docs/benchmarking.md``.
Wall time is measured by the untraced ``benchmarks/e2e`` harness.

``reduce`` and ``schedule`` accept ``--deadline``/``--max-units`` budgets
(exceeded budgets exit 3) and ``--fallback`` to degrade down the verified
fallback ladder instead of failing — see ``docs/robustness.md``.

``reduce``, ``schedule``, ``automata``, and ``profile`` accept
``--metrics FILE`` (schema-versioned JSON metrics, ``-`` for stdout) and
``--trace FILE`` (Chrome ``trace_event`` JSON, loadable in Perfetto) —
see ``docs/observability.md``.

``explain`` replays the scheduler, folds its decision events and reports
*why* each loop scheduled at its II (``repro-explain-report`` v1);
``schedule --explain FILE`` writes the same document alongside a normal
run — see ``docs/explain.md``.

Every command :data:`COMMANDS` marks ``recorded`` accepts ``--runlog
DIR`` (or the ``REPRO_RUNLOG`` environment variable) to append one
checksummed ``repro-runlog-record`` v1 document per invocation to the
persistent run registry.  The record holds what the command's own
results hold (the work counters of the schedules it ran, schedule
quality), so recording starts no tracer.  ``repro runs`` queries the
registry, and ``runs diff`` and ``runs trend`` gate records with the
bench comparator — see ``docs/runs.md``.

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
import importlib
import os
import sys
from typing import List, NamedTuple, Optional

from repro.errors import BudgetExceeded, ReproError


class Command(NamedTuple):
    """One row of :data:`COMMANDS`."""

    #: ``"reduce"``, or ``"bench run"`` for a subcommand.
    name: str
    #: ``"module:function"`` in :mod:`repro.commands`: ``function`` runs
    #: the command and ``function_arguments`` sets up its parser.  A
    #: group never runs (it requires a subcommand), so its row names a
    #: ``group`` that has only ``group_arguments``.
    handler: str
    help: str
    #: Appends a registry record when ``--runlog`` is set.
    recorded: bool = False


#: Every command, in ``repro --help`` order.  The ``runs`` family never
#: records: reading the registry must not grow it.
COMMANDS = (
    Command(
        "reduce", "machine:reduce", "reduce a machine description", True
    ),
    Command("verify", "machine:verify", "compare two descriptions"),
    Command(
        "certify", "machine:certify",
        "issue or check a preservation certificate", True,
    ),
    Command("stats", "machine:stats", "print description metrics"),
    Command("show", "machine:show", "dump a machine as MDL"),
    Command(
        "table", "machine:table",
        "render the Tables 1-4 metrics for a machine",
    ),
    Command("report", "machine:report", "machine / reduction report"),
    Command("diff", "machine:diff", "scheduling-constraint diff"),
    Command("expand", "schedule:expand", "print a software pipeline"),
    Command("automata", "schedule:automata", "automata size report"),
    Command(
        "profile", "schedule:profile",
        "reduce + schedule under tracing; time/work breakdown", True,
    ),
    Command(
        "bench", "bench:group",
        "benchmark observatory: run / compare / report",
    ),
    Command(
        "bench run", "bench:run",
        "run the benchmark matrix and record a result", True,
    ),
    Command(
        "bench compare", "bench:compare",
        "gate a candidate result against a baseline (exit 1 on"
        " regression)",
    ),
    Command(
        "bench report", "bench:report", "render a stored benchmark result"
    ),
    Command(
        "lint", "audit:lint",
        "static-analysis audit (machine plane or --code plane)",
    ),
    Command(
        "schedule", "schedule:schedule", "run the modulo scheduler", True
    ),
    Command(
        "explain", "schedule:explain",
        "scheduling provenance: MII attribution and per-II blame", True,
    ),
    Command(
        "chaos", "audit:chaos",
        "deterministic fault injection against the resilience layer", True,
    ),
    Command(
        "fuzz", "audit:fuzz",
        "seeded fuzz campaign through the differential pipeline oracle",
        True,
    ),
    Command(
        "runs", "runs:group", "run registry: list / show / diff / trend / gc"
    ),
    Command("runs list", "runs:list_records", "list registry records"),
    Command("runs show", "runs:show_record", "print one record as JSON"),
    Command(
        "runs diff", "runs:diff_records",
        "gate one record against another (exit 1 on regression)",
    ),
    Command(
        "runs trend", "runs:trend",
        "gate each repeated invocation's oldest run against its newest"
        " (exit 1 on regression)",
    ),
    Command("runs gc", "runs:gc", "expire old registry records"),
)

_NAMES = frozenset(command.name for command in COMMANDS)

#: The commands that only group subcommands.
GROUPS = frozenset(name.rpartition(" ")[0] for name in _NAMES) - {""}


def _function(command: Command, suffix: str = ""):
    """The handler a row names, or with ``suffix="_arguments"`` its
    parser set-up; importing its module on the way."""
    module, _, function = command.handler.partition(":")
    return getattr(
        importlib.import_module("repro.commands." + module),
        function + suffix,
    )


def _named_command(argv: List[str]) -> Optional[str]:
    """The :data:`COMMANDS` name ``argv`` starts with, if any."""
    words = []
    for token in argv[:2]:
        if token.startswith("-"):
            break
        words.append(token)
    for count in (2, 1):
        if " ".join(words[:count]) in _NAMES:
            return " ".join(words[:count])
    return None


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The ``repro`` parser: every command, with the arguments of
    ``command`` (a :data:`COMMANDS` name) only, so building it imports
    one handler module at most."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reduced multipipeline machine descriptions "
        "(Eichenberger & Davidson, PLDI 1996)",
    )
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for row in COMMANDS:
        group, _, leaf = row.name.rpartition(" ")
        subparser = groups[group].add_parser(leaf, help=row.help)
        if row.name in GROUPS:
            groups[row.name] = subparser.add_subparsers(
                dest=row.name + "_command", required=True
            )
        elif row.name == command:
            subparser.set_defaults(cli_command=row)
        if command and row.name in (command, command.split()[0]):
            _function(row, "_arguments")(subparser)
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
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(_named_command(argv)).parse_args(argv)
    from repro.commands import common

    runlog_dir = getattr(args, "runlog", None) or os.environ.get(
        "REPRO_RUNLOG"
    )
    recorder = None
    if runlog_dir and args.cli_command.recorded:
        from repro.obs.runlog import RunRecorder

        # The registry location is where the record *lands*, not part of
        # the workload's identity — exclude it so the same invocation
        # logged to two directories produces byte-identical records.
        recorder = RunRecorder(
            args.cli_command.name,
            {
                k: v for k, v in vars(args).items()
                if k not in ("cli_command", "runlog")
            },
        )
    common.RECORDER = recorder
    del common.RECORDER_BUDGETS[:]
    try:
        code = _dispatch(args)
    finally:
        common.RECORDER = None
    if recorder is not None:
        budgets = list(common.RECORDER_BUDGETS)
        del common.RECORDER_BUDGETS[:]
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
        return _function(args.cli_command)(args)
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
