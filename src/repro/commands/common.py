"""What the ``repro`` command handlers share: machine loading, the
observability and budget flags, and the run recorder's plumbing.

One recorder is active per recorded invocation (``repro.cli.main`` sets
:data:`RECORDER`); command bodies hand it what their own results hold
through :func:`record_run`, a no-op when the runlog is off so the
disabled path stays a single global read.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import List

from repro.errors import ReproError

RECORDER = None
RECORDER_BUDGETS: List[object] = []


def load_machine(ref: str, raw: bool = False):
    """The machine ``ref`` names: a built-in, or an MDL file.

    With ``raw`` the result is ``(machine, None)`` for a built-in and
    ``(None, parse)`` for a file, so the linter can attach real source
    lines and can still audit files that fail semantic validation.
    """
    from repro.machines.builtin import BUILTIN_MACHINES

    if ref in BUILTIN_MACHINES:
        machine = BUILTIN_MACHINES[ref]()
        return (machine, None) if raw else machine
    if os.sep in ref or ref.endswith(".mdl") or os.path.exists(ref):
        from repro.mdl.format import load_file, parse_file

        try:
            return (None, parse_file(ref)) if raw else load_file(ref)
        except (OSError, UnicodeDecodeError) as exc:
            raise ReproError(
                "cannot read machine file %r: %s" % (ref, exc)
            ) from exc
    raise ReproError(
        "unknown machine %r: not a built-in machine and not an existing"
        " MDL file (built-ins: %s)"
        % (ref, ", ".join(sorted(BUILTIN_MACHINES)))
    )


def record_run(work=None, loops=(), quality=None, **fields) -> None:
    """Give the active run recorder what a command's results hold.

    ``fields`` are envelope fields (machine, workload, rung, ...);
    ``work`` is the :class:`~repro.query.work.WorkCounters` of the
    schedules the command ran; ``loops`` is the ``(ii, mii)`` of each
    loop it scheduled; ``quality`` adds totals of the same keys
    (``loops``, ``loops_at_mii``, ``ii_total``, ``mii_total``).
    """
    if RECORDER is None:
        return
    RECORDER.note(**fields)
    if work is not None:
        RECORDER.add_work(work)
    for ii, mii in loops:
        RECORDER.merge_quality({
            "loops": 1,
            "loops_at_mii": int(ii == mii),
            "ii_total": ii,
            "mii_total": mii,
        })
    if quality:
        RECORDER.merge_quality(quality)


@contextlib.contextmanager
def observing(args: argparse.Namespace):
    """Activate tracing for a command when ``--trace``/``--metrics`` ask.

    Yields the tracer (or ``None`` when observability is off) and writes
    the requested export files after the command body finishes.
    """
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)
    if not trace_path and not metrics_path:
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
    if metrics_path:
        write_export(write_metrics, tracer, metrics_path, "metrics")
        if metrics_path != "-":
            print("wrote metrics %s" % metrics_path, file=sys.stderr)
    if trace_path:
        write_export(write_chrome_trace, tracer, trace_path, "trace")
        print(
            "wrote trace %s (open in https://ui.perfetto.dev)" % trace_path,
            file=sys.stderr,
        )


def write_export(writer, tracer, path: str, what: str) -> None:
    try:
        writer(tracer, path)
    except OSError as exc:
        raise ReproError("cannot write %s file %r: %s" % (what, path, exc))


def add_observability_flags(parser: argparse.ArgumentParser) -> None:
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


def make_budget(args: argparse.Namespace, label: str):
    """A :class:`~repro.resilience.budget.Budget` from ``--deadline`` /
    ``--max-units`` (``None`` when neither flag is given)."""
    deadline = getattr(args, "deadline", None)
    max_units = getattr(args, "max_units", None)
    if deadline is None and max_units is None:
        return None
    from repro.resilience.budget import Budget

    budget = Budget(deadline_s=deadline, max_units=max_units, label=label)
    if RECORDER is not None:
        # Remember the object so the registry record can report the
        # units actually consumed, not just the configured caps.
        RECORDER_BUDGETS.append(budget)
    return budget


def add_runlog_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--runlog",
        metavar="DIR",
        help="append a checksummed run record to this registry directory"
        " (default: $REPRO_RUNLOG when set; see 'repro runs')",
    )


def add_resilience_flags(parser: argparse.ArgumentParser) -> None:
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
