"""The benchmark runner: the machine × query-representation matrix.

Each case runs the paper's full pipeline (reduce, then modulo-schedule a
loop workload) once under a fresh tracer, via
:func:`repro.obs.profile.profile_machine` — the same code path as
``repro profile``.  It keeps what the pass counted and never what it
timed:

* every deterministic counter (work units, query calls, Algorithm 1 rule
  firings, scheduling decisions, IMS events);
* schedule quality (loops at MII, total achieved II vs total MII).

Counters count algorithmic events, so the same commit and configuration
reproduce them exactly and one pass per case is the whole measurement.
Wall time belongs to the untraced ``benchmarks/e2e`` harness: a traced
pass times the observed query subclasses, not the shipped ones.

A :class:`~repro.resilience.budget.Budget` can bound the whole run: the
runner checkpoints after every case, charging the case's query work
units in the shared WorkCounters currency, so ``--deadline`` /
``--max-units`` behave exactly as they do for ``repro reduce``.  The
runner also returns those counters, summed over the cases, for the run
registry.

This module pulls in the scheduler stack, so (like ``repro.obs.profile``)
it is intentionally not imported from ``repro.bench.__init__``.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.bench.result import BenchCase, BenchResult, default_meta
from repro.obs.profile import profile_machine
from repro.obs.trace import Tracer
from repro.query.modulo import REPRESENTATIONS
from repro.query.work import WorkCounters

#: The default matrix: the paper's worked example and two real-size
#: study machines, under every representation.
DEFAULT_MACHINES = ("example", "cydra5-subset", "alpha21064")
DEFAULT_REPRESENTATIONS = REPRESENTATIONS
DEFAULT_LOOPS = 64


def deterministic_work(tracer: Tracer) -> Dict[str, float]:
    """The deterministic counters of one traced pass.

    Counters count algorithmic events (usages touched, rules fired,
    decisions made), never time, so every one of them must reproduce
    exactly on the same commit and configuration.  Query call counts are
    lifted out of the timers (``query.<fn>.calls``) because call counts
    are deterministic even though the attached durations are not.  Only
    a query function's timer is lifted — one with a ``query.<fn>.units``
    counter beside it.  Other ``query.*`` spans, such as the compiled
    plane's ``query.kernel.compile``, fire only on a cold cache, so
    their counts depend on what the process ran before.
    """
    counters = tracer.metrics.counters
    work: Dict[str, float] = dict(counters)
    for name, timer in tracer.metrics.timers.items():
        if name.startswith("query.") and name + ".units" in counters:
            work[name + ".calls"] = timer.count
    return work


def run_case(
    machine,
    representation: str,
    loops: int,
    schedule_reduced: bool = False,
    budget=None,
) -> Tuple[BenchCase, WorkCounters]:
    """Run one ``machine/representation`` cell of the matrix: its case
    and the summed work counters of its schedules."""
    tracer = Tracer()
    counters = profile_machine(
        machine,
        loops=loops,
        representation=representation,
        schedule_reduced=schedule_reduced,
        tracer=tracer,
    )
    if budget is not None:
        budget.checkpoint(
            "bench:%s/%s" % (machine.name, representation),
            units=counters.total_units,
        )
    work = deterministic_work(tracer)
    quality = {
        key: work.get("profile." + key, 0)
        for key in ("loops", "loops_at_mii", "ii_total", "mii_total")
    }
    quality["mii_gap"] = quality["ii_total"] - quality["mii_total"]
    case = BenchCase(
        machine=machine.name,
        representation=representation,
        work=work,
        quality=quality,
    )
    return case, counters


def run_benchmark(
    machines: Sequence[Tuple[str, object]],
    representations: Sequence[str] = DEFAULT_REPRESENTATIONS,
    loops: int = DEFAULT_LOOPS,
    schedule_reduced: bool = False,
    budget=None,
    label: str = "",
    case_filter: Optional[str] = None,
) -> Tuple[BenchResult, WorkCounters]:
    """Run the full matrix: the result document, and the summed work
    counters of every schedule it ran.

    ``machines`` is a sequence of ``(name, MachineDescription)`` pairs —
    the caller resolves built-in names or MDL files (the CLI reuses its
    machine loader; tests pass toy machines directly).  ``case_filter``
    keeps only cells whose ``machine/representation`` key contains the
    substring (``repro bench run --filter``); the recorded config notes
    the filter so a compare against an unfiltered baseline reports the
    config mismatch.
    """
    result = BenchResult(
        meta=default_meta(label=label),
        config={
            "machines": [name for name, _machine in machines],
            "representations": list(representations),
            "loops": loops,
            "schedule_reduced": schedule_reduced,
        },
    )
    if case_filter:
        result.config["filter"] = case_filter
    total = WorkCounters()
    for name, machine in machines:
        for representation in representations:
            if case_filter and case_filter not in (
                "%s/%s" % (name, representation)
            ):
                continue
            case, counters = run_case(
                machine,
                representation,
                loops=loops,
                schedule_reduced=schedule_reduced,
                budget=budget,
            )
            result.add_case(case)
            total.merge(counters)
    return result, total


__all__ = [
    "DEFAULT_LOOPS",
    "DEFAULT_MACHINES",
    "DEFAULT_REPRESENTATIONS",
    "deterministic_work",
    "run_benchmark",
    "run_case",
]
