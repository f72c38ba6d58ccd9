"""The benchmark runner: the machine × query-representation matrix.

Each case runs the paper's full pipeline (reduce, then modulo-schedule a
loop workload) ``repetitions`` times under a fresh tracer, via
:func:`repro.obs.profile.profile_machine` — the same code path as
``repro profile``, so the observatory measures exactly what the profiler
shows.  Per repetition it collects:

* the wall time of the whole pipeline plus per-phase inclusive and
  exclusive (self) span times;
* every deterministic counter (work units, query calls, Algorithm 1 rule
  firings, scheduling decisions, IMS events) — these must be
  bit-identical across repetitions, and any counter that is not is
  recorded under the case's ``nondeterministic`` list and excluded from
  gating;
* schedule quality (loops at MII, total achieved II vs total MII).

A :class:`~repro.resilience.Budget` can bound the whole run: the runner
checkpoints after every repetition, charging the repetition's query work
units in the shared WorkCounters currency, so ``--deadline`` /
``--max-units`` behave exactly as they do for ``repro reduce``.

This module pulls in the scheduler stack, so (like ``repro.obs.profile``)
it is intentionally not imported from ``repro.bench.__init__``.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.result import BenchCase, BenchResult, default_meta
from repro.bench.stats import summarize
from repro.obs.export import exclusive_times
from repro.obs.profile import profile_machine
from repro.obs.trace import Tracer
from repro.query.modulo import REPRESENTATIONS

#: The default matrix: both study-scale machines, all representations.
DEFAULT_MACHINES = ("example", "cydra5-subset")
DEFAULT_REPRESENTATIONS = REPRESENTATIONS
DEFAULT_LOOPS = 8
DEFAULT_REPETITIONS = 5

#: The CI configuration (``repro bench run --quick``): single machine,
#: all representations, enough repetitions for a bootstrap interval.
QUICK_MACHINES = ("example",)
QUICK_LOOPS = 4
QUICK_REPETITIONS = 3


def deterministic_work(tracer: Tracer) -> Dict[str, float]:
    """The deterministic counters of one traced repetition.

    Counters count algorithmic events (usages touched, rules fired,
    decisions made), never time, so every one of them must reproduce
    exactly on the same commit and configuration.  Query call counts are
    lifted out of the timers (``query.<fn>.calls``) because call counts
    are deterministic even though the attached durations are not.
    """
    work: Dict[str, float] = dict(tracer.metrics.counters)
    for name, timer in tracer.metrics.timers.items():
        if name.startswith("query."):
            work[name + ".calls"] = timer.count
    return work


def _run_repetition(
    machine,
    representation: str,
    loops: int,
    schedule_reduced: bool,
) -> Tuple[float, Tracer]:
    tracer = Tracer()
    start = perf_counter()
    profile_machine(
        machine,
        loops=loops,
        representation=representation,
        schedule_reduced=schedule_reduced,
        tracer=tracer,
    )
    return perf_counter() - start, tracer


def run_case(
    machine,
    representation: str,
    loops: int,
    repetitions: int,
    schedule_reduced: bool = False,
    budget=None,
) -> BenchCase:
    """Run one ``machine/representation`` cell of the matrix."""
    wall_samples: List[float] = []
    phase_total_samples: Dict[str, List[float]] = {}
    phase_self_samples: Dict[str, List[float]] = {}
    phase_counts: Dict[str, int] = {}
    work: Optional[Dict[str, float]] = None
    nondeterministic: List[str] = []
    quality: Dict[str, float] = {}

    for _rep in range(repetitions):
        wall_s, tracer = _run_repetition(
            machine, representation, loops, schedule_reduced
        )
        wall_samples.append(wall_s)

        for name, timer in tracer.metrics.timers.items():
            if name.startswith("query."):
                continue
            phase_total_samples.setdefault(name, []).append(timer.total)
            phase_counts[name] = timer.count
        for name, self_s in exclusive_times(tracer).items():
            if name.startswith("query."):
                continue
            phase_self_samples.setdefault(name, []).append(self_s)

        rep_work = deterministic_work(tracer)
        if work is None:
            work = rep_work
        elif rep_work != work:
            drifted = sorted(
                name
                for name in set(work) | set(rep_work)
                if work.get(name) != rep_work.get(name)
            )
            for name in drifted:
                if name not in nondeterministic:
                    nondeterministic.append(name)

        if budget is not None:
            budget.checkpoint(
                "bench:%s/%s" % (machine.name, representation),
                units=int(
                    sum(
                        value
                        for name, value in rep_work.items()
                        if name.startswith("query.")
                        and name.endswith(".units")
                    )
                ),
                progress={"repetitions": len(wall_samples)},
            )

    assert work is not None
    for name in nondeterministic:
        work.pop(name, None)

    quality["loops"] = work.get("profile.loops", 0)
    quality["loops_at_mii"] = work.get("profile.loops_at_mii", 0)
    quality["ii_total"] = work.get("profile.ii_total", 0)
    quality["mii_total"] = work.get("profile.mii_total", 0)
    quality["mii_gap"] = quality["ii_total"] - quality["mii_total"]

    phases: Dict[str, Dict[str, object]] = {}
    for name, samples in phase_total_samples.items():
        phases[name] = {
            "count": phase_counts.get(name, 0),
            "total": summarize(samples),
        }
        self_samples = phase_self_samples.get(name)
        if self_samples and len(self_samples) == len(samples):
            phases[name]["self"] = summarize(self_samples)

    return BenchCase(
        machine=machine.name,
        representation=representation,
        work=work,
        wall=summarize(wall_samples),
        phases=phases,
        quality=quality,
        nondeterministic=nondeterministic,
    )


def run_benchmark(
    machines: Sequence[Tuple[str, object]],
    representations: Sequence[str] = DEFAULT_REPRESENTATIONS,
    loops: int = DEFAULT_LOOPS,
    repetitions: int = DEFAULT_REPETITIONS,
    schedule_reduced: bool = False,
    budget=None,
    label: str = "",
    quick: bool = False,
    case_filter: Optional[str] = None,
) -> BenchResult:
    """Run the full matrix and return the result document.

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
            "repetitions": repetitions,
            "schedule_reduced": schedule_reduced,
            "quick": quick,
        },
    )
    if case_filter:
        result.config["filter"] = case_filter
    for name, machine in machines:
        for representation in representations:
            if case_filter and case_filter not in (
                "%s/%s" % (name, representation)
            ):
                continue
            result.add_case(
                run_case(
                    machine,
                    representation,
                    loops=loops,
                    repetitions=repetitions,
                    schedule_reduced=schedule_reduced,
                    budget=budget,
                )
            )
    return result


__all__ = [
    "DEFAULT_LOOPS",
    "DEFAULT_MACHINES",
    "DEFAULT_REPETITIONS",
    "DEFAULT_REPRESENTATIONS",
    "QUICK_LOOPS",
    "QUICK_MACHINES",
    "QUICK_REPETITIONS",
    "deterministic_work",
    "run_benchmark",
    "run_case",
]
