"""II sweeps: throughput vs register pressure over candidate intervals.

A modulo scheduler usually wants the smallest feasible II, but larger
IIs reduce value overlap and thus register pressure — the trade-off
behind stage scheduling.  :func:`ii_sweep` schedules a loop at a range
of fixed IIs and tabulates the cost curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.machine import MachineDescription
from repro.errors import ScheduleError
from repro.query.work import WorkCounters
from repro.scheduler.ddg import DependenceGraph
from repro.scheduler.lifetimes import max_live, register_requirement
from repro.scheduler.modulo import (
    IterativeModuloScheduler,
    ModuloScheduleResult,
)


@dataclass(frozen=True)
class SweepPoint:
    """Scheduling outcome at one candidate II."""

    ii: int
    feasible: bool
    decisions_per_op: Optional[float]
    max_live: Optional[int]
    registers: Optional[int]


def ii_sweep(
    machine: MachineDescription,
    graph: DependenceGraph,
    extra: int = 4,
    scheduler: Optional[IterativeModuloScheduler] = None,
) -> List[SweepPoint]:
    """Schedule ``graph`` at each II in [MII, MII + extra].

    Each candidate II is attempted in isolation (``max_ii_slack=0``): a
    failed attempt is reported as infeasible at that II rather than
    silently escalating.
    """
    base = scheduler or IterativeModuloScheduler(machine)
    probe = IterativeModuloScheduler(
        machine,
        representation=base.representation,
        word_cycles=base.word_cycles,
        budget_ratio=base.budget_ratio,
        max_ii_slack=base.max_ii_slack,
        matrix=base.matrix,
    )
    mii = base.schedule(graph).mii
    points: List[SweepPoint] = []
    for ii in range(mii, mii + extra + 1):
        pinned = IterativeModuloScheduler(
            machine,
            representation=base.representation,
            word_cycles=base.word_cycles,
            budget_ratio=base.budget_ratio,
            max_ii_slack=0,
            matrix=probe.matrix,
        )
        # Pin the II by inflating the recurrence bound: schedule with a
        # graph-level trick is intrusive, so instead try and catch.
        try:
            result = _schedule_at_exact_ii(pinned, graph, ii)
        except ScheduleError:
            points.append(
                SweepPoint(ii, False, None, None, None)
            )
            continue
        points.append(
            SweepPoint(
                ii=ii,
                feasible=True,
                decisions_per_op=result.decisions_per_op,
                max_live=max_live(result),
                registers=register_requirement(result),
            )
        )
    return points


def _schedule_at_exact_ii(scheduler, graph, ii):
    """Run one IMS attempt pinned at ``ii``."""
    graph.validate()
    work = WorkCounters()
    outcome = scheduler._attempt(graph, ii, work)
    if not outcome.stats.succeeded:
        raise ScheduleError(
            "no schedule found at II=%d for %r" % (ii, graph.name)
        )
    result = ModuloScheduleResult(
        graph=graph,
        machine=scheduler.machine,
        ii=ii,
        mii=ii,
        times=outcome.times,
        chosen_opcodes=outcome.chosen,
        attempts=[outcome.stats],
        work=work,
    )
    scheduler._verify(result)
    return result


def sweep_report(points: List[SweepPoint]) -> str:
    """Tabulate a sweep."""
    lines = [
        "  %4s %9s %14s %9s %10s"
        % ("II", "feasible", "decisions/op", "MaxLive", "registers")
    ]
    for p in points:
        if not p.feasible:
            lines.append("  %4d %9s %14s %9s %10s" % (p.ii, "no", "-", "-", "-"))
            continue
        lines.append(
            "  %4d %9s %14.2f %9d %10d"
            % (p.ii, "yes", p.decisions_per_op, p.max_live, p.registers)
        )
    return "\n".join(lines)
