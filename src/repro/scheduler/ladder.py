"""The verified scheduling ladder, and the policy both ladders read.

:func:`schedule_with_fallback` modulo-schedules a loop and degrades
verifiably instead of failing::

    ims                  IMS with escalating budget_ratio and II ceiling
      └─ list            flat (non-pipelined) schedule from the acyclic
                         list scheduler, II = makespan stretched to cover
                         loop-carried dependences

Every rung's output passes the dependence verifier and a ground-truth
MRT contention check before it is served.  The ladder emits
``resilience.fallback`` / ``resilience.retry`` counters and a
``resilience.schedule_ladder`` span through the active tracer.

:class:`FallbackPolicy` also drives the reduction ladder in
:mod:`repro.resilience.fallback`; it lives here, with the lower of its
two users, so the scheduler never imports the resilience layer above it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.machine import MachineDescription
from repro.errors import BudgetExceeded, ScheduleError
from repro.obs import trace as obs
from repro.query.work import WorkCounters
from repro.resilience.budget import Budget
from repro.scheduler.ddg import DependenceGraph
from repro.scheduler.mii import min_ii
from repro.scheduler.modulo import (
    IterativeModuloScheduler,
    ModuloScheduleResult,
    verify_modulo_schedule,
)

#: Scheduling ladder rungs, in degradation order.
RUNG_IMS = "ims"
RUNG_LIST = "list"


@dataclass
class AttemptRecord:
    """One ladder attempt: which rung, what happened."""

    rung: str
    detail: str
    error_type: Optional[str] = None
    error: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.error_type is not None


#: The scheduling retry ladder: ``(budget_ratio, max_ii_slack)`` pairs
#: for successive IMS attempts.
IMS_ESCALATION: Sequence[Tuple[int, int]] = ((6, 16), (12, 32), (24, 64))


@dataclass
class FallbackPolicy:
    """Knobs of the fallback ladders.

    Parameters
    ----------
    deadline_s / max_units:
        Per-attempt budget (each rung/retry gets a fresh
        :class:`~repro.resilience.budget.Budget`); both ``None`` disables
        budgeting entirely.
    clock:
        Injectable for deterministic tests and chaos fault injection.
    mutate_reduced:
        Chaos hook: applied to each reduced description before the final
        verification, so tests can prove the ladder survives corrupted
        reductions.  ``None`` in production.
    """

    deadline_s: Optional[float] = None
    max_units: Optional[int] = None
    clock: Callable[[], float] = time.monotonic
    mutate_reduced: Optional[
        Callable[[MachineDescription], MachineDescription]
    ] = None

    def make_budget(self, label: str = "") -> Optional[Budget]:
        """A fresh per-attempt budget, or ``None`` when unbudgeted."""
        if self.deadline_s is None and self.max_units is None:
            return None
        return Budget(
            deadline_s=self.deadline_s,
            max_units=self.max_units,
            clock=self.clock,
            label=label,
        )


@dataclass
class ScheduleOutcome:
    """What the scheduling ladder served, and how it got there.

    ``work`` carries the serving rung's query-module work counters (the
    IMS result's counters, or the flat rung's block counters), so
    corpus drivers can merge per-loop accounting whichever rung served.
    """

    graph: DependenceGraph
    machine: MachineDescription
    rung: str
    ii: int
    mii: int
    times: Dict[str, int]
    chosen_opcodes: Dict[str, str]
    attempts: List[AttemptRecord] = field(default_factory=list)
    result: Optional[ModuloScheduleResult] = None
    work: Optional[WorkCounters] = None

    @property
    def degraded(self) -> bool:
        return self.rung != RUNG_IMS

    @property
    def ii_over_mii(self) -> float:
        return self.ii / self.mii if self.mii else float("inf")


def _flat_schedule(
    machine: MachineDescription,
    graph: DependenceGraph,
    query_factory: Optional[Callable[[Optional[int]], object]] = None,
) -> Tuple[Dict[str, int], Dict[str, str], int, WorkCounters]:
    """Non-pipelined loop schedule: list-schedule one iteration, then
    stretch the II until modulo wrap-around and every loop-carried
    dependence are satisfied.

    With II at least the makespan *including reservation tails*, modulo
    slots never wrap, so the acyclic schedule's freedom from contention
    carries over to the MRT verbatim.
    """
    from repro.scheduler.list_scheduler import OperationDrivenScheduler

    block = OperationDrivenScheduler(
        machine, query_factory=query_factory
    ).schedule(graph)
    times = dict(block.times)
    chosen = dict(block.chosen_opcodes)
    span_cycles = 1
    for name, issue in times.items():
        tail = 0
        for _resource, cycle in machine.table(chosen[name]).iter_usages():
            tail = max(tail, cycle)
        span_cycles = max(span_cycles, issue + tail + 1)
    ii = span_cycles
    for edge in graph.edges():
        if edge.distance <= 0:
            continue
        need = times[edge.src] + edge.latency - times[edge.dst]
        if need > ii * edge.distance:
            ii = -(-need // edge.distance)  # ceil division
    return times, chosen, ii, block.work


def schedule_with_fallback(
    machine: MachineDescription,
    graph: DependenceGraph,
    policy: Optional[FallbackPolicy] = None,
    representation: Optional[str] = None,
    word_cycles: int = 1,
    query_factory: Optional[Callable[[Optional[int]], object]] = None,
) -> ScheduleOutcome:
    """Modulo-schedule ``graph``, degrading verifiably on failure/timeout.

    Retries IMS with escalating decision budgets and II ceilings
    (:data:`IMS_ESCALATION`), then degrades to a flat, non-pipelined
    schedule from the list scheduler.  Every rung's output passes the
    dependence verifier and a ground-truth MRT contention check before
    being served; a failure of the last rung raises a clean
    :class:`~repro.errors.ScheduleError`.

    ``query_factory`` (a ``modulo -> ContentionQueryModule`` callable) is
    threaded through to every rung's scheduler.
    """
    policy = policy or FallbackPolicy()
    graph.validate()
    attempts: List[AttemptRecord] = []
    mii = min_ii(machine, graph)
    extra = {}
    if representation is not None:
        extra["representation"] = representation
        extra["word_cycles"] = word_cycles
    with obs.span(
        "resilience.schedule_ladder", obs.CAT_RESILIENCE,
        loop=graph.name, machine=machine.name,
    ) as ladder_span:
        for index, (budget_ratio, ii_slack) in enumerate(IMS_ESCALATION):
            detail = "budget_ratio=%d max_ii_slack=%d" % (
                budget_ratio, ii_slack,
            )
            if index:
                obs.count("resilience.retry")
            budget = policy.make_budget("ims[%d]" % index)
            try:
                scheduler = IterativeModuloScheduler(
                    machine,
                    budget_ratio=budget_ratio,
                    max_ii_slack=ii_slack,
                    query_factory=query_factory,
                    **extra,
                )
                result = scheduler.schedule(graph, budget=budget)
                attempts.append(
                    AttemptRecord(
                        RUNG_IMS, detail + " -> II=%d" % result.ii
                    )
                )
                ladder_span.set(rung=RUNG_IMS, attempts=len(attempts))
                return ScheduleOutcome(
                    graph=graph,
                    machine=machine,
                    rung=RUNG_IMS,
                    ii=result.ii,
                    mii=result.mii,
                    times=result.times,
                    chosen_opcodes=result.chosen_opcodes,
                    attempts=attempts,
                    result=result,
                    work=result.work,
                )
            except (BudgetExceeded, ScheduleError) as exc:
                attempts.append(
                    AttemptRecord(
                        RUNG_IMS, detail,
                        error_type=type(exc).__name__,
                        error=str(exc),
                    )
                )

        # Degrade: flat (non-pipelined) schedule.  A failure here is a
        # clean ScheduleError — the ladder is exhausted.
        obs.count("resilience.fallback")
        times, chosen, ii, flat_work = _flat_schedule(
            machine, graph, query_factory=query_factory
        )
        verify_modulo_schedule(machine, graph, times, chosen, ii)
        attempts.append(
            AttemptRecord(RUNG_LIST, "flat schedule, II=%d" % ii)
        )
        ladder_span.set(rung=RUNG_LIST, attempts=len(attempts))
        return ScheduleOutcome(
            graph=graph,
            machine=machine,
            rung=RUNG_LIST,
            ii=ii,
            mii=mii,
            times=times,
            chosen_opcodes=chosen,
            attempts=attempts,
            work=flat_work,
        )


__all__ = [
    "AttemptRecord",
    "FallbackPolicy",
    "IMS_ESCALATION",
    "RUNG_IMS",
    "RUNG_LIST",
    "ScheduleOutcome",
    "schedule_with_fallback",
]
