"""Verified fallback ladders for reduction and scheduling.

The paper replaces an error-prone manual reduction with a *checked*
automatic one; this module extends the same promise to runtime failures.
A request never fails opaquely and never silently serves an unchecked
description — it degrades down an explicit ladder, and every rung's output
is either re-verified with :func:`~repro.core.verify.assert_equivalent`
(or the scheduler's ground-truth checks) or carries an explicit
``unverified`` marker.

Reduction ladder (:func:`reduce_with_fallback`)::

    reduced              reduce_machine per objective, retry with backoff
      └─ partially-selected   every usage of the pruned generating set
           └─ original        the input description (identity, exact)

Scheduling ladder (:func:`schedule_with_fallback`)::

    ims                  IMS with escalating budget_ratio and II ceiling
      └─ list            flat (non-pipelined) schedule from the acyclic
                         list scheduler, II = makespan stretched to cover
                         loop-carried dependences

Both emit ``resilience.fallback`` / ``resilience.retry`` counters and a
``resilience.*_ladder`` span through the active tracer.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.certificate import (
    Certificate,
    certificate_from_machines,
    issue_certificate,
)
from repro.core.forbidden import ForbiddenLatencyMatrix
from repro.core.generating import build_generating_set
from repro.core.machine import MachineDescription
from repro.core.pruning import prune_covered_resources
from repro.core.reduce import Reduction, machine_from_selection, reduce_machine
from repro.core.selection import RES_USES, WORD_USES, SelectionResult
from repro.core.verify import assert_equivalent
from repro.errors import BudgetExceeded, ReductionError, ScheduleError
from repro.obs import trace as obs
from repro.query.work import WorkCounters
from repro.resilience.budget import Budget
from repro.scheduler.ddg import DependenceGraph
from repro.scheduler.list_scheduler import OperationDrivenScheduler
from repro.scheduler.mii import min_ii
from repro.scheduler.modulo import (
    IterativeModuloScheduler,
    ModuloScheduleResult,
)

#: Ladder rungs, in degradation order.
RUNG_REDUCED = "reduced"
RUNG_PARTIAL = "partially-selected"
RUNG_ORIGINAL = "original"
RUNG_IMS = "ims"
RUNG_LIST = "list"

UNVERIFIED_POLICY = "verification disabled by policy"


@dataclass
class AttemptRecord:
    """One ladder attempt: which rung, what happened.

    ``ledger_tail`` carries the last scheduler decision records (plain
    dicts) when the failed attempt raised a
    :class:`~repro.errors.ScheduleError` while a
    :class:`~repro.obs.ledger.DecisionLedger` was recording — the
    provenance of *why* the ladder escalated past this rung.
    """

    rung: str
    detail: str
    error_type: Optional[str] = None
    error: Optional[str] = None
    ledger_tail: Optional[List[dict]] = None

    @property
    def failed(self) -> bool:
        return self.error_type is not None


@dataclass
class FallbackPolicy:
    """Knobs of the fallback ladders.

    Parameters
    ----------
    deadline_s / max_units:
        Per-attempt budget (each rung/retry gets a fresh
        :class:`~repro.resilience.budget.Budget`); both ``None`` disables
        budgeting entirely.
    objectives:
        The reduction retry ladder: ``(objective, word_cycles)`` pairs
        tried in order before degrading (paper objectives: ``res-uses``
        then ``k-cycle-word uses``).
    backoff_s / backoff_factor / backoff_max_s:
        Bounded exponential backoff between retries: retry *i* sleeps
        ``min(backoff_s * backoff_factor**(i-1), backoff_max_s)``
        before jitter.  ``backoff_s = 0`` disables sleeping — the
        default, since in-process retries rarely benefit from it.
    backoff_jitter / backoff_seed:
        Deterministic seeded jitter: each delay is scaled by a factor
        drawn uniformly from ``[1 - jitter, 1 + jitter]`` out of a
        ``random.Random`` keyed by ``(backoff_seed, retry_index)`` —
        string-seeded, so the full delay sequence is reproducible
        across processes regardless of hash randomization.  The
        jittered delay is re-clamped to ``backoff_max_s``.
    ims_escalation:
        The scheduling retry ladder: ``(budget_ratio, max_ii_slack)``
        pairs for successive IMS attempts.
    verify:
        When False, serve ladder outputs without the final equivalence
        check but *always* mark them unverified — the marker is the
        contract, never silently skipped verification.
    clock / sleep:
        Injectable for deterministic tests and chaos fault injection.
    mutate_reduced:
        Chaos hook: applied to each reduced description before the final
        verification, so tests can prove the ladder survives corrupted
        reductions.  ``None`` in production.
    """

    deadline_s: Optional[float] = None
    max_units: Optional[int] = None
    objectives: Sequence[Tuple[str, int]] = (
        (RES_USES, 1),
        (WORD_USES, 4),
    )
    backoff_s: float = 0.0
    backoff_factor: float = 2.0
    backoff_max_s: float = 60.0
    backoff_jitter: float = 0.1
    backoff_seed: int = 0
    ims_escalation: Sequence[Tuple[int, int]] = (
        (6, 16),
        (12, 32),
        (24, 64),
    )
    verify: bool = True
    clock: Callable[[], float] = time.monotonic
    sleep: Callable[[float], None] = time.sleep
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

    def backoff_delay(self, retry_index: int) -> float:
        """Delay in seconds before retry number ``retry_index`` (1-based).

        Pure and deterministic: bounded exponential growth, then seeded
        jitter, then the bound again.  Exposed separately from
        :meth:`backoff` so tests (and capacity planning) can inspect the
        exact delay sequence without sleeping.
        """
        if self.backoff_s <= 0:
            return 0.0
        delay = self.backoff_s * self.backoff_factor ** (retry_index - 1)
        delay = min(delay, self.backoff_max_s)
        if self.backoff_jitter > 0:
            rng = random.Random(
                "backoff:%d:%d" % (self.backoff_seed, retry_index)
            )
            delay *= 1.0 + self.backoff_jitter * (2.0 * rng.random() - 1.0)
        return min(delay, self.backoff_max_s)

    def backoff(self, retry_index: int) -> None:
        """Sleep before retry number ``retry_index`` (1-based)."""
        delay = self.backoff_delay(retry_index)
        if delay > 0:
            self.sleep(delay)


@dataclass
class ReduceOutcome:
    """What the reduction ladder served, and how it got there.

    Every verified rung carries its preservation certificate, so a
    degraded outcome is just as auditable as a full reduction; the
    certificate is ``None`` only when the policy disabled verification
    or the identity rung's budget ran out before one could be issued.
    """

    machine: MachineDescription
    rung: str
    verified: bool
    unverified_reason: Optional[str]
    attempts: List[AttemptRecord] = field(default_factory=list)
    reduction: Optional[Reduction] = None
    certificate: Optional[Certificate] = None

    @property
    def degraded(self) -> bool:
        return self.rung != RUNG_REDUCED

    @property
    def marker(self) -> str:
        """``"verified"`` or an explicit ``"unverified(<reason>)"``."""
        if self.verified:
            return "verified"
        return "unverified(%s)" % (self.unverified_reason or "unknown")


def _ladder_verify(
    original: MachineDescription,
    served: MachineDescription,
    policy: FallbackPolicy,
) -> Tuple[bool, Optional[str]]:
    """The ladder's own verification of a served description.

    Raises :class:`~repro.errors.EquivalenceError` (letting the caller
    degrade) when verification runs and fails; returns the
    verified/marker pair otherwise.
    """
    if not policy.verify:
        return False, UNVERIFIED_POLICY
    assert_equivalent(original, served)
    return True, None


def _rung_certificate(
    original: MachineDescription,
    served: MachineDescription,
    reduction: Optional[Reduction],
    verified: bool,
    policy: FallbackPolicy,
) -> Optional["Certificate"]:
    """Issue the certificate a verified rung carries.

    Reuses the reduction's matrix when the served description is the
    reduction's own output; otherwise issues from scratch under a fresh
    per-attempt budget.  Skipping (budget ran out mid-issue) leaves the
    outcome verified but certificate-less — degradation stays possible
    even when proving artifacts is what became too expensive.
    """
    if not verified:
        return None
    try:
        if reduction is not None and served is reduction.reduced:
            return issue_certificate(reduction)
        return certificate_from_machines(
            original, served, budget=policy.make_budget("certificate"),
        )
    except BudgetExceeded:
        obs.count("resilience.certificate_skipped")
        return None


def reduce_with_fallback(
    machine: MachineDescription,
    policy: Optional[FallbackPolicy] = None,
) -> ReduceOutcome:
    """Reduce ``machine``, degrading verifiably on failure or timeout.

    Never raises for budget or reduction failures: the worst case serves
    the original description (rung ``"original"``), which is exact by
    identity.  The served description is *always* verified against the
    original (or explicitly marked unverified when the policy disables
    verification) — see :class:`ReduceOutcome`.
    """
    policy = policy or FallbackPolicy()
    attempts: List[AttemptRecord] = []
    last_exc: Optional[BaseException] = None
    with obs.span(
        "resilience.reduce_ladder", obs.CAT_RESILIENCE,
        machine=machine.name,
    ) as ladder_span:
        # Rung 1: full reduction, retrying across selection objectives.
        for index, (objective, word_cycles) in enumerate(policy.objectives):
            detail = "objective=%s word_cycles=%d" % (objective, word_cycles)
            if index:
                obs.count("resilience.retry")
                policy.backoff(index)
            budget = policy.make_budget("reduce:%s" % objective)
            try:
                reduction = reduce_machine(
                    machine,
                    objective=objective,
                    word_cycles=word_cycles,
                    budget=budget,
                )
                served = reduction.reduced
                if policy.mutate_reduced is not None:
                    served = policy.mutate_reduced(served)
                verified, reason = _ladder_verify(machine, served, policy)
                attempts.append(AttemptRecord(RUNG_REDUCED, detail))
                ladder_span.set(rung=RUNG_REDUCED, attempts=len(attempts))
                return ReduceOutcome(
                    machine=served,
                    rung=RUNG_REDUCED,
                    verified=verified,
                    unverified_reason=reason,
                    attempts=attempts,
                    reduction=reduction,
                    certificate=_rung_certificate(
                        machine, served, reduction, verified, policy
                    ),
                )
            except (BudgetExceeded, ReductionError) as exc:
                last_exc = exc
                attempts.append(
                    AttemptRecord(
                        RUNG_REDUCED, detail,
                        error_type=type(exc).__name__,
                        error=str(exc),
                    )
                )

        # Rung 2: partially-selected — every usage of the pruned
        # generating set.  Exact by Theorem 1 (the generating set never
        # forbids an allowed latency and covers every instance), and
        # re-verified below anyway.  Reuses the pool mined from a
        # selection-phase BudgetExceeded when available.
        obs.count("resilience.fallback")
        pool = None
        if (
            isinstance(last_exc, BudgetExceeded)
            and last_exc.phase == "selection"
            and isinstance(last_exc.partial, dict)
        ):
            pool = last_exc.partial.get("pool")
        budget = policy.make_budget("reduce:partial")
        try:
            if pool is None:
                matrix = ForbiddenLatencyMatrix.from_machine(
                    machine, budget=budget
                )
                pool = prune_covered_resources(
                    build_generating_set(matrix, budget=budget)
                )
            selection = SelectionResult(
                resources=[frozenset(r) for r in pool],
                origins=list(pool),
                objective="fallback-pool",
                word_cycles=1,
            )
            served = machine_from_selection(
                machine, selection, name=machine.name + "-partial"
            )
            verified, reason = _ladder_verify(machine, served, policy)
            attempts.append(
                AttemptRecord(
                    RUNG_PARTIAL,
                    "full generating-set selection (%d resources)"
                    % len(pool),
                )
            )
            ladder_span.set(rung=RUNG_PARTIAL, attempts=len(attempts))
            return ReduceOutcome(
                machine=served,
                rung=RUNG_PARTIAL,
                verified=verified,
                unverified_reason=reason,
                attempts=attempts,
                certificate=_rung_certificate(
                    machine, served, None, verified, policy
                ),
            )
        except (BudgetExceeded, ReductionError) as exc:
            attempts.append(
                AttemptRecord(
                    RUNG_PARTIAL,
                    "full generating-set selection",
                    error_type=type(exc).__name__,
                    error=str(exc),
                )
            )

        # Rung 3: the original description — exact by identity.
        obs.count("resilience.fallback")
        attempts.append(
            AttemptRecord(RUNG_ORIGINAL, "serving the input description")
        )
        ladder_span.set(rung=RUNG_ORIGINAL, attempts=len(attempts))
        return ReduceOutcome(
            machine=machine,
            rung=RUNG_ORIGINAL,
            verified=True,
            unverified_reason=None,
            attempts=attempts,
            certificate=_rung_certificate(
                machine, machine, None, policy.verify, policy
            ),
        )


# ----------------------------------------------------------------------
# Scheduling ladder
# ----------------------------------------------------------------------
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
    verified: bool
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

    @property
    def escalation_ledger(self) -> List[dict]:
        """Decision records explaining every failed rung, in attempt
        order — empty unless a ledger was recording during the ladder."""
        records: List[dict] = []
        for attempt in self.attempts:
            if attempt.failed and attempt.ledger_tail:
                records.extend(attempt.ledger_tail)
        return records


def _verify_modulo_reservation(
    machine: MachineDescription,
    times: Dict[str, int],
    chosen: Dict[str, str],
    ii: int,
) -> None:
    """Ground-truth MRT contention check for a modulo schedule."""
    reserved: Dict[Tuple[str, int], str] = {}
    for name, time_ in times.items():
        for resource, cycle in machine.table(chosen[name]).iter_usages():
            slot = (resource, (time_ + cycle) % ii)
            if slot in reserved:
                raise ScheduleError(
                    "resource contention between %s and %s at MRT slot %s"
                    % (reserved[slot], name, slot)
                )
            reserved[slot] = name


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
    (``policy.ims_escalation``), then degrades to a flat, non-pipelined
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
        for index, (budget_ratio, ii_slack) in enumerate(
            policy.ims_escalation
        ):
            detail = "budget_ratio=%d max_ii_slack=%d" % (
                budget_ratio, ii_slack,
            )
            if index:
                obs.count("resilience.retry")
                policy.backoff(index)
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
                    verified=True,
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
                        ledger_tail=getattr(exc, "ledger_tail", None),
                    )
                )

        # Degrade: flat (non-pipelined) schedule.  A failure here is a
        # clean ScheduleError — the ladder is exhausted.
        obs.count("resilience.fallback")
        times, chosen, ii, flat_work = _flat_schedule(
            machine, graph, query_factory=query_factory
        )
        graph.verify_schedule(times, ii=ii)
        _verify_modulo_reservation(machine, times, chosen, ii)
        attempts.append(
            AttemptRecord(RUNG_LIST, "flat schedule, II=%d" % ii)
        )
        ladder_span.set(rung=RUNG_LIST, attempts=len(attempts))
        return ScheduleOutcome(
            graph=graph,
            machine=machine,
            rung=RUNG_LIST,
            verified=True,
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
    "ReduceOutcome",
    "RUNG_IMS",
    "RUNG_LIST",
    "RUNG_ORIGINAL",
    "RUNG_PARTIAL",
    "RUNG_REDUCED",
    "ScheduleOutcome",
    "UNVERIFIED_POLICY",
    "reduce_with_fallback",
    "schedule_with_fallback",
]
