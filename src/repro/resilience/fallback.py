"""The verified reduction ladder.

The paper replaces an error-prone manual reduction with a *checked*
automatic one; this module extends the same promise to runtime failures.
A request never fails opaquely and never serves an unchecked
description — it degrades down an explicit ladder, and every rung's
output is re-verified with :func:`~repro.core.verify.assert_equivalent`
before it is served.

Reduction ladder (:func:`reduce_with_fallback`)::

    reduced              reduce_machine per objective, then retry
      └─ partially-selected   every usage of the pruned generating set
           └─ original        the input description (identity, exact)

It emits ``resilience.fallback`` / ``resilience.retry`` counters and a
``resilience.reduce_ladder`` span through the active tracer.  The
scheduling ladder and the :class:`~repro.scheduler.ladder.FallbackPolicy`
both ladders read live in :mod:`repro.scheduler.ladder`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

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
from repro.errors import BudgetExceeded, ReductionError
from repro.obs import trace as obs
from repro.scheduler.ladder import AttemptRecord, FallbackPolicy

#: Reduction ladder rungs, in degradation order.
RUNG_REDUCED = "reduced"
RUNG_PARTIAL = "partially-selected"
RUNG_ORIGINAL = "original"

#: The reduced rung's retries: the paper's two objectives, as
#: ``(objective, word_cycles)`` pairs tried in order before degrading.
OBJECTIVES = ((RES_USES, 1), (WORD_USES, 4))


@dataclass
class ReduceOutcome:
    """What the reduction ladder served, and how it got there.

    The served description is always equivalent to the input: it passed
    ``assert_equivalent``, or it is the input itself.  Every rung
    carries its preservation certificate, so a degraded outcome is just
    as auditable as a full reduction; the certificate is ``None`` only
    when the budget ran out before one could be issued.
    """

    machine: MachineDescription
    rung: str
    attempts: List[AttemptRecord] = field(default_factory=list)
    reduction: Optional[Reduction] = None
    certificate: Optional[Certificate] = None

    @property
    def degraded(self) -> bool:
        return self.rung != RUNG_REDUCED


def _rung_certificate(
    original: MachineDescription,
    served: MachineDescription,
    reduction: Optional[Reduction],
    policy: FallbackPolicy,
) -> Optional["Certificate"]:
    """Issue the certificate a served rung carries.

    Reuses the reduction's matrix when the served description is the
    reduction's own output; otherwise issues from scratch under a fresh
    per-attempt budget.  Skipping (budget ran out mid-issue) leaves the
    outcome verified but certificate-less — degradation stays possible
    even when proving artifacts is what became too expensive.
    """
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
    identity.  Every other served description is verified against the
    original before it is served.
    """
    policy = policy or FallbackPolicy()
    attempts: List[AttemptRecord] = []
    last_exc: Optional[BaseException] = None
    with obs.span(
        "resilience.reduce_ladder", obs.CAT_RESILIENCE,
        machine=machine.name,
    ) as ladder_span:
        # Rung 1: full reduction, retrying across selection objectives.
        for index, (objective, word_cycles) in enumerate(OBJECTIVES):
            detail = "objective=%s word_cycles=%d" % (objective, word_cycles)
            if index:
                obs.count("resilience.retry")
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
                assert_equivalent(machine, served)
                attempts.append(AttemptRecord(RUNG_REDUCED, detail))
                ladder_span.set(rung=RUNG_REDUCED, attempts=len(attempts))
                return ReduceOutcome(
                    machine=served,
                    rung=RUNG_REDUCED,
                    attempts=attempts,
                    reduction=reduction,
                    certificate=_rung_certificate(
                        machine, served, reduction, policy
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
            assert_equivalent(machine, served)
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
                attempts=attempts,
                certificate=_rung_certificate(machine, served, None, policy),
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
            attempts=attempts,
            certificate=_rung_certificate(machine, machine, None, policy),
        )


__all__ = [
    "OBJECTIVES",
    "ReduceOutcome",
    "RUNG_ORIGINAL",
    "RUNG_PARTIAL",
    "RUNG_REDUCED",
    "reduce_with_fallback",
]
