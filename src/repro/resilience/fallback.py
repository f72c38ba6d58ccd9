"""The verified reduction ladder.

The paper replaces an error-prone manual reduction with a *checked*
automatic one; this module extends the same promise to runtime failures.
A request never fails opaquely and never silently serves an unchecked
description — it degrades down an explicit ladder, and every rung's output
is either re-verified with :func:`~repro.core.verify.assert_equivalent`
or carries an explicit ``unverified`` marker.

Reduction ladder (:func:`reduce_with_fallback`)::

    reduced              reduce_machine per objective, retry with backoff
      └─ partially-selected   every usage of the pruned generating set
           └─ original        the input description (identity, exact)

It emits ``resilience.fallback`` / ``resilience.retry`` counters and a
``resilience.reduce_ladder`` span through the active tracer.  The
scheduling ladder and the :class:`~repro.scheduler.ladder.FallbackPolicy`
both ladders read live in :mod:`repro.scheduler.ladder`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

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
from repro.core.selection import SelectionResult
from repro.core.verify import assert_equivalent
from repro.errors import BudgetExceeded, ReductionError
from repro.obs import trace as obs
from repro.scheduler.ladder import AttemptRecord, FallbackPolicy

#: Reduction ladder rungs, in degradation order.
RUNG_REDUCED = "reduced"
RUNG_PARTIAL = "partially-selected"
RUNG_ORIGINAL = "original"

UNVERIFIED_POLICY = "verification disabled by policy"


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


__all__ = [
    "ReduceOutcome",
    "RUNG_ORIGINAL",
    "RUNG_PARTIAL",
    "RUNG_REDUCED",
    "UNVERIFIED_POLICY",
    "reduce_with_fallback",
]
