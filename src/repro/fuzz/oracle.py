"""Differential pipeline oracle.

Runs one (usually generated) machine description through the full
pipeline — structural lint, query-module trajectories, reduce, certify,
equivalence, modulo scheduling — and cross-checks every redundant path
the library offers:

* the three query representations (discrete, bitvector, compiled) must
  answer every contention check identically, and must agree with the
  brute-force reservation-grid overlay
  (:func:`repro.core.verify.schedule_is_contention_free`);
* the reduced description must be equivalent to the original
  (:func:`repro.core.verify.assert_equivalent`) and its certificate
  must check;
* the modulo scheduler must produce the *identical* schedule on the
  original and the reduced description under every representation —
  the paper's central claim.

Every outcome is classified:

``ok``
    The whole pipeline ran and every cross-check agreed.
``handled``
    A *structured* failure — :class:`~repro.errors.ScheduleError`,
    :class:`~repro.errors.BudgetExceeded`, or
    :class:`~repro.errors.CertificateError` — raised consistently.
    Expected behavior under tight budgets or unschedulable loops.
``bug``
    Divergence between redundant paths, silent corruption, a structural
    lint finding on a machine the generator promised was clean, or any
    unhandled exception.  A ``bug`` carries a stable *fingerprint*
    (machine-detail-free, e.g. ``divergence:equivalence``) that the
    shrinker preserves while minimizing.

The ``mutate_reduced`` hook exists for tests only: it injects a
known-bad transform between reduction and verification, simulating a
broken reduction pipeline so the bug path and the shrinker have a
deterministic target.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.machine import MachineDescription
from repro.core.reduce import reduce_machine
from repro.core.verify import assert_equivalent, schedule_is_contention_free
from repro.core.certificate import check_certificate, issue_certificate
from repro.errors import (
    BudgetExceeded,
    CertificateError,
    EquivalenceError,
    ReproError,
    ScheduleError,
)
from repro.fuzz.mdlgen import STRUCTURAL_RULES, generate_workload
from repro.lint import lint_machine
from repro.query import REPRESENTATIONS, make_query_module
from repro.resilience.budget import Budget
from repro.scheduler.corpus import schedule_signature
from repro.scheduler.modulo import IterativeModuloScheduler

VERDICT_OK = "ok"
VERDICT_HANDLED = "handled"
VERDICT_BUG = "bug"

VERDICTS = (VERDICT_OK, VERDICT_HANDLED, VERDICT_BUG)


@dataclass
class OracleConfig:
    """Knobs of one oracle run (all deterministic)."""

    #: Bitvector packing width for the bitvector/compiled probes.
    word_cycles: int = 4
    #: Work-unit cap per pipeline stage; ``None`` = uncapped.
    max_units: Optional[int] = None
    #: Loop workloads scheduled per machine.
    workloads: int = 2
    #: Operations per workload loop body.
    workload_operations: int = 6
    #: Steps of the seeded query-trajectory probe.
    probe_steps: int = 48
    #: Test-only divergence hook applied to the reduced description
    #: before verification — simulates a broken reduction.
    mutate_reduced: Optional[
        Callable[[MachineDescription], MachineDescription]
    ] = None


@dataclass
class OracleOutcome:
    """Classification of one machine's trip through the pipeline."""

    verdict: str
    seed: int
    profile: str
    machine_name: str
    stage: str
    #: Stable, machine-detail-free failure class (``bug`` only).
    fingerprint: Optional[str] = None
    #: Human-readable detail of the deciding event.
    detail: str = ""
    #: Structured failures observed along the way (``handled`` events).
    handled: List[str] = field(default_factory=list)
    operations: int = 0
    resources: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "verdict": self.verdict,
            "seed": self.seed,
            "profile": self.profile,
            "machine": self.machine_name,
            "stage": self.stage,
            "fingerprint": self.fingerprint,
            "detail": self.detail,
            "handled": list(self.handled),
            "operations": self.operations,
            "resources": self.resources,
        }


class _Bug(Exception):
    """Internal control flow: a divergence was detected."""

    def __init__(self, stage: str, fingerprint: str, detail: str):
        super().__init__(detail)
        self.stage = stage
        self.fingerprint = fingerprint
        self.detail = detail


def _budget(config: OracleConfig) -> Optional[Budget]:
    if config.max_units is None:
        return None
    return Budget(max_units=config.max_units)


def _probe_trajectories(
    machine: MachineDescription, seed: int, config: OracleConfig
) -> None:
    """Drive the three query representations through one seeded
    check/assign/free trajectory, cross-checking every answer against
    the brute-force reservation overlay."""
    rng = random.Random("fuzzprobe:%s:%d" % (machine.name, seed))
    modules = {
        rep: make_query_module(
            machine, rep, word_cycles=config.word_cycles, modulo=None
        )
        for rep in REPRESENTATIONS
    }
    ops = list(machine.operation_names)
    horizon = 3 * max(2, machine.max_table_length)
    placements: List[Tuple[str, int]] = []
    tokens: Dict[str, List[object]] = {rep: [] for rep in REPRESENTATIONS}
    for step in range(config.probe_steps):
        op = rng.choice(ops)
        cycle = rng.randrange(horizon)
        answers = {
            rep: modules[rep].check(op, cycle) for rep in REPRESENTATIONS
        }
        truth = schedule_is_contention_free(
            machine, placements + [(op, cycle)]
        )
        answers["overlay"] = truth
        if len(set(answers.values())) != 1:
            raise _Bug(
                "query",
                "divergence:query-check",
                "step %d: check(%r, %d) answers diverge: %s"
                % (
                    step, op, cycle,
                    sorted((k, v) for k, v in answers.items()),
                ),
            )
        if truth and rng.random() < 0.8:
            for rep in REPRESENTATIONS:
                tokens[rep].append(modules[rep].assign(op, cycle))
            placements.append((op, cycle))
        elif placements and rng.random() < 0.4:
            index = rng.randrange(len(placements))
            placements.pop(index)
            for rep in REPRESENTATIONS:
                modules[rep].free(tokens[rep].pop(index))


def _differential_schedules(
    original: MachineDescription,
    reduced: MachineDescription,
    seed: int,
    config: OracleConfig,
    handled: List[str],
) -> None:
    """Schedule seeded workloads on (original, reduced) x all three
    representations; every combination must behave identically."""
    for index in range(config.workloads):
        graph = generate_workload(
            original, seed * config.workloads + index,
            max_operations=config.workload_operations,
        )
        outcomes: Dict[Tuple[str, str], Tuple] = {}
        budget_hit = False
        for label, machine in (("original", original), ("reduced", reduced)):
            for rep in REPRESENTATIONS:
                scheduler = IterativeModuloScheduler(
                    machine,
                    representation=rep,
                    word_cycles=config.word_cycles,
                )
                try:
                    result = scheduler.schedule(
                        graph, budget=_budget(config)
                    )
                except BudgetExceeded:
                    budget_hit = True
                    break
                except ScheduleError as exc:
                    outcomes[(label, rep)] = (
                        "schedule-error", str(exc.ii_range)
                    )
                else:
                    outcomes[(label, rep)] = schedule_signature(
                        result.ii, result.times, result.chosen_opcodes
                    )
            if budget_hit:
                break
        if budget_hit:
            # Work units differ across representations by design, so a
            # tripped budget forfeits the comparison for this workload.
            handled.append("budget:ims")
            continue
        distinct = set(outcomes.values())
        if len(distinct) != 1:
            raise _Bug(
                "schedule",
                "divergence:schedule",
                "workload %d: outcomes diverge across"
                " (description, representation): %s"
                % (index, sorted(
                    (k, str(v)) for k, v in outcomes.items()
                )),
            )
        only = next(iter(distinct))
        if only[0] == "schedule-error":
            handled.append("schedule-error")


def run_oracle(
    machine: MachineDescription,
    seed: int,
    config: Optional[OracleConfig] = None,
    profile: str = "",
) -> OracleOutcome:
    """Classify one machine's trip through the differential pipeline."""
    config = config or OracleConfig()
    handled: List[str] = []
    outcome = OracleOutcome(
        verdict=VERDICT_OK,
        seed=seed,
        profile=profile,
        machine_name=machine.name,
        stage="done",
        operations=machine.num_operations,
        resources=machine.num_resources,
    )
    stage = "lint"
    try:
        report = lint_machine(machine, rules=STRUCTURAL_RULES)
        if report.diagnostics:
            first = sorted(d.rule for d in report.diagnostics)[0]
            raise _Bug(
                "lint",
                "lint:%s" % first,
                "; ".join(
                    sorted(d.message for d in report.diagnostics)[:3]
                ),
            )

        stage = "query"
        _probe_trajectories(machine, seed, config)

        stage = "reduce"
        try:
            reduction = reduce_machine(machine, budget=_budget(config))
        except BudgetExceeded as exc:
            outcome.verdict = VERDICT_HANDLED
            outcome.stage = stage
            outcome.handled = handled + ["budget:%s" % (exc.phase or stage)]
            outcome.detail = str(exc)
            return outcome
        reduced = reduction.reduced
        if config.mutate_reduced is not None:
            reduced = config.mutate_reduced(reduced)

        stage = "equivalence"
        try:
            assert_equivalent(machine, reduced)
        except EquivalenceError as exc:
            # reduce_machine verifies its own output, so inequivalence
            # here is silent corruption between reduce and verify.
            raise _Bug(
                stage, "divergence:equivalence", str(exc)
            ) from exc

        stage = "certify"
        try:
            certificate = issue_certificate(reduction)
            check_certificate(certificate, machine, reduced)
        except BudgetExceeded as exc:
            handled.append("budget:certify")
            outcome.detail = str(exc)
        except CertificateError as exc:
            handled.append("certificate:%s" % (exc.kind or "unknown"))
            outcome.detail = str(exc)

        stage = "schedule"
        _differential_schedules(machine, reduced, seed, config, handled)
    except _Bug as bug:
        outcome.verdict = VERDICT_BUG
        outcome.stage = bug.stage
        outcome.fingerprint = bug.fingerprint
        outcome.detail = bug.detail
        outcome.handled = handled
        return outcome
    except ReproError as exc:
        outcome.verdict = VERDICT_BUG
        outcome.stage = stage
        outcome.fingerprint = "unhandled:%s" % type(exc).__name__
        outcome.detail = str(exc)
        outcome.handled = handled
        return outcome
    except Exception as exc:  # noqa: BLE001 - the oracle's whole job
        outcome.verdict = VERDICT_BUG
        outcome.stage = stage
        outcome.fingerprint = "crash:%s" % type(exc).__name__
        outcome.detail = "%s: %s" % (type(exc).__name__, exc)
        outcome.handled = handled
        return outcome
    outcome.handled = handled
    if handled:
        outcome.verdict = VERDICT_HANDLED
    return outcome


__all__ = [
    "OracleConfig",
    "OracleOutcome",
    "VERDICTS",
    "VERDICT_BUG",
    "VERDICT_HANDLED",
    "VERDICT_OK",
    "run_oracle",
]
