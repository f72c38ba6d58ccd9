"""The fault injector: seeded fault plans at named pipeline phases.

Every fault the artifact store, the reduction cache and the fallback
ladder claim to handle is injected here, from ``repro chaos <machine>
--seed N`` (:func:`chaos_plan`: every phase/fault pair once) and from
every fourth ``repro fuzz`` run (:func:`compose_plan`: a seeded draw).
A plan is an ordered sequence of steps; a step names *where* a fault
lands, not just what it is:

``reduce``
    Description corruption (or a clock delay) while the fallback ladder
    is reducing — the classic single-fault scenario.
``mid-ladder``
    Corruption *composed with* a tripping clock, so the ladder is
    already degrading when the corrupted rung is served.
``cache-warm``
    The reduction cache is primed first and the fault lands on the warm
    entry, so the fault surfaces on a *hit* path, not a miss.
``artifact``
    A stored machine artifact is corrupted between write and load.

The faults:

``drop-usage``
    A usage vanishes from the reduced description before it is served —
    the classic manual-reduction error the paper opens with.
``shift-usage``
    An operation's reservation table shifts by one cycle.
``phase-delay``
    The budget clock jumps mid-pipeline, expiring every deadline.
``truncate-write``
    A file loses its tail bytes after the write (a crash that bypassed
    the atomic writer).
``flip-checksum``
    One hex digit of the sidecar's recorded SHA-256 flips.

A ladder step is handled only when the served description has the
original's forbidden-latency matrix (``matrices_equal``, an oracle
independent of the ladder's own check); a phase delay must also have
timed an attempt out.  A cache step is
handled when the corrupt entry is rejected, a fresh reduction is served
and the rewritten entry hits; an artifact step when loading refuses the
corrupt file.  All randomness is string-keyed on ``(machine, seed,
fault)``, so a plan run is a reproducible experiment.  An unhandled
step marks the plan failed — the fuzz campaign reports that as a
``bug`` — while a structured :class:`~repro.errors.BudgetExceeded` from
the plan budget stays a ``handled`` outcome.
"""

from __future__ import annotations

import os
import random
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro._atomic import atomic_write_bytes, atomic_write_text
from repro.core.machine import MachineDescription
from repro.core.verify import matrices_equal
from repro.errors import ArtifactIntegrityError, ReproError
from repro.obs import trace as obs
from repro.resilience import artifacts
from repro.resilience.fallback import RUNG_REDUCED, reduce_with_fallback
from repro.resilience.reduction_cache import (
    SOURCE_DISK,
    SOURCE_FRESH,
    cached_reduce,
)
from repro.scheduler.ladder import FallbackPolicy

PHASE_REDUCE = "reduce"
PHASE_MID_LADDER = "mid-ladder"
PHASE_CACHE_WARM = "cache-warm"
PHASE_ARTIFACT = "artifact"

FAULT_DROP_USAGE = "drop-usage"
FAULT_SHIFT_USAGE = "shift-usage"
FAULT_PHASE_DELAY = "phase-delay"
FAULT_TRUNCATE_WRITE = "truncate-write"
FAULT_FLIP_CHECKSUM = "flip-checksum"

#: The faults each phase can inject: the one list of fault names.
PHASE_FAULTS: Dict[str, Tuple[str, ...]] = {
    PHASE_REDUCE: (FAULT_DROP_USAGE, FAULT_SHIFT_USAGE, FAULT_PHASE_DELAY),
    PHASE_MID_LADDER: (FAULT_DROP_USAGE, FAULT_SHIFT_USAGE),
    PHASE_CACHE_WARM: (FAULT_TRUNCATE_WRITE, FAULT_FLIP_CHECKSUM),
    PHASE_ARTIFACT: (FAULT_TRUNCATE_WRITE, FAULT_FLIP_CHECKSUM),
}

PHASES = tuple(PHASE_FAULTS)

CHAOS_SCHEMA_NAME = "repro-chaos-report"
CHAOS_SCHEMA_VERSION = 2

#: How a fault was handled: the ladder or the cache served a safe
#: result, or the integrity layer refused the corrupt input outright.
MODE_SURVIVED = "survived-fallback"
MODE_DETECTED = "detected"


@dataclass(frozen=True)
class PlanStep:
    """One fault at one named pipeline phase."""

    phase: str
    fault: str

    def to_dict(self) -> Dict[str, str]:
        return {"phase": self.phase, "fault": self.fault}


@dataclass(frozen=True)
class FaultPlan:
    """An ordered multi-fault sequence."""

    seed: int
    steps: Tuple[PlanStep, ...]

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "steps": [step.to_dict() for step in self.steps],
        }


@dataclass
class StepOutcome:
    """How one plan step's fault was handled."""

    step: PlanStep
    handled: bool
    mode: str
    detail: str
    rung: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "phase": self.step.phase,
            "fault": self.step.fault,
            "handled": self.handled,
            "mode": self.mode,
            "detail": self.detail,
            "rung": self.rung,
        }


@dataclass
class PlanReport:
    """Per-step outcomes of one executed plan."""

    machine: str
    plan: FaultPlan
    outcomes: List[StepOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(outcome.handled for outcome in self.outcomes)

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": CHAOS_SCHEMA_NAME,
            "version": CHAOS_SCHEMA_VERSION,
            "machine": self.machine,
            "plan": self.plan.to_dict(),
            "ok": self.ok,
            "outcomes": [outcome.to_dict() for outcome in self.outcomes],
        }

    def render_text(self) -> str:
        row = "  %-10s %-14s %-7s %-17s %-18s %s"
        lines = [
            "chaos run: machine=%s seed=%d" % (self.machine, self.plan.seed),
            "",
            row % ("phase", "fault", "handled", "mode", "rung", "detail"),
        ]
        for outcome in self.outcomes:
            lines.append(
                row
                % (
                    outcome.step.phase,
                    outcome.step.fault,
                    "ok" if outcome.handled else "FAILED",
                    outcome.mode,
                    outcome.rung or "-",
                    outcome.detail,
                )
            )
        lines.append("")
        lines.append(
            "result: %s (%d/%d steps handled)"
            % (
                "OK" if self.ok else "FAILED",
                sum(o.handled for o in self.outcomes),
                len(self.outcomes),
            )
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Deterministic corruption primitives
# ----------------------------------------------------------------------
def _rng(machine: MachineDescription, seed: int, fault: str) -> random.Random:
    return random.Random("%s:%d:%s" % (machine.name, seed, fault))


def corrupt_drop_usage(
    machine: MachineDescription, rng: random.Random
) -> MachineDescription:
    """Drop one rng-chosen usage from a description."""
    usages = [
        (op, resource, cycle)
        for op, table in machine.items()
        for resource, cycle in table.iter_usages()
    ]
    if not usages:
        return machine
    op, resource, cycle = rng.choice(sorted(usages))
    operations = {}
    for name, table in machine.items():
        per_resource = {
            r: set(table.usage_set(r)) for r in table.resources
        }
        if name == op:
            per_resource[resource].discard(cycle)
        operations[name] = per_resource
    return MachineDescription(
        machine.name + "-chaos-drop",
        operations,
        alternatives=machine.alternatives,
        latencies=machine.latencies,
    )


def corrupt_shift_usage(
    machine: MachineDescription, rng: random.Random
) -> MachineDescription:
    """Shift one rng-chosen operation's reservation table by one cycle."""
    candidates = sorted(
        op for op, table in machine.items() if table.resources
    )
    if not candidates:
        return machine
    victim = rng.choice(candidates)
    operations = {op: table for op, table in machine.items()}
    operations[victim] = operations[victim].shifted(1)
    return MachineDescription(
        machine.name + "-chaos-shift",
        operations,
        alternatives=machine.alternatives,
        latencies=machine.latencies,
    )


class DelayedClock:
    """Deterministic monotonic clock that jumps past any deadline.

    The first ``trip`` calls advance in nanoseconds; every later call
    advances in multiples of 1000 seconds, so any budget constructed
    before *or after* the trip sees its deadline blown at the very next
    checkpoint — a persistent stall, not a one-off hiccup.
    """

    def __init__(self, trip: int):
        self.trip = trip
        self.calls = 0

    def __call__(self) -> float:
        self.calls += 1
        if self.calls <= self.trip:
            return self.calls * 1e-9
        return self.calls * 1000.0


def truncate_file(path: str, rng: random.Random) -> int:
    """Remove a rng-chosen number of trailing bytes (at least one)."""
    with open(path, "rb") as handle:
        data = handle.read()
    keep = rng.randrange(0, max(1, len(data)))
    atomic_write_bytes(path, data[:keep])
    return len(data) - keep


def flip_checksum(path: str, rng: random.Random) -> None:
    """Flip one hex digit of the sidecar's recorded SHA-256."""
    side = artifacts.sidecar_path(path)
    with open(side, "r", encoding="utf-8") as handle:
        text = handle.read()
    marker = '"sha256": "'
    start = text.index(marker) + len(marker)
    offset = start + rng.randrange(0, 64)
    old = text[offset]
    new = rng.choice([c for c in "0123456789abcdef" if c != old])
    atomic_write_text(side, text[:offset] + new + text[offset + 1:])


def _corrupt_file(path: str, fault: str, rng: random.Random) -> str:
    """Apply a file fault to an artifact; describe what was done."""
    if fault == FAULT_TRUNCATE_WRITE:
        return "truncated %d trailing bytes" % truncate_file(path, rng)
    flip_checksum(path, rng)
    return "flipped one sidecar checksum digit"


# ----------------------------------------------------------------------
# One runner per phase, each ``(machine, seed, step, workdir)``
# ----------------------------------------------------------------------
def _run_ladder(
    machine: MachineDescription, seed: int, step: PlanStep, workdir: str
) -> StepOutcome:
    """A ``reduce`` or ``mid-ladder`` step: the reduction ladder must
    serve a description equivalent to the original."""
    rng = _rng(machine, seed, step.fault)
    policy = FallbackPolicy()
    clock = None
    if step.fault == FAULT_PHASE_DELAY:
        # Trip within the first handful of clock reads so the delay
        # lands mid-pipeline even for tiny machines (every checkpoint
        # reads the clock once when a deadline is set).
        clock = DelayedClock(trip=rng.randrange(2, 6))
    else:
        corrupt = (
            corrupt_drop_usage if step.fault == FAULT_DROP_USAGE
            else corrupt_shift_usage
        )
        policy.mutate_reduced = lambda reduced: corrupt(reduced, rng)
    if step.phase == PHASE_MID_LADDER:
        # The rungs race a deadline while the reduced description is
        # corrupt.
        clock_rng = random.Random(
            "fuzzplan:%s:%d:%s" % (machine.name, seed, step.fault)
        )
        clock = DelayedClock(trip=clock_rng.randrange(6, 14))
    notes = []
    if clock is not None:
        policy.deadline_s, policy.clock = 60.0, clock
        notes.append("clock trips after %d calls" % clock.trip)
    outcome = reduce_with_fallback(machine, policy)
    handled = matrices_equal(machine, outcome.machine)
    notes.append("%d ladder attempt(s)" % len(outcome.attempts))
    if not handled:
        notes.append("served description NOT equivalent")
    if step.fault == FAULT_PHASE_DELAY:
        timed_out = any(
            record.error_type == "BudgetExceeded"
            for record in outcome.attempts
        )
        handled = handled and timed_out
        if not timed_out:
            notes.append("no attempt timed out")
    elif outcome.rung == RUNG_REDUCED:
        notes.append("corruption was benign")
    return StepOutcome(
        step, handled, MODE_SURVIVED, "; ".join(notes), rung=outcome.rung,
    )


def _run_cache_warm(
    machine: MachineDescription, seed: int, step: PlanStep, workdir: str
) -> StepOutcome:
    """Corrupt a warm reduction-cache entry: the lookup must reject it
    and serve a fresh reduction, and the rewritten entry must hit."""
    cache_dir = os.path.join(workdir, "reduction-cache")
    primed = cached_reduce(machine, cache_dir=cache_dir, use_memo=False)
    rng = _rng(machine, seed, step.fault)
    what = _corrupt_file(primed.path, step.fault, rng)
    corrupted = cached_reduce(machine, cache_dir=cache_dir, use_memo=False)
    healed = cached_reduce(machine, cache_dir=cache_dir, use_memo=False)
    equivalent = corrupted.reduced == primed.reduced
    handled = (
        corrupted.source == SOURCE_FRESH
        and healed.source == SOURCE_DISK
        and equivalent
    )
    detail = "%s of the cache entry; lookup served %s, next lookup %s" % (
        what, corrupted.source, healed.source,
    )
    if not equivalent:
        detail += "; fresh reduction DIFFERS"
    return StepOutcome(step, handled, MODE_SURVIVED, detail)


def _run_artifact(
    machine: MachineDescription, seed: int, step: PlanStep, workdir: str
) -> StepOutcome:
    """Corrupt a stored machine artifact: loading must refuse it."""
    path = os.path.join(workdir, "%s-%s.mdl" % (machine.name, step.fault))
    artifacts.write_machine(path, machine)
    what = _corrupt_file(path, step.fault, _rng(machine, seed, step.fault))
    try:
        artifacts.load_machine(path)
    except ArtifactIntegrityError as exc:
        return StepOutcome(
            step, True, MODE_DETECTED,
            "%s; load refused (%s)" % (what, exc.kind),
        )
    return StepOutcome(
        step, False, MODE_DETECTED,
        "%s; corruption NOT detected on load" % what,
    )


_RUNNERS = {
    PHASE_REDUCE: _run_ladder,
    PHASE_MID_LADDER: _run_ladder,
    PHASE_CACHE_WARM: _run_cache_warm,
    PHASE_ARTIFACT: _run_artifact,
}


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------
def chaos_plan(seed: int) -> FaultPlan:
    """The plan ``repro chaos`` runs: every phase/fault pair, once."""
    return FaultPlan(
        seed=seed,
        steps=tuple(
            PlanStep(phase=phase, fault=fault)
            for phase, faults in PHASE_FAULTS.items()
            for fault in faults
        ),
    )


def compose_plan(
    seed: int,
    length: int = 3,
    phases: Optional[Tuple[str, ...]] = None,
) -> FaultPlan:
    """Draw an ordered fault plan from the seeded stream.

    Every plan of length >= 2 includes at least one compound phase
    (mid-ladder or cache-warm) so plans exercise fault *interaction*,
    not just a shuffled version of the fixed classes.
    """
    if length < 1:
        raise ReproError("a fault plan needs at least one step")
    phases = tuple(phases if phases is not None else PHASES)
    unknown = [phase for phase in phases if phase not in PHASES]
    if unknown:
        raise ReproError(
            "unknown plan phase(s) %s (known: %s)"
            % (", ".join(sorted(unknown)), ", ".join(PHASES))
        )
    rng = random.Random("fuzzplan:%d" % seed)
    steps = []
    for _ in range(length):
        phase = rng.choice(phases)
        fault = rng.choice(PHASE_FAULTS[phase])
        steps.append(PlanStep(phase=phase, fault=fault))
    compound = (PHASE_MID_LADDER, PHASE_CACHE_WARM)
    wanted = tuple(p for p in compound if p in phases)
    if (
        length >= 2
        and wanted
        and not any(step.phase in compound for step in steps)
    ):
        phase = rng.choice(wanted)
        fault = rng.choice(PHASE_FAULTS[phase])
        index = rng.randrange(length)
        steps[index] = PlanStep(phase=phase, fault=fault)
    return FaultPlan(seed=seed, steps=tuple(steps))


def run_plan(
    machine: MachineDescription,
    plan: FaultPlan,
    workdir: Optional[str] = None,
    budget=None,
) -> PlanReport:
    """Execute a fault plan step by step.

    Deterministic in ``(machine, plan)``.  ``workdir`` hosts the
    artifact and cache files (a temporary directory is created and
    removed when omitted).  ``budget`` is checked before every step
    (phase ``"chaos-plan"``); exceeding it raises
    :class:`~repro.errors.BudgetExceeded` with the outcomes so far as
    the partial result.
    """
    for step in plan.steps:
        if step.fault not in PHASE_FAULTS.get(step.phase, ()):
            raise ReproError(
                "unknown plan step %s@%s (known phases: %s)"
                % (step.fault, step.phase, ", ".join(PHASES))
            )
    if workdir is None:
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as scratch:
            return run_plan(machine, plan, scratch, budget)
    os.makedirs(workdir, exist_ok=True)
    report = PlanReport(machine=machine.name, plan=plan)
    for index, step in enumerate(plan.steps):
        if budget is not None:
            budget.checkpoint(
                "chaos-plan",
                units=machine.total_usages,
                progress="step %d/%d (%s@%s)"
                % (index + 1, len(plan.steps), step.fault, step.phase),
                partial=[o.to_dict() for o in report.outcomes],
            )
        obs.count("chaos.fault")
        # Vary the per-step seed so repeating a fault at two plan
        # positions draws two different corruptions.
        outcome = _RUNNERS[step.phase](
            machine, plan.seed * 101 + index, step, workdir
        )
        if not outcome.handled:
            obs.count("chaos.unhandled")
        report.outcomes.append(outcome)
    return report


__all__ = [
    "CHAOS_SCHEMA_NAME",
    "CHAOS_SCHEMA_VERSION",
    "DelayedClock",
    "FAULT_DROP_USAGE",
    "FAULT_FLIP_CHECKSUM",
    "FAULT_PHASE_DELAY",
    "FAULT_SHIFT_USAGE",
    "FAULT_TRUNCATE_WRITE",
    "FaultPlan",
    "MODE_DETECTED",
    "MODE_SURVIVED",
    "PHASES",
    "PHASE_ARTIFACT",
    "PHASE_CACHE_WARM",
    "PHASE_FAULTS",
    "PHASE_MID_LADDER",
    "PHASE_REDUCE",
    "PlanReport",
    "PlanStep",
    "StepOutcome",
    "chaos_plan",
    "compose_plan",
    "corrupt_drop_usage",
    "corrupt_shift_usage",
    "flip_checksum",
    "run_plan",
    "truncate_file",
]
