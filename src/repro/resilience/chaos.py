"""Deterministic, seed-driven fault injection for the resilience layer.

Every fault class the artifact store and fallback ladder claim to handle
is exercised here, from the CLI (``repro chaos <machine> --seed N``) and
from the test-suite.  All randomness is derived from
``(machine, seed, fault)``, so a chaos run is a reproducible experiment,
not a flake generator.

Fault classes
-------------
``drop-usage``
    A usage vanishes from the reduced description before it is served —
    the classic manual-reduction error the paper opens with.  The ladder
    must catch it in verification and degrade.
``shift-usage``
    An operation's reservation table shifts by one cycle — same contract.
``phase-delay``
    The budget clock jumps mid-pipeline, expiring every deadline; the
    ladder must degrade instead of hanging or failing opaquely.
``truncate-write``
    A machine artifact loses its tail bytes after the write (simulating a
    crash that bypassed the atomic writer); loading must refuse it.
``flip-checksum``
    One hex digit of the sidecar's recorded SHA-256 flips; loading must
    refuse with the expected/actual digests named.
``corrupt-cache``
    A reduction-cache entry (see
    :mod:`repro.resilience.reduction_cache`) is corrupted on disk after
    a successful write; the next lookup must reject it, serve a fresh
    verified reduction, and heal the entry in place.
"""

from __future__ import annotations

import os
import random
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.machine import MachineDescription
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

FAULT_DROP_USAGE = "drop-usage"
FAULT_SHIFT_USAGE = "shift-usage"
FAULT_PHASE_DELAY = "phase-delay"
FAULT_TRUNCATE_WRITE = "truncate-write"
FAULT_FLIP_CHECKSUM = "flip-checksum"
FAULT_CORRUPT_CACHE = "corrupt-cache"

FAULTS = (
    FAULT_DROP_USAGE,
    FAULT_SHIFT_USAGE,
    FAULT_PHASE_DELAY,
    FAULT_TRUNCATE_WRITE,
    FAULT_FLIP_CHECKSUM,
    FAULT_CORRUPT_CACHE,
)

CHAOS_SCHEMA_NAME = "repro-chaos-report"
CHAOS_SCHEMA_VERSION = 1

#: How a fault was handled: the ladder served a safe degraded result, or
#: the integrity layer refused the corrupt input outright.
MODE_SURVIVED = "survived-fallback"
MODE_DETECTED = "detected"


@dataclass
class FaultOutcome:
    """The outcome of injecting one fault class."""

    fault: str
    handled: bool
    mode: str
    detail: str
    rung: Optional[str] = None
    verified: Optional[bool] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "fault": self.fault,
            "handled": self.handled,
            "mode": self.mode,
            "detail": self.detail,
            "rung": self.rung,
            "verified": self.verified,
        }


@dataclass
class ChaosReport:
    """All fault outcomes of one chaos run."""

    machine: str
    seed: int
    outcomes: List[FaultOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(outcome.handled for outcome in self.outcomes)

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": CHAOS_SCHEMA_NAME,
            "version": CHAOS_SCHEMA_VERSION,
            "machine": self.machine,
            "seed": self.seed,
            "ok": self.ok,
            "outcomes": [outcome.to_dict() for outcome in self.outcomes],
        }

    def render_text(self) -> str:
        lines = [
            "chaos run: machine=%s seed=%d" % (self.machine, self.seed),
            "",
            "  %-16s %-8s %-18s %-20s %s"
            % ("fault", "handled", "mode", "rung", "detail"),
        ]
        for outcome in self.outcomes:
            lines.append(
                "  %-16s %-8s %-18s %-20s %s"
                % (
                    outcome.fault,
                    "ok" if outcome.handled else "FAILED",
                    outcome.mode,
                    outcome.rung or "-",
                    outcome.detail,
                )
            )
        lines.append("")
        lines.append(
            "result: %s (%d/%d faults handled)"
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
    size = os.path.getsize(path)
    keep = rng.randrange(0, max(1, size))
    with open(path, "r+b") as handle:
        handle.truncate(keep)
    return size - keep


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
    with open(side, "w", encoding="utf-8") as handle:
        handle.write(text[:offset] + new + text[offset + 1:])


# ----------------------------------------------------------------------
# Fault drivers
#
# Every driver shares one signature — ``(machine, seed, workdir)`` — so
# the :data:`INJECTORS` registry can dispatch uniformly and the fuzz
# plan composer (:mod:`repro.fuzz.plans`) can sequence them at named
# pipeline phases.  Drivers that need no scratch directory ignore it.
# ----------------------------------------------------------------------
def inject_corruption(
    machine: MachineDescription,
    seed: int,
    fault: str,
    clock=None,
    deadline_s: Optional[float] = None,
) -> FaultOutcome:
    """Corrupt the reduced description mid-ladder; the ladder must only
    ever serve a *verified* result.  ``clock``/``deadline_s`` optionally
    compose a phase delay on top (the fuzz composer's mid-ladder plans).
    """
    rng = _rng(machine, seed, fault)
    corrupt = (
        corrupt_drop_usage if fault == FAULT_DROP_USAGE
        else corrupt_shift_usage
    )
    policy_kwargs = {"mutate_reduced": lambda m: corrupt(m, rng)}
    if clock is not None:
        policy_kwargs["clock"] = clock
    if deadline_s is not None:
        policy_kwargs["deadline_s"] = deadline_s
    policy = FallbackPolicy(**policy_kwargs)
    outcome = reduce_with_fallback(machine, policy)
    handled = outcome.verified
    detail = "served %s (%d attempts)" % (
        outcome.marker, len(outcome.attempts),
    )
    if outcome.rung == RUNG_REDUCED:
        detail += "; corruption was benign"
    return FaultOutcome(
        fault=fault,
        handled=handled,
        mode=MODE_SURVIVED,
        detail=detail,
        rung=outcome.rung,
        verified=outcome.verified,
    )


def inject_phase_delay(
    machine: MachineDescription, seed: int
) -> FaultOutcome:
    rng = _rng(machine, seed, FAULT_PHASE_DELAY)
    # Trip within the first handful of clock reads so the delay lands
    # mid-pipeline even for tiny machines (every checkpoint reads the
    # clock once when a deadline is set).
    clock = DelayedClock(trip=rng.randrange(2, 6))
    policy = FallbackPolicy(deadline_s=60.0, clock=clock)
    outcome = reduce_with_fallback(machine, policy)
    timed_out = any(
        record.error_type == "BudgetExceeded"
        for record in outcome.attempts
    )
    handled = outcome.verified and timed_out
    return FaultOutcome(
        fault=FAULT_PHASE_DELAY,
        handled=handled,
        mode=MODE_SURVIVED,
        detail="clock tripped after %d calls, served %s"
        % (clock.trip, outcome.marker),
        rung=outcome.rung,
        verified=outcome.verified,
    )


def inject_artifact_fault(
    machine: MachineDescription, seed: int, fault: str, workdir: str
) -> FaultOutcome:
    rng = _rng(machine, seed, fault)
    path = os.path.join(workdir, "%s-%s.mdl" % (machine.name, fault))
    artifacts.write_machine(path, machine)
    if fault == FAULT_TRUNCATE_WRITE:
        removed = truncate_file(path, rng)
        what = "truncated %d trailing bytes" % removed
    else:
        flip_checksum(path, rng)
        what = "flipped one sidecar checksum digit"
    try:
        artifacts.load_machine(path)
    except ArtifactIntegrityError as exc:
        return FaultOutcome(
            fault=fault,
            handled=True,
            mode=MODE_DETECTED,
            detail="%s; load refused (%s)" % (what, exc.kind),
        )
    return FaultOutcome(
        fault=fault,
        handled=False,
        mode=MODE_DETECTED,
        detail="%s; corruption NOT detected on load" % what,
    )


def inject_cache_fault(
    machine: MachineDescription,
    seed: int,
    workdir: str,
    fault: Optional[str] = None,
) -> FaultOutcome:
    """Corrupt a reduction-cache entry; the cache must heal itself.

    ``fault`` optionally forces the corruption primitive
    (``truncate-write`` or ``flip-checksum``) instead of drawing it from
    the seeded stream — the fuzz composer uses this to target the
    cache-warm point with a specific primitive.
    """
    rng = _rng(machine, seed, FAULT_CORRUPT_CACHE)
    cache_dir = os.path.join(workdir, "reduction-cache")
    primed = cached_reduce(machine, cache_dir=cache_dir, use_memo=False)
    if fault is None:
        fault = (
            FAULT_TRUNCATE_WRITE if rng.random() < 0.5
            else FAULT_FLIP_CHECKSUM
        )
    if fault == FAULT_TRUNCATE_WRITE:
        truncate_file(primed.path, rng)
        what = "truncated cache entry"
    else:
        flip_checksum(primed.path, rng)
        what = "flipped cache-entry checksum digit"
    corrupted = cached_reduce(machine, cache_dir=cache_dir, use_memo=False)
    healed = cached_reduce(machine, cache_dir=cache_dir, use_memo=False)
    equivalent = corrupted.reduced == primed.reduced
    handled = (
        corrupted.source == SOURCE_FRESH
        and healed.source == SOURCE_DISK
        and equivalent
    )
    detail = "%s; lookup served %s, next lookup %s" % (
        what, corrupted.source, healed.source,
    )
    if not equivalent:
        detail += "; fallback reduction DIFFERS"
    return FaultOutcome(
        fault=FAULT_CORRUPT_CACHE,
        handled=handled,
        mode=MODE_SURVIVED,
        detail=detail,
        verified=equivalent,
    )


def inject_fault(
    machine: MachineDescription, seed: int, fault: str, workdir: str
) -> FaultOutcome:
    """Inject one fault class — the uniform registry entry point."""
    if fault in (FAULT_DROP_USAGE, FAULT_SHIFT_USAGE):
        return inject_corruption(machine, seed, fault)
    if fault == FAULT_PHASE_DELAY:
        return inject_phase_delay(machine, seed)
    if fault == FAULT_CORRUPT_CACHE:
        return inject_cache_fault(machine, seed, workdir)
    if fault in (FAULT_TRUNCATE_WRITE, FAULT_FLIP_CHECKSUM):
        return inject_artifact_fault(machine, seed, fault, workdir)
    raise ReproError(
        "unknown chaos fault %r (known: %s)" % (fault, ", ".join(FAULTS))
    )


#: Registry of fault drivers, keyed by fault class; every driver is
#: ``(machine, seed, workdir) -> FaultOutcome``.
INJECTORS = {
    fault: (
        lambda machine, seed, workdir, _fault=fault:
        inject_fault(machine, seed, _fault, workdir)
    )
    for fault in FAULTS
}


def run_chaos(
    machine: MachineDescription,
    seed: int = 0,
    faults: Optional[Sequence[str]] = None,
    workdir: Optional[str] = None,
    budget=None,
) -> ChaosReport:
    """Inject every requested fault class and report how each was handled.

    ``workdir`` hosts the artifact-fault files (a temporary directory is
    created and removed when omitted).  The report is deterministic in
    ``(machine, seed, faults)``.  ``budget`` is an optional
    :class:`~repro.resilience.budget.Budget` checked before every
    injection; exceeding it raises
    :class:`~repro.errors.BudgetExceeded` with phase ``"chaos"`` and the
    outcomes collected so far as the partial result.
    """
    faults = tuple(faults if faults is not None else FAULTS)
    unknown = [fault for fault in faults if fault not in FAULTS]
    if unknown:
        raise ReproError(
            "unknown chaos fault(s) %s (known: %s)"
            % (", ".join(sorted(unknown)), ", ".join(FAULTS))
        )
    report = ChaosReport(machine=machine.name, seed=seed)
    cleanup: Optional[tempfile.TemporaryDirectory] = None
    if workdir is None:
        cleanup = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        workdir = cleanup.name
    else:
        os.makedirs(workdir, exist_ok=True)
    try:
        for index, fault in enumerate(faults):
            if budget is not None:
                budget.checkpoint(
                    "chaos",
                    units=machine.total_usages,
                    progress="fault %d/%d (%s)"
                    % (index + 1, len(faults), fault),
                    partial=[o.to_dict() for o in report.outcomes],
                )
            obs.count("chaos.fault")
            outcome = INJECTORS[fault](machine, seed, workdir)
            if not outcome.handled:
                obs.count("chaos.unhandled")
            report.outcomes.append(outcome)
    finally:
        if cleanup is not None:
            cleanup.cleanup()
    return report


__all__ = [
    "CHAOS_SCHEMA_NAME",
    "CHAOS_SCHEMA_VERSION",
    "ChaosReport",
    "DelayedClock",
    "FAULT_CORRUPT_CACHE",
    "FAULT_DROP_USAGE",
    "FAULT_FLIP_CHECKSUM",
    "FAULT_PHASE_DELAY",
    "FAULT_SHIFT_USAGE",
    "FAULT_TRUNCATE_WRITE",
    "FAULTS",
    "FaultOutcome",
    "INJECTORS",
    "MODE_DETECTED",
    "MODE_SURVIVED",
    "corrupt_drop_usage",
    "corrupt_shift_usage",
    "flip_checksum",
    "inject_artifact_fault",
    "inject_cache_fault",
    "inject_corruption",
    "inject_fault",
    "inject_phase_delay",
    "run_chaos",
    "truncate_file",
]
