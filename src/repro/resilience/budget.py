"""Deadlines and work-unit budgets with cooperative cancellation.

A :class:`Budget` combines a wall-clock deadline with a work-unit cap and
is *checked*, never enforced preemptively: pipeline phases call
:meth:`Budget.checkpoint` at their loop boundaries, so cancellation always
lands at a consistent point and the raised
:class:`~repro.errors.BudgetExceeded` can carry the phase's best partial
result.  Work units share the currency of
:class:`repro.query.work.WorkCounters` — one unit per resource usage (or
non-empty bitvector word) touched — so one budget covers both reduction
and scheduling phases; reduction loops approximate a unit as one resource
match per elementary pair.

The clock is injectable (``clock=time.monotonic`` by default), which is
how the fault plans of :mod:`repro.fuzz.plans` simulate phase delays
deterministically.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional

from repro.errors import BudgetExceeded


class Budget:
    """A wall-clock deadline plus a work-unit cap, checked cooperatively.

    Parameters
    ----------
    deadline_s:
        Wall-clock seconds from construction (or the latest :meth:`restart`)
        after which any checkpoint raises; ``None`` disables the deadline.
    max_units:
        Work-unit cap across all phases; ``None`` disables the cap.
    clock:
        Monotonic-clock callable; injectable for deterministic tests and
        chaos fault injection.
    label:
        Free-form tag included in error messages (e.g. the request id).
    """

    __slots__ = (
        "deadline_s", "max_units", "label", "_clock", "_start", "units",
        "phase", "progress",
    )

    def __init__(
        self,
        deadline_s: Optional[float] = None,
        max_units: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
        label: str = "",
    ):
        self.deadline_s = deadline_s
        self.max_units = max_units
        self.label = label
        self._clock = clock
        self._start = clock()
        self.units = 0
        self.phase: Optional[str] = None
        self.progress: Dict[str, object] = {}

    # ------------------------------------------------------------------
    def elapsed_s(self) -> float:
        """Wall-clock seconds since construction / the last restart."""
        return self._clock() - self._start

    def remaining_s(self) -> Optional[float]:
        """Seconds left before the deadline (``None`` when undeadlined)."""
        if self.deadline_s is None:
            return None
        return self.deadline_s - self.elapsed_s()

    def remaining_units(self) -> Optional[int]:
        if self.max_units is None:
            return None
        return self.max_units - self.units

    def exhausted(self) -> bool:
        """Non-raising probe: is the budget already spent?"""
        remaining = self.remaining_s()
        if remaining is not None and remaining <= 0:
            return True
        units_left = self.remaining_units()
        return units_left is not None and units_left <= 0

    def restart(self) -> None:
        """Reset the clock and the unit counter (for retry ladders that
        grant each attempt a fresh allowance)."""
        self._start = self._clock()
        self.units = 0

    # ------------------------------------------------------------------
    def checkpoint(self, phase: str, units: int = 0, progress=None,
                   partial=None) -> None:
        """Charge ``units`` and raise :class:`BudgetExceeded` if spent.

        Parameters
        ----------
        phase:
            Name of the calling phase, recorded on the exception.
        units:
            Work units performed since the previous checkpoint.
        progress:
            Free-form progress indicator kept per phase (the latest value
            is echoed into the exception).
        partial:
            The phase's best partial result so far; the fallback ladder
            mines this from the raised exception.
        """
        self.phase = phase
        self.units += units
        if progress is not None:
            self.progress[phase] = progress
        reason = None
        elapsed = None
        if self.deadline_s is not None:
            elapsed = self.elapsed_s()
            if elapsed > self.deadline_s:
                reason = "deadline %.3fs exceeded (%.3fs elapsed)" % (
                    self.deadline_s, elapsed,
                )
        if reason is None and self.max_units is not None:
            if self.units > self.max_units:
                reason = "work-unit cap %d exceeded (%d charged)" % (
                    self.max_units, self.units,
                )
        if reason is None:
            return
        prefix = "%s: " % self.label if self.label else ""
        raise BudgetExceeded(
            "%sbudget exceeded in phase %r: %s" % (prefix, phase, reason),
            phase=phase,
            elapsed_s=elapsed if elapsed is not None else self.elapsed_s(),
            deadline_s=self.deadline_s,
            units=self.units,
            max_units=self.max_units,
            progress=self.progress.get(phase),
            partial=partial,
        )


__all__ = ["Budget", "BudgetExceeded"]
