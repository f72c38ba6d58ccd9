"""Work-unit accounting for contention query modules (paper Section 8).

The paper quantifies query-module performance in *work units*: one unit
handles a single resource usage (discrete representation) or a single
non-empty word of bitvectors (bitvector representation).  The overhead of
the optimistic-to-update mode transition of ``assign&free`` is charged in
the same currency.  Table 6 reports average work units per call for each
basic function, plus call frequencies and their weighted sum.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable

CHECK = "check"
ASSIGN = "assign"
ASSIGN_FREE = "assign&free"
FREE = "free"
#: Batched window scans (``check_range`` / ``first_free``): one charge
#: per scan, costing one unit per word or collision bitset handled by
#: the kernel — the batched analogue of the per-call ``check`` currency.
CHECK_RANGE = "check_range"
#: Query-compilation work (packed reservation masks, pairwise collision
#: bitsets, per-II mask folding).  Charged deterministically per module
#: construction so bench gating never sees cache-warmth drift.
COMPILE = "compile"
#: Attributed contention tests (``check_attributed`` and the opt-in
#: ``attribute=`` window scans): one charge per blame computation, costing
#: one unit per usage or word inspected.  A separate currency so the
#: provenance plane never perturbs the paper's Table 6 numbers.
ATTRIBUTE = "attribute"
#: Background stack-profiler ticks (:mod:`repro.obs.sampler`): one charge
#: per captured stack.  A separate currency so an always-on sampler is
#: visible in the shared units registry without perturbing any query
#: trajectory — a sampler-off run charges exactly zero ``sample`` units.
SAMPLE = "sample"
FUNCTIONS = (
    CHECK, ASSIGN, ASSIGN_FREE, FREE, CHECK_RANGE, COMPILE, ATTRIBUTE,
    SAMPLE,
)


@dataclass
class WorkCounters:
    """Per-function call and work-unit counters.

    Every query-module entry point charges at least one unit per call (a
    finite-resource model must touch at least one usage or word), matching
    the paper's "absolute minimum" of 1.0 work units per call.
    """

    calls: Counter = field(default_factory=Counter)
    units: Counter = field(default_factory=Counter)

    def charge(self, function: str, work: int) -> None:
        """Record one call to ``function`` costing ``work`` units."""
        self.calls[function] += 1
        self.units[function] += max(1, work)

    def reset(self) -> None:
        self.calls.clear()
        self.units.clear()

    def merge(self, other: "WorkCounters") -> None:
        """Accumulate another counter set into this one."""
        self.calls.update(other.calls)
        self.units.update(other.units)

    def per_call(self, function: str) -> float:
        """Average work units per call of ``function`` (0.0 if never called)."""
        calls = self.calls[function]
        if not calls:
            return 0.0
        return self.units[function] / calls

    @property
    def total_calls(self) -> int:
        return sum(self.calls.values())

    @property
    def total_units(self) -> int:
        return sum(self.units.values())

    def frequencies(self) -> Dict[str, float]:
        """Relative call frequency of each basic function."""
        total = self.total_calls
        if not total:
            return {fn: 0.0 for fn in FUNCTIONS}
        return {fn: self.calls[fn] / total for fn in FUNCTIONS}

    def weighted_average(self) -> float:
        """Average work units per call across all functions.

        This is the paper's "weighted sum" row: per-function averages
        weighted by call frequencies, which algebraically equals total
        units over total calls.
        """
        total = self.total_calls
        if not total:
            return 0.0
        return self.total_units / total

    def report(self, functions: Iterable[str] = FUNCTIONS) -> str:
        """Human-readable summary, one line per function."""
        lines = []
        for fn in functions:
            lines.append(
                "%-12s %8d calls  %10.3f units/call"
                % (fn, self.calls[fn], self.per_call(fn))
            )
        lines.append(
            "%-12s %8d calls  %10.3f units/call (weighted)"
            % ("total", self.total_calls, self.weighted_average())
        )
        return "\n".join(lines)
