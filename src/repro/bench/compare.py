"""The regression comparator: an exact gate on deterministic metrics.

Every compared metric is deterministic — work counters (usages touched,
rules fired, decisions made) and schedule quality — so the same commit
and configuration reproduce it exactly and there is no noise to be
immune to.  The gate is therefore exact:

* a rise in a work counter or in ``ii_total``, or a fall in
  ``loops_at_mii``, is a gated regression;
* a move the other way is a reported improvement;
* a metric present on only one side is reported and never gated.

``loops`` and ``mii_total`` are properties of the workload, not of the
implementation — a change there means the two runs measured different
things, which marks the case incomparable rather than regressed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.bench.result import BenchResult
from repro.errors import BenchFormatError

IMPROVEMENT = "improvement"
REGRESSION = "regression"
NEUTRAL = "neutral"
MISSING_BASE = "missing-base"
MISSING_NEW = "missing-new"

#: Quality counters that are workload properties, not implementation
#: metrics — they must match exactly for a comparison to mean anything.
_WORKLOAD_KEYS = ("loops", "mii_total")

#: Gated quality metrics, each with whether bigger is better.
_QUALITY_METRICS = (("ii_total", False), ("loops_at_mii", True))

#: Work counters the runner copies into ``quality``; compared there, once.
_QUALITY_COUNTERS = frozenset(
    "profile." + key
    for key in ("loops", "loops_at_mii", "ii_total", "mii_total")
)


@dataclass
class MetricDelta:
    """One compared metric in one case."""

    case: str
    metric: str
    kind: str  # "work" | "quality"
    base: Optional[float]
    new: Optional[float]
    classification: str
    gated: bool = False
    note: str = ""

    @property
    def ratio(self) -> Optional[float]:
        if self.base is None or self.new is None or not self.base:
            return None
        return self.new / self.base

    def to_dict(self) -> Dict[str, object]:
        return {
            "case": self.case,
            "metric": self.metric,
            "kind": self.kind,
            "base": self.base,
            "new": self.new,
            "ratio": self.ratio,
            "classification": self.classification,
            "gated": self.gated,
            "note": self.note,
        }


@dataclass
class Comparison:
    """The full verdict of one baseline-vs-candidate comparison."""

    base_meta: Dict[str, object] = field(default_factory=dict)
    new_meta: Dict[str, object] = field(default_factory=dict)
    deltas: List[MetricDelta] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[MetricDelta]:
        """Gated regressions — the ones that fail the build."""
        return [
            d for d in self.deltas
            if d.gated and d.classification == REGRESSION
        ]

    @property
    def improvements(self) -> List[MetricDelta]:
        return [
            d for d in self.deltas if d.classification == IMPROVEMENT
        ]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": "repro-bench-compare",
            "version": 1,
            "ok": self.ok,
            "base_meta": dict(self.base_meta),
            "new_meta": dict(self.new_meta),
            "notes": list(self.notes),
            "regressions": [d.to_dict() for d in self.regressions],
            "deltas": [d.to_dict() for d in self.deltas],
        }


def _delta(
    case_key: str,
    metric: str,
    kind: str,
    base: Optional[float],
    new: Optional[float],
    bigger_is_better: bool = False,
) -> MetricDelta:
    if base is None or new is None:
        return MetricDelta(
            case_key, metric, kind, base, new,
            MISSING_BASE if base is None else MISSING_NEW,
            note="only present on one side; not gated",
        )
    if new == base:
        classification = NEUTRAL
    elif (new < base) == bigger_is_better:
        classification = REGRESSION
    else:
        classification = IMPROVEMENT
    return MetricDelta(
        case_key, metric, kind, base, new, classification, gated=True
    )


def compare_metric_maps(
    case_key: str,
    base_work: Dict[str, float],
    new_work: Dict[str, float],
    base_quality: Optional[Dict[str, float]] = None,
    new_quality: Optional[Dict[str, float]] = None,
) -> Comparison:
    """Compare one case's work and quality maps under the exact gate.

    :func:`compare_results` applies this to every case two bench results
    share, and ``repro runs diff`` to two runlog records, so a registry
    diff and a bench comparison run one code path.  A workload-property
    mismatch (``loops``, ``mii_total``) marks the case incomparable and
    compares nothing else.
    """
    comparison = Comparison()
    base_quality = base_quality or {}
    new_quality = new_quality or {}
    if base_quality or new_quality:
        for key in _WORKLOAD_KEYS:
            if base_quality.get(key) != new_quality.get(key):
                comparison.notes.append(
                    "%s: workload mismatch (%s: base=%s new=%s) — case"
                    " not compared" % (
                        case_key, key,
                        base_quality.get(key), new_quality.get(key),
                    )
                )
                return comparison
        for metric, bigger_is_better in _QUALITY_METRICS:
            comparison.deltas.append(
                _delta(
                    case_key, "quality." + metric, "quality",
                    base_quality.get(metric), new_quality.get(metric),
                    bigger_is_better,
                )
            )
    for metric in sorted(set(base_work) | set(new_work)):
        if metric not in _QUALITY_COUNTERS:
            comparison.deltas.append(
                _delta(
                    case_key, metric, "work",
                    base_work.get(metric), new_work.get(metric),
                )
            )
    return comparison


def compare_results(base: BenchResult, new: BenchResult) -> Comparison:
    """Compare a candidate run against a baseline run, case by case.

    Both results must carry the current schema (loading already enforced
    that); differing *configurations* degrade gracefully — cases present
    on only one side are noted, never gated.
    """
    comparison = Comparison(
        base_meta=dict(base.meta), new_meta=dict(new.meta)
    )
    if base.config != new.config:
        comparison.notes.append(
            "run configurations differ (base=%r new=%r): only matching"
            " cases are compared" % (base.config, new.config)
        )
    for case_key in sorted(set(base.cases) | set(new.cases)):
        base_case = base.cases.get(case_key)
        new_case = new.cases.get(case_key)
        if base_case is None or new_case is None:
            comparison.notes.append(
                "case %s present only in the %s run; skipped"
                % (case_key, "candidate" if base_case is None else "base")
            )
            continue
        case = compare_metric_maps(
            case_key, base_case.work, new_case.work,
            base_case.quality, new_case.quality,
        )
        comparison.deltas.extend(case.deltas)
        comparison.notes.extend(case.notes)
    return comparison


def ensure_comparable(base: BenchResult, new: BenchResult) -> None:
    """Raise :class:`BenchFormatError` when two results cannot be compared.

    Loading already rejects wrong schema versions; this exists for
    callers constructing results in memory.
    """
    for which, result in (("base", base), ("candidate", new)):
        if not result.cases:
            raise BenchFormatError(
                "%s benchmark result has no cases" % which
            )


__all__ = [
    "IMPROVEMENT",
    "MISSING_BASE",
    "MISSING_NEW",
    "NEUTRAL",
    "REGRESSION",
    "Comparison",
    "MetricDelta",
    "compare_metric_maps",
    "compare_results",
    "ensure_comparable",
]
