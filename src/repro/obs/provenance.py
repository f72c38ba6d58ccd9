"""Blame rollups over the schedulers' decision events.

The iterative modulo scheduler and the list scheduler emit every
decision — an attempt boundary, a placement, a forced placement, an
eviction, a give-up — as one :mod:`repro.obs.trace` event whose
arguments are the decision's payload.  :func:`decision_records` turns a
run's events into numbered record dicts, and the pure functions here
fold those into the aggregates ``repro explain`` renders: per-resource
pressure histograms, per-II attempt summaries, and one-line failure
descriptions such as ``II=7 failed: fp_bus saturated at cycles 3-5, 14
evictions``.

Records are plain dicts, so the module stays a leaf next to
:mod:`repro.obs.trace`: no imports from the query or scheduler layers.
The scheduler-running report builder lives in
:mod:`repro.analysis.explain`.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Tuple

#: Decision record kinds.
ATTEMPT = "attempt"
PLACE = "place"
FORCE = "force"
EVICT = "evict"
GIVE_UP = "give_up"

#: The schedulers' decision event names and the record kind of each.
DECISIONS = {
    "ims.attempt": ATTEMPT,
    "ims.place": PLACE,
    "ims.force": FORCE,
    "ims.evict_resource": EVICT,
    "ims.evict_dependence": EVICT,
    "ims.give_up": GIVE_UP,
    "list.place": PLACE,
    "list.give_up": GIVE_UP,
}


def decision_records(events: Iterable) -> List[Dict[str, object]]:
    """The decision events among ``events``, as record dicts.

    Each record is ``{"seq": n, "kind": kind, **payload}``: ``n``
    numbers the decisions from 0, ``kind`` comes from
    :data:`DECISIONS`, and every other event is skipped.
    """
    records: List[Dict[str, object]] = []
    for event in events:
        kind = DECISIONS.get(event.name)
        if kind is not None:
            record: Dict[str, object] = {"seq": len(records), "kind": kind}
            record.update(event.args or {})
            records.append(record)
    return records


def _blames_of(record: Dict[str, object]) -> Iterable[Dict[str, object]]:
    blame = record.get("blame")
    if isinstance(blame, dict):
        yield blame
    window_blame = record.get("window_blame")
    if isinstance(window_blame, (list, tuple)):
        for entry in window_blame:
            if isinstance(entry, dict):
                yield entry


def pressure_histogram(records) -> Dict[str, Dict[int, int]]:
    """Per-resource histogram of blamed cycles.

    ``result[resource][cycle]`` counts how often that (resource, cycle)
    cell was named as the canonical blocking cell — MRT slots under
    modulo scheduling, absolute cycles otherwise.
    """
    histogram: Dict[str, Counter] = {}
    for record in records:
        for blame in _blames_of(record):
            resource = blame.get("resource")
            cycle = blame.get("cycle")
            if resource is None or cycle is None:
                continue
            histogram.setdefault(str(resource), Counter())[int(cycle)] += 1
    return {
        resource: dict(counter) for resource, counter in histogram.items()
    }


def blame_counts(records) -> Dict[str, int]:
    """Total blame count per resource, most-blamed first in dict order."""
    counts = Counter()
    for record in records:
        for blame in _blames_of(record):
            resource = blame.get("resource")
            if resource is not None:
                counts[str(resource)] += 1
    ordered = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return dict(ordered)


def cycle_ranges(cycles: Iterable[int]) -> List[Tuple[int, int]]:
    """Collapse a cycle set into sorted inclusive (start, end) runs."""
    ordered = sorted(set(cycles))
    runs: List[Tuple[int, int]] = []
    for cycle in ordered:
        if runs and cycle == runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], cycle)
        else:
            runs.append((cycle, cycle))
    return runs


def format_cycle_ranges(cycles: Iterable[int], limit: int = 3) -> str:
    """Human rendering of blamed cycles: ``cycles 3-5, 9`` (capped)."""
    runs = cycle_ranges(cycles)
    if not runs:
        return "no cycles"
    parts = []
    for start, end in runs[:limit]:
        parts.append(str(start) if start == end else "%d-%d" % (start, end))
    text = ("cycle " if len(runs) == 1 and runs[0][0] == runs[0][1]
            else "cycles ")
    text += ", ".join(parts)
    if len(runs) > limit:
        text += ", ..."
    return text


def attempt_summaries(records) -> List[Dict[str, object]]:
    """One summary per scheduler II attempt, in attempt order.

    Folds the ``attempt`` start/end markers with every blame and
    eviction recorded at that II:

    * ``ii``, ``succeeded``, ``budget_exceeded``, ``decisions``,
      ``evictions`` — the attempt's outcome and cost;
    * ``blame`` — per-resource blame totals within the attempt;
    * ``saturation`` — per-resource blamed-cycle histograms;
    * ``top_resource`` — the most-blamed resource, or ``None``.
    """
    summaries: List[Dict[str, object]] = []
    by_ii: Dict[int, Dict[str, object]] = {}

    def entry(ii: int) -> Dict[str, object]:
        summary = by_ii.get(ii)
        if summary is None:
            summary = {
                "ii": ii,
                "succeeded": None,
                "budget_exceeded": False,
                "decisions": 0,
                "evictions": 0,
                "forced": 0,
                "blame": Counter(),
                "saturation": {},
            }
            by_ii[ii] = summary
            summaries.append(summary)
        return summary

    for record in records:
        ii = record.get("ii")
        if ii is None:
            continue
        summary = entry(int(ii))
        kind = record.get("kind")
        if kind == ATTEMPT and record.get("phase") == "end":
            summary["succeeded"] = bool(record.get("succeeded"))
            summary["budget_exceeded"] = bool(record.get("budget_exceeded"))
            summary["decisions"] = int(record.get("decisions", 0))
            summary["evictions"] = int(
                record.get("evictions_resource", 0)
            ) + int(record.get("evictions_dependence", 0))
        elif kind == EVICT:
            pass  # counted via the attempt-end totals
        elif kind == FORCE:
            summary["forced"] += 1
        for blame in _blames_of(record):
            resource = blame.get("resource")
            cycle = blame.get("cycle")
            if resource is None:
                continue
            summary["blame"][str(resource)] += 1
            if cycle is not None:
                cycles = summary["saturation"].setdefault(
                    str(resource), Counter()
                )
                cycles[int(cycle)] += 1

    for summary in summaries:
        blame: Counter = summary["blame"]
        summary["blame"] = dict(
            sorted(blame.items(), key=lambda item: (-item[1], item[0]))
        )
        summary["saturation"] = {
            resource: dict(counter)
            for resource, counter in summary["saturation"].items()
        }
        summary["top_resource"] = next(iter(summary["blame"]), None)
    return summaries


def describe_attempt(summary: Dict[str, object]) -> str:
    """One-line failure/success description of an II attempt."""
    ii = summary.get("ii")
    succeeded = summary.get("succeeded")
    if succeeded:
        return "II=%s succeeded: %d decisions, %d evictions" % (
            ii, summary.get("decisions", 0), summary.get("evictions", 0),
        )
    parts: List[str] = []
    top = summary.get("top_resource")
    if top is not None:
        cycles = summary.get("saturation", {}).get(top, {})
        parts.append(
            "%s saturated at %s" % (top, format_cycle_ranges(cycles))
        )
    evictions = summary.get("evictions", 0)
    if evictions:
        parts.append("%d evictions" % evictions)
    if summary.get("budget_exceeded"):
        parts.append("budget exhausted")
    if not parts:
        parts.append("no blame recorded")
    return "II=%s failed: %s" % (ii, ", ".join(parts))


def eviction_counts(records) -> Dict[str, int]:
    """Evictions per victim operation name (most-evicted first)."""
    counts = Counter()
    for record in records:
        if record.get("kind") == EVICT:
            victim = record.get("op")
            if victim is not None:
                counts[str(victim)] += 1
    ordered = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return dict(ordered)


def summarize(records) -> Dict[str, object]:
    """The full rollup bundle ``repro explain`` embeds per run."""
    attempts = attempt_summaries(records)
    return {
        "records": len(records),
        "pressure": pressure_histogram(records),
        "blame": blame_counts(records),
        "evictions": eviction_counts(records),
        "attempts": attempts,
        "narrative": [describe_attempt(summary) for summary in attempts],
    }


__all__ = [
    "ATTEMPT",
    "DECISIONS",
    "EVICT",
    "FORCE",
    "GIVE_UP",
    "PLACE",
    "attempt_summaries",
    "blame_counts",
    "cycle_ranges",
    "decision_records",
    "describe_attempt",
    "eviction_counts",
    "format_cycle_ranges",
    "pressure_histogram",
    "summarize",
]
