"""Exporters: text summary, schema-versioned metrics JSON, Chrome trace.

Three views over one :class:`~repro.obs.trace.Tracer`:

* :func:`render_text` — the per-phase time/work breakdown printed by
  ``repro profile``;
* :func:`metrics_document` — a stable JSON document (schema version
  :data:`METRICS_SCHEMA_VERSION`, documented in ``docs/observability.md``)
  for dashboards and the ``BENCH_*.json`` perf trajectory;
* :func:`chrome_trace_document` — Chrome ``trace_event`` JSON that loads
  directly in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Optional

from repro._atomic import atomic_write_text
from repro.obs.trace import Tracer
from repro.query.work import FUNCTIONS

#: Version of the metrics JSON document.  Bump on breaking changes and
#: record the migration in docs/observability.md.
METRICS_SCHEMA_VERSION = 1
METRICS_SCHEMA_NAME = "repro-obs-metrics"


# ----------------------------------------------------------------------
# Metrics JSON
# ----------------------------------------------------------------------
def query_summary(tracer: Tracer) -> Dict[str, Dict[str, object]]:
    """Per-function query table: calls, wall time, units, throughput.

    Call counts and wall time come from the tracer's timers; work units
    come from the counters the observed query modules copy out of
    :class:`~repro.query.work.WorkCounters` — same registry, same keys,
    so units-per-second is a straight division.
    """
    summary: Dict[str, Dict[str, object]] = {}
    for function in FUNCTIONS:
        name = "query." + function
        timer = tracer.metrics.timers.get(name)
        if timer is None or not timer.count:
            continue
        units = tracer.metrics.get_counter(name + ".units")
        hist = tracer.metrics.histograms.get(name)
        entry: Dict[str, object] = {
            "calls": timer.count,
            "wall_s": timer.total,
            "units": units,
            "units_per_call": units / timer.count,
            "us_per_call": timer.mean * 1e6,
        }
        entry["units_per_s"] = (
            units / timer.total if timer.total > 0 else None
        )
        if hist is not None and hist.count:
            entry["p50_us"] = hist.quantile(0.50)
            entry["p99_us"] = hist.quantile(0.99)
        summary[function] = entry
    return summary


def metrics_document(tracer: Tracer) -> Dict[str, object]:
    """The stable metrics JSON document (see ``docs/observability.md``)."""
    document: Dict[str, object] = {
        "schema": METRICS_SCHEMA_NAME,
        "version": METRICS_SCHEMA_VERSION,
        "meta": dict(tracer.meta),
        "records": {
            "spans": len(tracer.spans),
            "events": len(tracer.events),
            "dropped": tracer.dropped,
        },
        "queries": query_summary(tracer),
        "exclusive_s": {
            name: total
            for name, total in sorted(exclusive_times(tracer).items())
        },
    }
    document.update(tracer.metrics.to_dict())
    return document


# ----------------------------------------------------------------------
# Span nesting: exclusive (self) time and collapsed stacks
# ----------------------------------------------------------------------
def _walk_span_tree(tracer: Tracer):
    """Rebuild the span tree and yield ``(key, path, self_seconds)``.

    The schedulers are single-threaded, so recorded spans either nest
    properly or are disjoint; sorting by ``(start, -duration)`` visits
    each parent before its children and a running stack recovers the
    nesting.  Self time is a span's duration minus its direct children's
    (clamped at zero against float jitter).  Keys match the timer names
    (``category.name``) so exclusive totals line up with the inclusive
    timers in the same document.  Dropped records (``tracer.dropped``)
    make exclusive totals an over-estimate of the parents whose children
    were dropped — the text report flags that.
    """
    spans = sorted(tracer.spans, key=lambda s: (s.start, -s.duration))
    # Stack frames: [end, key, child_total, duration, path-tuple].
    stack: List[list] = []

    def pop_until(start: float):
        while stack and stack[-1][0] <= start:
            end, key, child_total, duration, path = stack.pop()
            if stack:
                stack[-1][2] += duration
            yield key, path, max(0.0, duration - child_total)

    for span in spans:
        for item in pop_until(span.start):
            yield item
        key = "%s.%s" % (span.category, span.name)
        path = tuple(frame[1] for frame in stack) + (key,)
        stack.append(
            [span.start + span.duration, key, 0.0, span.duration, path]
        )
    for item in pop_until(float("inf")):
        yield item


def exclusive_times(tracer: Tracer) -> Dict[str, float]:
    """Total exclusive (self) seconds per span name.

    Complements the inclusive per-name timers: a parent phase that looks
    expensive but whose time is entirely spent inside instrumented
    children has a self time near zero, so cost lands where it is
    incurred instead of being misattributed to the enclosing phase.
    """
    totals: Dict[str, float] = {}
    for key, _path, self_s in _walk_span_tree(tracer):
        totals[key] = totals.get(key, 0.0) + self_s
    return totals


def collapsed_stack_lines(tracer: Tracer) -> List[str]:
    """The trace in collapsed-stack format (one ``a;b;c <value>`` per line).

    Consumable by standard flamegraph tooling (Brendan Gregg's
    ``flamegraph.pl``, speedscope, inferno): frames are span names
    (``category.name``) joined by ``;``, values are exclusive time in
    integer microseconds.  Per-query spans appear when the tracer ran
    with ``trace_queries``.
    """
    weights: Dict[tuple, float] = {}
    for _key, path, self_s in _walk_span_tree(tracer):
        weights[path] = weights.get(path, 0.0) + self_s
    lines = []
    for path in sorted(weights):
        value = int(round(weights[path] * 1e6))
        if value <= 0:
            continue
        lines.append("%s %d" % (";".join(path), value))
    return lines


def write_collapsed_stack(tracer: Tracer, path: str) -> None:
    """Write the collapsed-stack export to ``path`` (``"-"`` for stdout).

    A trace with no spans (or whose spans all round to zero exclusive
    microseconds) writes an empty file, not a lone blank line — standard
    flamegraph tooling treats blank lines as malformed frames.
    """
    lines = collapsed_stack_lines(tracer)
    text = "\n".join(lines) + "\n" if lines else ""
    if path == "-":
        sys.stdout.write(text)
        return
    atomic_write_text(path, text)


def write_metrics(tracer: Tracer, path: str) -> None:
    """Write the metrics document to ``path`` (``"-"`` for stdout)."""
    text = json.dumps(metrics_document(tracer), indent=2, sort_keys=True)
    if path == "-":
        sys.stdout.write(text + "\n")
        return
    atomic_write_text(path, text + "\n")


# ----------------------------------------------------------------------
# Chrome trace_event JSON
# ----------------------------------------------------------------------
def chrome_trace_document(tracer: Tracer) -> Dict[str, object]:
    """Chrome ``trace_event`` document (Perfetto-loadable).

    Spans become complete events (``ph: "X"``), instant events become
    ``ph: "i"``; timestamps are microseconds relative to the tracer's
    epoch.  Everything runs on one pid/tid — the schedulers are
    single-threaded, and one lane keeps the Perfetto view readable.
    """
    epoch = tracer.epoch
    trace_events: List[Dict[str, object]] = []
    for record in tracer.spans:
        entry: Dict[str, object] = {
            "name": record.name,
            "cat": record.category,
            "ph": "X",
            "ts": (record.start - epoch) * 1e6,
            "dur": record.duration * 1e6,
            "pid": 1,
            "tid": 1,
        }
        if record.args:
            entry["args"] = record.args
        trace_events.append(entry)
    for record in tracer.events:
        entry = {
            "name": record.name,
            "cat": record.category,
            "ph": "i",
            "ts": (record.ts - epoch) * 1e6,
            "pid": 1,
            "tid": 1,
            "s": "t",
        }
        if record.args:
            entry["args"] = record.args
        trace_events.append(entry)
    trace_events.sort(key=lambda e: e["ts"])
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "producer": "repro.obs",
            "dropped_records": tracer.dropped,
            **{str(k): str(v) for k, v in tracer.meta.items()},
        },
    }


def write_chrome_trace(tracer: Tracer, path: str) -> None:
    document = chrome_trace_document(tracer)
    atomic_write_text(path, json.dumps(document) + "\n")


# ----------------------------------------------------------------------
# Text summary
# ----------------------------------------------------------------------
def _format_si(value: Optional[float]) -> str:
    if value is None:
        return "-"
    for bound, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if value >= bound:
            return "%.2f%s" % (value / bound, suffix)
    return "%.2f" % value


def render_text(tracer: Tracer) -> str:
    """Human-readable per-phase time/work breakdown."""
    lines: List[str] = []
    if tracer.meta:
        lines.append(
            "profile: "
            + "  ".join(
                "%s=%s" % (k, v) for k, v in sorted(tracer.meta.items())
            )
        )
        lines.append("")

    phase_timers = [
        (name, timer)
        for name, timer in sorted(tracer.metrics.timers.items())
        if not name.startswith("query.")
    ]
    if phase_timers:
        exclusive = exclusive_times(tracer)
        lines.append("phases")
        lines.append(
            "  %-36s %8s %12s %12s %12s"
            % ("span", "count", "total ms", "self ms", "mean ms")
        )
        for name, timer in phase_timers:
            self_s = exclusive.get(name)
            # Timers observed without a stored span record (dropped past
            # the cap, or metrics-only observations) have no self time.
            self_ms = "%12.3f" % (self_s * 1e3) if self_s is not None \
                else "%12s" % "-"
            lines.append(
                "  %-36s %8d %12.3f %s %12.3f"
                % (name, timer.count, timer.total * 1e3, self_ms,
                   timer.mean * 1e3)
            )
        if tracer.dropped:
            lines.append(
                "  (self times incomplete: %d records dropped)"
                % tracer.dropped
            )
        lines.append("")

    queries = query_summary(tracer)
    if queries:
        lines.append("query functions")
        lines.append(
            "  %-12s %10s %10s %10s %10s %10s %9s"
            % ("function", "calls", "wall ms", "units",
               "units/call", "units/s", "us/call")
        )
        for function, entry in queries.items():
            lines.append(
                "  %-12s %10d %10.3f %10d %10.3f %10s %9.3f"
                % (
                    function,
                    entry["calls"],
                    entry["wall_s"] * 1e3,
                    entry["units"],
                    entry["units_per_call"],
                    _format_si(entry["units_per_s"]),
                    entry["us_per_call"],
                )
            )
        lines.append("")

    interesting = [
        (name, value)
        for name, value in sorted(tracer.metrics.counters.items())
        if not name.startswith("query.")
    ]
    if interesting:
        lines.append("counters")
        for name, value in interesting:
            lines.append("  %-36s %12g" % (name, value))
        lines.append("")

    lines.append(
        "records: %d spans, %d events, %d dropped"
        % (len(tracer.spans), len(tracer.events), tracer.dropped)
    )
    return "\n".join(lines)


__all__ = [
    "METRICS_SCHEMA_NAME",
    "METRICS_SCHEMA_VERSION",
    "chrome_trace_document",
    "collapsed_stack_lines",
    "exclusive_times",
    "metrics_document",
    "query_summary",
    "render_text",
    "write_chrome_trace",
    "write_collapsed_stack",
    "write_metrics",
]
