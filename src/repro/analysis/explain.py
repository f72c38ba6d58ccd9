"""Schedule explanation reports (``repro explain``).

Answers the question benchmarks cannot: *why* did a loop schedule at
the II it did?  For every loop the builder

* attributes MII to its binding constraint
  (:func:`~repro.scheduler.mii.mii_attribution` — recurrence, a
  saturated resource, or an opcode's self-forbidden latencies),
* replays the iterative modulo scheduler under a tracer, whose events
  carry every scheduling decision, and
* rolls the decision records up into per-II failure narratives,
  per-resource pressure histograms, and blame counts
  (:mod:`repro.obs.provenance`).

The result is one schema-versioned document, ``repro-explain-report``
v1, rendered as text, JSON, or a self-contained HTML page whose MRT
occupancy charts come from :func:`~repro.analysis.gantt.occupancy_chart`.
"""

from __future__ import annotations

import html as _html
from typing import Dict, List, Optional, Sequence

from repro.analysis.gantt import occupancy_chart
from repro.core.machine import MachineDescription
from repro.errors import ScheduleError
from repro.obs import provenance, trace
from repro.scheduler.ddg import DependenceGraph
from repro.scheduler.mii import mii_attribution
from repro.scheduler.modulo import IterativeModuloScheduler

EXPLAIN_SCHEMA_NAME = "repro-explain-report"
EXPLAIN_SCHEMA_VERSION = 1

#: Decision records kept per failed loop in the report (newest last).
TAIL_LIMIT = 20


def _describe_pin(pinned: Dict[str, object]) -> str:
    """One sentence naming the MII-binding constraint."""
    kind = pinned.get("kind")
    if kind == "recurrence":
        return "pinned by a dependence recurrence (RecMII=%s)" % (
            pinned.get("rec_mii"),
        )
    if kind == "resource":
        return "pinned by resource %s (%s usages/iteration)" % (
            pinned.get("resource"), pinned.get("usages"),
        )
    return "pinned by self-contention of %s (min feasible II=%s)" % (
        pinned.get("opcode"), pinned.get("min_ii"),
    )


def explain_loop(
    machine: MachineDescription,
    graph: DependenceGraph,
    representation: Optional[str] = None,
    word_cycles: int = 1,
) -> Dict[str, object]:
    """Explain one loop: MII attribution plus a replayed schedule.

    The replay runs under its own tracer and folds that tracer's
    decision events, so the entry never depends on an outer tracer; an
    outer one gets the replay's metrics and records merged in afterwards
    (:meth:`~repro.obs.trace.Tracer.merge`), as if it had traced the
    replay itself.  Scheduler failure is part of the story, not an
    error: the entry carries ``succeeded: false``, the raise's message,
    and the last decisions before it (``decision_tail``).
    """
    kwargs = {}
    if representation is not None:
        kwargs["representation"] = representation
        kwargs["word_cycles"] = word_cycles
    scheduler = IterativeModuloScheduler(machine, **kwargs)
    entry: Dict[str, object] = {
        "loop": graph.name,
        "ops": graph.num_operations,
    }
    try:
        mii_info = mii_attribution(machine, graph)
    except ScheduleError as exc:
        # The graph itself is unschedulable (e.g. a zero-distance
        # dependence cycle): no MII exists, but the report still gets a
        # failure entry instead of aborting the whole document.
        entry.update(
            mii={
                "mii": None,
                "res_mii": None,
                "rec_mii": None,
                "pinned_by": {"kind": "invalid"},
            },
            mii_narrative="MII undefined: %s" % exc,
            succeeded=False,
            ii=None,
            optimal=False,
            error=str(exc),
            decision_tail=[],
            records=0,
            attempts=[],
            narrative=[],
            pressure={},
            blame={},
            evictions={},
        )
        return entry
    entry.update(
        mii=mii_info,
        mii_narrative=_describe_pin(mii_info["pinned_by"]),
    )
    outer = trace.current()
    replay = trace.Tracer(
        trace_queries=outer is not None and outer.trace_queries
    )
    with trace.tracing(replay):
        try:
            result = scheduler.schedule(graph)
        except ScheduleError as exc:
            entry.update(
                succeeded=False,
                ii=None,
                optimal=False,
                error=str(exc),
            )
        else:
            entry.update(
                succeeded=True,
                ii=result.ii,
                optimal=result.optimal,
                decisions_per_op=round(result.decisions_per_op, 2),
                placements=[
                    [name, result.chosen_opcodes[name], time]
                    for name, time in sorted(result.times.items())
                ],
            )
    if outer is not None:
        outer.merge(replay)
    records = provenance.decision_records(replay.events)
    if not entry["succeeded"]:
        entry["decision_tail"] = records[-TAIL_LIMIT:]
    rollup = provenance.summarize(records)
    entry.update(
        records=rollup["records"],
        attempts=rollup["attempts"],
        narrative=rollup["narrative"],
        pressure=rollup["pressure"],
        blame=rollup["blame"],
        evictions=rollup["evictions"],
    )
    return entry


def build_explain_report(
    machine: MachineDescription,
    graphs: Sequence[DependenceGraph],
    representation: Optional[str] = None,
    word_cycles: int = 1,
) -> Dict[str, object]:
    """The full ``repro-explain-report`` v1 document for ``graphs``."""
    loops = [
        explain_loop(
            machine, graph,
            representation=representation, word_cycles=word_cycles,
        )
        for graph in graphs
    ]
    scheduled = [e for e in loops if e["succeeded"]]
    return {
        "schema": {
            "name": EXPLAIN_SCHEMA_NAME,
            "version": EXPLAIN_SCHEMA_VERSION,
        },
        "machine": machine.name,
        "representation": representation,
        "loops": loops,
        "summary": {
            "loops": len(loops),
            "scheduled": len(scheduled),
            "optimal": sum(1 for e in scheduled if e["optimal"]),
            "failed": len(loops) - len(scheduled),
        },
    }


def validate_explain_report(document: Dict[str, object]) -> None:
    """Raise ``ValueError`` unless ``document`` is a v1 explain report."""
    schema = document.get("schema")
    if not isinstance(schema, dict) or (
        schema.get("name") != EXPLAIN_SCHEMA_NAME
        or schema.get("version") != EXPLAIN_SCHEMA_VERSION
    ):
        raise ValueError(
            "not a %s v%d document: schema=%r"
            % (EXPLAIN_SCHEMA_NAME, EXPLAIN_SCHEMA_VERSION, schema)
        )
    for key in ("machine", "loops", "summary"):
        if key not in document:
            raise ValueError("explain report missing %r" % key)
    for entry in document["loops"]:
        for key in ("loop", "mii", "succeeded", "attempts", "narrative"):
            if key not in entry:
                raise ValueError("explain loop entry missing %r" % key)


def _loop_chart(
    machine: MachineDescription, entry: Dict[str, object]
) -> Optional[str]:
    """MRT occupancy chart of a scheduled loop, or ``None``."""
    if not entry.get("succeeded") or not entry.get("placements"):
        return None
    placements = [
        (opcode, time) for _name, opcode, time in entry["placements"]
    ]
    return occupancy_chart(machine, placements, modulo=entry["ii"])


def render_explain_text(
    document: Dict[str, object],
    machine: Optional[MachineDescription] = None,
) -> str:
    """Terminal rendering; passing ``machine`` adds MRT charts."""
    lines: List[str] = []
    summary = document["summary"]
    lines.append(
        "explain: %s — %d loops, %d at MII, %d failed"
        % (
            document["machine"], summary["loops"],
            summary["optimal"], summary["failed"],
        )
    )
    for entry in document["loops"]:
        mii = entry["mii"]
        lines.append("")
        lines.append(
            "%s (%d ops): MII=%s (ResMII=%s, RecMII=%s), %s"
            % (
                entry["loop"], entry["ops"], mii["mii"],
                mii["res_mii"], mii["rec_mii"], entry["mii_narrative"],
            )
        )
        for sentence in entry["narrative"]:
            lines.append("  " + sentence)
        if entry["succeeded"]:
            lines.append(
                "  scheduled at II=%d%s"
                % (entry["ii"], " (optimal)" if entry["optimal"] else "")
            )
        else:
            lines.append("  FAILED: %s" % entry["error"])
        top_blame = list(entry["blame"].items())[:3]
        if top_blame:
            lines.append(
                "  most-blamed resources: "
                + ", ".join(
                    "%s x%d (%s)"
                    % (
                        resource, count,
                        provenance.format_cycle_ranges(
                            int(c) for c in entry["pressure"].get(resource, {})
                        ),
                    )
                    for resource, count in top_blame
                )
            )
        if machine is not None:
            chart = _loop_chart(machine, entry)
            if chart is not None:
                lines.append("")
                lines.extend("  " + row for row in chart.splitlines())
    return "\n".join(lines)


def render_explain_html(
    document: Dict[str, object],
    machine: Optional[MachineDescription] = None,
) -> str:
    """Self-contained HTML page: narratives, blame tables, MRT charts."""
    esc = _html.escape
    summary = document["summary"]
    parts: List[str] = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'>",
        "<title>repro explain — %s</title>" % esc(str(document["machine"])),
        "<style>",
        "body{font-family:sans-serif;margin:2em;max-width:70em}",
        "pre{background:#f4f4f4;padding:.8em;overflow-x:auto}",
        "table{border-collapse:collapse;margin:.5em 0}",
        "td,th{border:1px solid #999;padding:.2em .6em;text-align:left}",
        ".fail{color:#a00}.ok{color:#070}",
        "</style></head><body>",
        "<h1>repro explain — %s</h1>" % esc(str(document["machine"])),
        "<p>%d loops, %d scheduled, %d at MII, %d failed.</p>"
        % (
            summary["loops"], summary["scheduled"],
            summary["optimal"], summary["failed"],
        ),
    ]
    for entry in document["loops"]:
        mii = entry["mii"]
        parts.append("<h2>%s</h2>" % esc(str(entry["loop"])))
        parts.append(
            "<p>%d ops — MII=%s (ResMII=%s, RecMII=%s), %s.</p>"
            % (
                entry["ops"], mii["mii"], mii["res_mii"],
                mii["rec_mii"], esc(str(entry["mii_narrative"])),
            )
        )
        if entry["succeeded"]:
            parts.append(
                "<p class='ok'>scheduled at II=%d%s</p>"
                % (entry["ii"], " (optimal)" if entry["optimal"] else "")
            )
        else:
            parts.append(
                "<p class='fail'>FAILED: %s</p>" % esc(str(entry["error"]))
            )
        if entry["narrative"]:
            parts.append("<ul>")
            parts.extend(
                "<li>%s</li>" % esc(str(s)) for s in entry["narrative"]
            )
            parts.append("</ul>")
        if entry["blame"]:
            parts.append(
                "<table><tr><th>resource</th><th>blamed</th>"
                "<th>saturated</th></tr>"
            )
            for resource, count in list(entry["blame"].items())[:10]:
                cycles = provenance.format_cycle_ranges(
                    int(c) for c in entry["pressure"].get(resource, {})
                )
                parts.append(
                    "<tr><td>%s</td><td>%d</td><td>%s</td></tr>"
                    % (esc(str(resource)), count, esc(cycles))
                )
            parts.append("</table>")
        if machine is not None:
            chart = _loop_chart(machine, entry)
            if chart is not None:
                parts.append("<pre>%s</pre>" % esc(chart))
    parts.append("</body></html>")
    return "\n".join(parts)


__all__ = [
    "EXPLAIN_SCHEMA_NAME",
    "EXPLAIN_SCHEMA_VERSION",
    "build_explain_report",
    "explain_loop",
    "render_explain_html",
    "render_explain_text",
    "validate_explain_report",
]
