"""Text rendering for benchmark results and comparison verdicts.

JSON output is the documents' own ``to_dict()``; this module owns the
human-facing views printed by ``repro bench run | compare | report``.
"""

from __future__ import annotations

from typing import List

from repro.bench.compare import Comparison, MetricDelta
from repro.bench.result import BenchResult


def _meta_line(result: BenchResult) -> str:
    meta = result.meta
    parts = []
    sha = meta.get("git_sha")
    parts.append("sha=%s" % (str(sha)[:12] if sha else "unknown"))
    for key in ("label", "recorded_at", "python"):
        if meta.get(key):
            parts.append("%s=%s" % (key, meta[key]))
    return "  ".join(parts)


def render_result_text(result: BenchResult) -> str:
    """One run: per-case work units and schedule quality."""
    lines: List[str] = []
    lines.append("benchmark run  %s" % _meta_line(result))
    config = result.config
    lines.append(
        "config: loops=%s reduced=%s"
        % (config.get("loops"), config.get("schedule_reduced"))
    )
    lines.append("")
    lines.append(
        "  %-28s %12s %8s %10s" % ("case", "query units", "at MII", "II/MII")
    )
    for key in sorted(result.cases):
        case = result.cases[key]
        units = sum(
            value for name, value in case.work.items()
            if name.startswith("query.") and name.endswith(".units")
        )
        quality = case.quality
        lines.append(
            "  %-28s %12d %8s %10s"
            % (
                key,
                units,
                "%d/%d" % (
                    quality.get("loops_at_mii", 0), quality.get("loops", 0)
                ),
                "%d/%d" % (
                    quality.get("ii_total", 0), quality.get("mii_total", 0)
                ),
            )
        )
    return "\n".join(lines) + "\n"


def _delta_line(delta: MetricDelta) -> str:
    ratio = delta.ratio
    ratio_text = " (x%.3f)" % ratio if ratio is not None else ""
    note = "  — %s" % delta.note if delta.note else ""
    return "  %-12s %-28s %-28s %s -> %s%s%s" % (
        delta.classification.upper(),
        delta.case,
        delta.metric,
        "%g" % delta.base if delta.base is not None else "-",
        "%g" % delta.new if delta.new is not None else "-",
        ratio_text,
        note,
    )


def render_comparison_text(
    comparison: Comparison, verbose: bool = False
) -> str:
    """The comparison verdict: gate result, then the interesting deltas.

    A verbose render also lists every neutral and one-sided delta.
    """
    lines: List[str] = []
    lines.append(
        "verdict: %s  (%d gated regression(s), %d improvement(s),"
        " %d metric(s) compared)"
        % (
            "OK" if comparison.ok else "REGRESSION",
            len(comparison.regressions),
            len(comparison.improvements),
            len(comparison.deltas),
        )
    )
    for note in comparison.notes:
        lines.append("note: %s" % note)
    lines.append("")

    regressions = comparison.regressions
    if regressions:
        lines.append("gated regressions")
        for delta in regressions:
            lines.append(_delta_line(delta))
        lines.append("")
    if comparison.improvements:
        lines.append("improvements")
        for delta in comparison.improvements:
            lines.append(_delta_line(delta))
        lines.append("")
    if verbose:
        neutral = [
            d for d in comparison.deltas
            if d.classification not in ("regression", "improvement")
        ]
        if neutral:
            lines.append("neutral / unclassified")
            for delta in neutral:
                lines.append(_delta_line(delta))
            lines.append("")
    return "\n".join(lines).rstrip() + "\n"


__all__ = ["render_comparison_text", "render_result_text"]
