"""Analysis utilities: redundancy pruning, reports, explain reports and
occupancy charts."""

from repro._exports import export_table

__getattr__, __dir__, __all__ = export_table(__name__, {
    "explain": (
        "EXPLAIN_SCHEMA_NAME", "EXPLAIN_SCHEMA_VERSION",
        "build_explain_report", "explain_loop", "render_explain_html",
        "render_explain_text", "validate_explain_report",
    ),
    "gantt": ("has_collision", "occupancy_chart"),
    "redundancy": (
        "drop_resources", "manually_optimize", "redundant_resources",
    ),
    "report": ("describe_machine", "describe_reduction", "diff_constraints"),
})
