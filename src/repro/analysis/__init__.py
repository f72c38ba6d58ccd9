"""Analysis utilities: redundancy pruning, reports, and exporters."""

from repro._exports import export_table

__getattr__, __dir__, __all__ = export_table(__name__, {
    "explain": (
        "EXPLAIN_SCHEMA_NAME", "EXPLAIN_SCHEMA_VERSION",
        "build_explain_report", "explain_loop", "render_explain_html",
        "render_explain_text", "validate_explain_report",
    ),
    "export": ("graph_to_dot", "machine_to_markdown"),
    "gantt": ("has_collision", "occupancy_chart"),
    "ii_sweep": ("SweepPoint", "ii_sweep", "sweep_report"),
    "utilization": (
        "ResourceUtilization", "bottlenecks", "utilization",
        "utilization_report",
    ),
    "redundancy": (
        "drop_resources", "manually_optimize", "redundant_resources",
    ),
    "report": ("describe_machine", "describe_reduction", "diff_constraints"),
})
