"""The benchmark observatory (``repro.bench``).

Layered on :mod:`repro.obs`, this package is the deterministic work
gate: schema-versioned result documents (``repro-bench-result`` v1)
recording, per machine × query-representation case, the work counters
and schedule quality of one traced pass, and an exact comparator that
``repro runs diff`` shares.  Wall time is measured by the untraced
``benchmarks/e2e`` harness, not here.  Driven by ``repro bench run |
compare | report`` — see ``docs/benchmarking.md``.

Like :mod:`repro.obs`, the package root stays clear of the scheduler
stack: the runner (which executes the full reduce + schedule pipeline)
lives in :mod:`repro.bench.runner` and is imported on demand.
"""

from repro._exports import export_table

__getattr__, __dir__, __all__ = export_table(__name__, {
    "compare": (
        "IMPROVEMENT", "MISSING_BASE", "MISSING_NEW", "NEUTRAL", "REGRESSION",
        "Comparison", "MetricDelta", "compare_metric_maps", "compare_results",
        "ensure_comparable",
    ),
    "report": ("render_comparison_text", "render_result_text"),
    "result": (
        "RESULT_SCHEMA_NAME", "RESULT_SCHEMA_VERSION", "BenchCase",
        "BenchResult", "default_meta", "git_sha", "load_result", "save_result",
    ),
})
