"""Schedulers driving the contention query modules.

* :class:`IterativeModuloScheduler` — Rau's software-pipelining scheduler
  (the paper's evaluation vehicle): arbitrary operation order, bounded
  backtracking via ``assign&free``.
* :class:`OperationDrivenScheduler` — critical-path-first acyclic scheduler
  in the style of the Cydra 5 compiler, with block-boundary support.
* :func:`repro.scheduler.ladder.schedule_with_fallback` — the verified
  scheduling ladder (escalating IMS, then a flat list schedule).
"""

from repro._exports import export_table

__getattr__, __dir__, __all__ = export_table(__name__, {
    "boundaries": (
        "TraceScheduleResult", "TraceScheduler", "dangling_requirements",
    ),
    "corpus": (
        "CorpusResult", "CorpusScheduler", "LoopOutcome", "schedule_signature",
    ),
    "ddg": ("Dependence", "DependenceGraph", "Operation", "chain"),
    "exhaustive": (
        "SearchBudgetExceeded", "find_schedule_at_ii", "is_ii_feasible",
    ),
    "expand": ("ExpandedSchedule", "expand"),
    "lifetimes": (
        "ValueLifetime", "lifetime_report", "max_live", "register_requirement",
        "value_lifetimes",
    ),
    "list_scheduler": ("BlockScheduleResult", "OperationDrivenScheduler"),
    "mii": (
        "mii_attribution", "min_feasible_ii_for_op", "min_ii", "rec_mii",
        "res_mii",
    ),
    "modulo": (
        "AttemptStats", "IterativeModuloScheduler", "ModuloScheduleResult",
        "compute_heights", "find_blame",
    ),
})
