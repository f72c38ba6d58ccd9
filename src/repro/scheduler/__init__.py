"""Schedulers driving the contention query modules.

* :class:`IterativeModuloScheduler` — Rau's software-pipelining scheduler
  (the paper's evaluation vehicle): arbitrary operation order, bounded
  backtracking via ``assign&free``.
* :class:`OperationDrivenScheduler` — critical-path-first acyclic scheduler
  in the style of the Cydra 5 compiler, with block-boundary support.
* :func:`repro.scheduler.ladder.schedule_with_fallback` — the verified
  scheduling ladder (escalating IMS, then a flat list schedule).
"""

from repro.scheduler.bundle import Bundling, InstructionWord, bundle, issue_unit
from repro.scheduler.boundaries import (
    TraceScheduleResult,
    TraceScheduler,
    dangling_requirements,
)
from repro.scheduler.corpus import (
    CorpusResult,
    CorpusScheduler,
    LoopOutcome,
    schedule_signature,
)
from repro.scheduler.ddg import Dependence, DependenceGraph, Operation, chain
from repro.scheduler.exhaustive import (
    SearchBudgetExceeded,
    find_schedule_at_ii,
    is_ii_feasible,
)
from repro.scheduler.expand import ExpandedSchedule, expand
from repro.scheduler.lifetimes import (
    ValueLifetime,
    lifetime_report,
    max_live,
    register_requirement,
    value_lifetimes,
)
from repro.scheduler import serialize
from repro.scheduler.list_scheduler import (
    BlockScheduleResult,
    OperationDrivenScheduler,
)
from repro.scheduler.mii import (
    mii_attribution,
    min_feasible_ii_for_op,
    min_ii,
    rec_mii,
    res_mii,
    res_mii_packed,
)
from repro.scheduler.modulo import (
    AttemptStats,
    IterativeModuloScheduler,
    ModuloScheduleResult,
    compute_heights,
)

__all__ = [
    "AttemptStats",
    "BlockScheduleResult",
    "Bundling",
    "CorpusResult",
    "CorpusScheduler",
    "LoopOutcome",
    "schedule_signature",
    "InstructionWord",
    "Dependence",
    "DependenceGraph",
    "ExpandedSchedule",
    "expand",
    "find_schedule_at_ii",
    "is_ii_feasible",
    "issue_unit",
    "lifetime_report",
    "max_live",
    "register_requirement",
    "serialize",
    "value_lifetimes",
    "IterativeModuloScheduler",
    "ModuloScheduleResult",
    "SearchBudgetExceeded",
    "Operation",
    "TraceScheduleResult",
    "TraceScheduler",
    "ValueLifetime",
    "OperationDrivenScheduler",
    "bundle",
    "chain",
    "compute_heights",
    "dangling_requirements",
    "mii_attribution",
    "min_feasible_ii_for_op",
    "min_ii",
    "rec_mii",
    "res_mii",
    "res_mii_packed",
]
