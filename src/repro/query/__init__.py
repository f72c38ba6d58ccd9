"""Contention query modules: check / assign / assign&free / free.

Three internal representations of the partial schedule are provided — the
paper's Section 5 pair plus a compiled kernel:

* :class:`DiscreteQueryModule` — per-(resource, cycle) flag and owner
  entries; work is counted per resource usage.
* :class:`BitvectorQueryModule` — one bitvector per cycle, ``k`` packed per
  word; work is counted per non-empty word.
* :class:`CompiledQueryModule` — the whole reserved table as one big
  integer, with per-operation packed masks and pairwise (class x class)
  collision bitsets precompiled from the Step-1 forbidden latency
  matrix; batched window scans (``check_range`` / ``first_free``) cost
  one collision bitset per *live operation class placement*, not one
  table walk per window cycle.

All support arbitrary placement order, backtracking via ``assign_free``,
negative cycles (dangling block-boundary requirements), and modulo
reservation tables for software pipelining.
"""

from repro._exports import export_table

__getattr__, __dir__, __all__ = export_table(__name__, {
    "alternatives": (
        "FIRST_FIT", "LEAST_USED", "POLICIES", "ROUND_ROBIN", "order_variants",
    ),
    "base": (
        "BLAME_RESERVED", "BLAME_SELF", "Blame", "ContentionQueryModule",
        "ScheduledToken",
    ),
    "bitvector": ("BitvectorQueryModule",),
    "compiled": (
        "CompiledKernel", "CompiledQueryModule", "clear_kernel_cache",
        "compiled_kernel",
    ),
    "discrete": ("DiscreteQueryModule",),
    "predicated": ("TRUE", "PredicatedDiscreteQueryModule", "PredicateSpace"),
    "modulo": (
        "BITVECTOR", "COMPILED", "DISCRETE", "REPRESENTATIONS",
        "make_query_module",
    ),
    "work": (
        "ASSIGN", "ASSIGN_FREE", "CHECK", "CHECK_RANGE",
        "COMPILE", "FREE", "FUNCTIONS", "WorkCounters",
    ),
})
