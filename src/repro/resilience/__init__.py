"""Resilience layer: budgets, the reduction ladder, artifacts, the cache.

The paper's thesis is that a reduced machine description is only
trustworthy because it is *checked*; this package extends that stance to
runtime failure modes:

* :mod:`~repro.resilience.budget` — wall-clock deadlines and work-unit
  caps with cooperative cancellation at phase boundaries (a leaf every
  layer may import);
* :mod:`~repro.resilience.fallback` — the verified reduction ladder
  (reduced → partially-selected → original); the scheduling ladder and
  the :class:`~repro.scheduler.ladder.FallbackPolicy` both ladders read
  live in :mod:`repro.scheduler.ladder`;
* :mod:`~repro.resilience.artifacts` — crash-safe, checksummed artifact
  store with semantic (forbidden-matrix digest) self-verification;
* :mod:`~repro.resilience.reduction_cache` — digest-keyed reduction
  memo + disk cache whose hits are re-verified on load and whose
  corruption falls back to a fresh reduction.

The fault injector proving the above actually hold is
:mod:`repro.fuzz.plans` (``repro chaos <machine> --seed N``).

This init imports nothing, so importing the budget leaf never loads the
rest; import each name from the module that defines it.  See
``docs/robustness.md``.
"""
