"""Observability: spans, counters, events, and exporters (``repro.obs``).

The measurement substrate for every performance claim in this repo.  A
process-global :class:`~repro.obs.trace.Tracer` can be activated around
any workload; the reduction pipeline, both schedulers, and the
contention query modules emit spans/events/counters into it, and
:mod:`repro.obs.export` renders the result (text summary,
schema-versioned metrics JSON, Chrome ``trace_event`` JSON for
Perfetto).  With no tracer active every instrumentation site is a single
``None`` check — see ``docs/observability.md`` and
``tests/test_obs_overhead.py``.

The package spans two layers (``docs/architecture.md``, "Layers"):

* leaves every layer may import — :mod:`repro.obs.trace` and
  :mod:`repro.obs.metrics`;
* consumers above the scheduler — :mod:`repro.obs.export`,
  :mod:`repro.obs.provenance`, :mod:`repro.obs.profile` (the
  ``repro profile`` pipeline), the append-only run registry
  :mod:`repro.obs.runlog` and the sampling profiler
  :mod:`repro.obs.sampler` (``docs/runs.md``).

This init imports nothing, so importing a leaf never loads the
consumers; import each name from the module that defines it.
"""
