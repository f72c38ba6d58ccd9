"""Seeded, fully deterministic fuzzing for the reduction pipeline.

Four planes (see ``docs/fuzzing.md``):

* :mod:`repro.fuzz.mdlgen` — machine-description generator (profiles,
  machine families, seeded workloads);
* :mod:`repro.fuzz.oracle` — differential pipeline oracle classifying
  every generated machine as ``ok`` / ``handled`` / ``bug``;
* :mod:`repro.fuzz.shrink` — greedy minimizer + checksummed repro
  bundles;
* :mod:`repro.fuzz.plans` — the fault injector: seeded fault plans at
  named pipeline phases (also behind ``repro chaos``).

:func:`repro.fuzz.campaign.run_campaign` ties them together and backs
the ``repro fuzz`` CLI.
"""

from repro._exports import export_table

__getattr__, __dir__, __all__ = export_table(__name__, {
    "campaign": (
        "FUZZ_SCHEMA_NAME", "FUZZ_SCHEMA_VERSION", "machine_seed",
        "run_campaign",
    ),
    "mdlgen": (
        "FAMILIES", "GeneratorProfile", "PROFILES", "STRUCTURAL_RULES",
        "generate_machine", "generate_workload", "schedulable_opcodes",
    ),
    "oracle": (
        "OracleConfig", "OracleOutcome", "VERDICTS", "VERDICT_BUG",
        "VERDICT_HANDLED", "VERDICT_OK", "run_oracle",
    ),
    "plans": (
        "FaultPlan", "PHASES", "PlanReport", "PlanStep", "compose_plan",
        "run_plan",
    ),
    "shrink": (
        "ShrinkResult", "load_repro_bundle", "shrink", "write_repro_bundle",
    ),
})
