"""Static analysis over machine descriptions (``repro lint``).

The paper's criterion (Section 3) — a description is characterized
exactly by the forbidden-latency matrix it induces — makes machine
descriptions *machine-checkable*: redundancy, collapsibility,
non-maximality, and equivalence against a reference are all decidable
properties of that matrix.  This package turns those properties into a
rule-based linter with structured diagnostics:

* :mod:`repro.lint.diagnostics` — :class:`Diagnostic`, :class:`Location`,
  :class:`LintReport` (text and stable-JSON rendering);
* :mod:`repro.lint.registry` — the pluggable rule registry
  (:func:`rule`, :func:`registered_rules`) and the drivers
  (:func:`lint_machine`, :func:`lint_source`);
* :mod:`repro.lint.rules` — the built-in machine-plane rules (see
  ``docs/lint.md`` for the rule reference with paper citations);
* :mod:`repro.lint.code` — the code-plane rules (``repro lint --code``)
  auditing the implementation itself for determinism, work accounting,
  and budget/robustness invariants;
* :mod:`repro.lint.baseline` — suppression files for adopting the
  linter over descriptions (or source trees) with known findings.
"""

from repro._exports import export_table

__getattr__, __dir__, __all__ = export_table(__name__, {
    "baseline": ("Baseline", "write_baseline"),
    "code": ("CODE_REPORT_NAME", "CodeContext", "lint_code_paths"),
    "diagnostics": (
        "REPORT_SCHEMA_VERSION", "SEVERITIES", "Diagnostic", "LintReport",
        "Location", "severity_rank",
    ),
    "registry": (
        "LintContext", "LintRule", "finding", "get_rules", "lint_machine",
        "lint_source", "registered_rules", "rule",
    ),
})
