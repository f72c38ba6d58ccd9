"""The schema-versioned benchmark result store (``repro-bench-result`` v1).

One :class:`BenchResult` records everything a later comparison needs,
per ``machine/representation`` case:

* **work** — deterministic work-unit and event counters (the
  :class:`~repro.query.work.WorkCounters` currency plus Algorithm 1 rule
  firings, scheduling decisions, ...), exact on the same commit.
* **quality** — schedule quality: loops at MII, total achieved II vs the
  total MII lower bound.

Documents written before the runner took one pass per case also carry
``wall``, ``phases`` and ``nondeterministic`` per case; the reader
ignores them, so those documents still load and compare.

Results round-trip through the crash-safe artifact store
(:mod:`repro.resilience.artifacts`): atomic writes plus a SHA-256
sidecar, so a corrupted baseline fails loudly instead of gating wrongly.
Documents without a sidecar (e.g. downloaded CI artifacts) still load.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import BenchFormatError
from repro.resilience import artifacts

RESULT_SCHEMA_NAME = "repro-bench-result"
RESULT_SCHEMA_VERSION = 1


def git_sha(cwd: Optional[str] = None) -> Optional[str]:
    """The current git commit SHA, or ``None`` outside a checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=cwd,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


@dataclass
class BenchCase:
    """One cell of the machine × query-representation matrix."""

    machine: str
    representation: str
    #: Deterministic counters: ``query.<fn>.units``, ``query.<fn>.calls``,
    #: Algorithm 1 rules, scheduling decisions, ...
    work: Dict[str, float] = field(default_factory=dict)
    #: ``loops`` / ``loops_at_mii`` / ``ii_total`` / ``mii_total`` /
    #: ``mii_gap``.
    quality: Dict[str, float] = field(default_factory=dict)

    @property
    def key(self) -> str:
        return "%s/%s" % (self.machine, self.representation)

    def to_dict(self) -> Dict[str, object]:
        return {
            "machine": self.machine,
            "representation": self.representation,
            "work": dict(sorted(self.work.items())),
            "quality": dict(sorted(self.quality.items())),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "BenchCase":
        if not isinstance(data, dict):
            raise BenchFormatError(
                "benchmark case must be an object, got %s"
                % type(data).__name__
            )
        return cls(
            machine=str(data.get("machine", "?")),
            representation=str(data.get("representation", "?")),
            work=dict(data.get("work") or {}),
            quality=dict(data.get("quality") or {}),
        )


@dataclass
class BenchResult:
    """One benchmark run: metadata, configuration, and the case matrix."""

    meta: Dict[str, object] = field(default_factory=dict)
    config: Dict[str, object] = field(default_factory=dict)
    cases: Dict[str, BenchCase] = field(default_factory=dict)

    def add_case(self, case: BenchCase) -> None:
        self.cases[case.key] = case

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": RESULT_SCHEMA_NAME,
            "version": RESULT_SCHEMA_VERSION,
            "meta": dict(self.meta),
            "config": dict(self.config),
            "cases": {
                key: self.cases[key].to_dict()
                for key in sorted(self.cases)
            },
        }

    @classmethod
    def from_dict(
        cls, data: object, path: Optional[str] = None
    ) -> "BenchResult":
        """Parse and schema-validate a stored result document."""
        expected = "%s v%d" % (RESULT_SCHEMA_NAME, RESULT_SCHEMA_VERSION)
        if not isinstance(data, dict):
            raise BenchFormatError(
                "benchmark result%s is not a JSON object"
                % (" %r" % path if path else ""),
                path=path, expected=expected,
                actual=type(data).__name__,
            )
        actual = "%s v%s" % (data.get("schema"), data.get("version"))
        if data.get("schema") != RESULT_SCHEMA_NAME or (
            data.get("version") != RESULT_SCHEMA_VERSION
        ):
            raise BenchFormatError(
                "benchmark result%s has schema %s, expected %s — rerun"
                " `repro bench run` to refresh it"
                % (" %r" % path if path else "", actual, expected),
                path=path, expected=expected, actual=actual,
            )
        cases_data = data.get("cases")
        if not isinstance(cases_data, dict):
            raise BenchFormatError(
                "benchmark result%s has no cases object"
                % (" %r" % path if path else ""),
                path=path, expected=expected, actual=actual,
            )
        result = cls(
            meta=dict(data.get("meta") or {}),
            config=dict(data.get("config") or {}),
        )
        for key in sorted(cases_data):
            case = BenchCase.from_dict(cases_data[key])
            result.cases[key] = case
        return result


def default_meta(label: str = "") -> Dict[str, object]:
    """Environment metadata recorded with every run."""
    import platform

    meta: Dict[str, object] = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    if label:
        meta["label"] = label
    return meta


def save_result(path: str, result: BenchResult) -> None:
    """Write a result as a checksummed artifact (atomic + sidecar)."""
    artifacts.write_json(path, result.to_dict(), kind="bench-result")


def load_result(path: str) -> BenchResult:
    """Load a stored result, verifying its checksum when a sidecar exists.

    An :class:`~repro.errors.ArtifactIntegrityError` means bit rot or a
    half-refreshed baseline; a :class:`~repro.errors.BenchFormatError`
    means a schema mismatch.  Sidecar-less documents (CI downloads,
    hand-built fixtures) load without integrity verification.
    """
    if artifacts.has_sidecar(path):
        text, _header = artifacts.read_artifact(
            path, expect_kind="bench-result"
        )
    else:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise BenchFormatError(
                "cannot read benchmark result %r: %s" % (path, exc),
                path=path,
            ) from exc
    try:
        document = json.loads(text)
    except ValueError as exc:
        raise BenchFormatError(
            "benchmark result %r is not valid JSON: %s" % (path, exc),
            path=path,
        ) from exc
    return BenchResult.from_dict(document, path=os.fspath(path))


__all__ = [
    "RESULT_SCHEMA_NAME",
    "RESULT_SCHEMA_VERSION",
    "BenchCase",
    "BenchResult",
    "default_meta",
    "git_sha",
    "load_result",
    "save_result",
]
