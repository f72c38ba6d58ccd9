"""The persistent run registry (``repro-runlog-record`` v1).

Every CLI invocation run with ``--runlog DIR`` (or ``REPRO_RUNLOG`` in
the environment) appends one schema-versioned, checksummed record to the
registry: what ran (command, argument digest, machine/workload
identity), how it ended (outcome, exit code, fallback rung served,
budget consumption), and what it measured: the summed
:class:`~repro.query.work.WorkCounters` of the schedules the command
ran, by currency, plus schedule quality.  The command's own results
supply both, so recording starts no tracer.  Where a ``BENCH_*.json``
file is one deliberate snapshot, the runlog is the *longitudinal*
record: ``repro runs trend`` gates the oldest against the newest record
of each repeated invocation.

Crash safety follows the artifact store's discipline, one granularity
down: each record is its *own* file, written atomically via
:mod:`repro._atomic` with an embedded SHA-256 over its canonical
payload.  Appending never rewrites existing records, a torn process
leaves either a complete record or none, and a corrupt record is
reported structurally (:attr:`RunRecord.corrupt`) instead of poisoning
the registry.  The clock is injectable (``REPRO_RUNLOG_CLOCK`` pins it
from the environment) so tests and the fuzz no-wall-clock rule get
byte-identical records.

See ``docs/runs.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro._atomic import atomic_write_text
from repro.errors import RunlogError

RUNLOG_SCHEMA_NAME = "repro-runlog-record"
RUNLOG_SCHEMA_VERSION = 1

#: Environment variable naming the default registry directory.
ENV_RUNLOG = "REPRO_RUNLOG"
#: Environment variable pinning the registry clock to a fixed value —
#: the injectable-clock hook for byte-identical CI re-runs and the fuzz
#: suite's no-wall-clock rule.
ENV_RUNLOG_CLOCK = "REPRO_RUNLOG_CLOCK"

_RECORD_RE = re.compile(r"^run-(\d{8})-([0-9a-f]{8})\.json$")


def record_digest(record: Dict[str, object]) -> str:
    """SHA-256 over the record's canonical payload (``sha256`` excluded)."""
    payload = {k: v for k, v in record.items() if k != "sha256"}
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def args_digest(arguments: Dict[str, object]) -> str:
    """Stable 16-hex digest of a command's argument namespace.

    Non-JSON values (callables, objects) degrade to their ``repr`` type
    name so the digest stays deterministic across processes.
    """

    def scrub(value: object) -> object:
        if isinstance(value, (str, int, float, bool)) or value is None:
            return value
        if isinstance(value, (list, tuple)):
            return [scrub(v) for v in value]
        if isinstance(value, dict):
            return {str(k): scrub(v) for k, v in sorted(value.items())}
        return type(value).__name__
    canonical = json.dumps(
        scrub(dict(arguments)), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def default_clock() -> Callable[[], float]:
    """The registry clock: ``time.time`` unless the environment pins it."""
    pinned = os.environ.get(ENV_RUNLOG_CLOCK)
    if pinned is None:
        return time.time
    try:
        value = float(pinned)
    except ValueError:
        raise RunlogError(
            "%s must be a number, got %r" % (ENV_RUNLOG_CLOCK, pinned)
        )
    return lambda: value


@dataclass
class RunRecord:
    """One loaded registry record (possibly corrupt)."""

    seq: int
    path: str
    data: Dict[str, object] = field(default_factory=dict)
    corrupt: bool = False
    error: str = ""

    @property
    def command(self) -> str:
        return str(self.data.get("command", "?"))

    @property
    def outcome(self) -> str:
        return str(self.data.get("outcome", "?"))

    def units(self) -> Dict[str, float]:
        work = self.data.get("work") or {}
        units = work.get("units") if isinstance(work, dict) else {}
        return dict(units) if isinstance(units, dict) else {}

    def calls(self) -> Dict[str, float]:
        work = self.data.get("work") or {}
        calls = work.get("calls") if isinstance(work, dict) else {}
        return dict(calls) if isinstance(calls, dict) else {}

    def quality(self) -> Dict[str, float]:
        quality = self.data.get("quality") or {}
        return dict(quality) if isinstance(quality, dict) else {}


class RunRecorder:
    """Accumulates one invocation's observations into a record.

    The CLI creates one recorder per command when the runlog is enabled;
    command bodies contribute what their results hold (machine, workload,
    work counters, quality, rung) through
    :func:`repro.commands.common.record_run`, and ``main()`` finalizes
    with the outcome and appends.  All merges are additive and
    order-independent so a command can contribute per-loop results
    incrementally.
    """

    def __init__(
        self,
        command: str,
        arguments: Optional[Dict[str, object]] = None,
        clock: Optional[Callable[[], float]] = None,
    ):
        self.command = command
        self.argv_digest = args_digest(arguments or {})
        self._clock = clock if clock is not None else default_clock()
        self._started = self._clock()
        self.fields: Dict[str, object] = {}
        self.units: Dict[str, float] = {}
        self.calls: Dict[str, float] = {}
        self.quality: Dict[str, float] = {}

    def note(self, **fields: object) -> None:
        """Set free-form envelope fields (machine, workload, rung, ...)."""
        self.fields.update(fields)

    def add_work(self, work) -> None:
        """Merge a :class:`~repro.query.work.WorkCounters` snapshot."""
        for currency, value in work.units.items():
            self.units[currency] = self.units.get(currency, 0) + value
        for currency, value in work.calls.items():
            self.calls[currency] = self.calls.get(currency, 0) + value

    def merge_quality(self, quality: Dict[str, float]) -> None:
        for key, value in quality.items():
            self.quality[key] = self.quality.get(key, 0) + value

    def finalize(self, outcome: str, exit_code: int) -> Dict[str, object]:
        """The finished record payload (checksum added on append)."""
        now = self._clock()
        record: Dict[str, object] = {
            "schema": RUNLOG_SCHEMA_NAME,
            "version": RUNLOG_SCHEMA_VERSION,
            "command": self.command,
            "argv_digest": self.argv_digest,
            "ts": self._started,
            "duration_s": max(0.0, now - self._started),
            "outcome": outcome,
            "exit_code": exit_code,
        }
        for key, value in sorted(self.fields.items()):
            record[key] = value
        record["work"] = {
            "units": dict(sorted(self.units.items())),
            "calls": dict(sorted(self.calls.items())),
        }
        if self.quality:
            quality = dict(sorted(self.quality.items()))
            if "ii_total" in quality and "mii_total" in quality and (
                "mii_gap" not in quality
            ):
                quality["mii_gap"] = (
                    quality["ii_total"] - quality["mii_total"]
                )
            record["quality"] = quality
        return record


class RunLog:
    """The append-only registry over one directory."""

    def __init__(self, directory: str,
                 clock: Optional[Callable[[], float]] = None):
        self.directory = directory
        self._clock = clock if clock is not None else default_clock()

    # -- writing -------------------------------------------------------
    def _record_files(self) -> List[Tuple[int, str]]:
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        found = []
        for name in names:
            match = _RECORD_RE.match(name)
            if match:
                found.append(
                    (int(match.group(1)),
                     os.path.join(self.directory, name))
                )
        return sorted(found)

    def next_seq(self) -> int:
        files = self._record_files()
        return files[-1][0] + 1 if files else 1

    def append(self, record: Dict[str, object]) -> str:
        """Atomically write ``record`` as the next registry file.

        The record gains ``seq`` and its content checksum; existing
        records are never touched.  Returns the new record's path.
        """
        os.makedirs(self.directory, exist_ok=True)
        payload = dict(record)
        payload.setdefault("schema", RUNLOG_SCHEMA_NAME)
        payload.setdefault("version", RUNLOG_SCHEMA_VERSION)
        payload["seq"] = self.next_seq()
        digest = record_digest(payload)
        payload["sha256"] = digest
        path = os.path.join(
            self.directory,
            "run-%08d-%s.json" % (payload["seq"], digest[:8]),
        )
        atomic_write_text(
            path,
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
        )
        return path

    # -- reading -------------------------------------------------------
    def _load(self, seq: int, path: str) -> RunRecord:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, UnicodeDecodeError, ValueError) as exc:
            return RunRecord(
                seq=seq, path=path, corrupt=True,
                error="unreadable record: %s" % exc,
            )
        if not isinstance(data, dict):
            return RunRecord(
                seq=seq, path=path, corrupt=True,
                error="record is not a JSON object",
            )
        if data.get("schema") != RUNLOG_SCHEMA_NAME or (
            data.get("version") != RUNLOG_SCHEMA_VERSION
        ):
            return RunRecord(
                seq=seq, path=path, data=data, corrupt=True,
                error="schema %r v%r, expected %s v%d" % (
                    data.get("schema"), data.get("version"),
                    RUNLOG_SCHEMA_NAME, RUNLOG_SCHEMA_VERSION,
                ),
            )
        expected = data.get("sha256")
        actual = record_digest(data)
        if actual != expected:
            return RunRecord(
                seq=seq, path=path, data=data, corrupt=True,
                error="checksum mismatch (expected %s, actual %s)"
                % (expected, actual),
            )
        return RunRecord(seq=seq, path=path, data=data)

    def records(self, include_corrupt: bool = True) -> List[RunRecord]:
        """All records in sequence order; corrupt ones flagged, not raised."""
        loaded = [
            self._load(seq, path) for seq, path in self._record_files()
        ]
        if include_corrupt:
            return loaded
        return [record for record in loaded if not record.corrupt]

    def tail(self, count: int) -> List[RunRecord]:
        records = self.records(include_corrupt=False)
        return records[-count:] if count else records

    def get(self, seq: int) -> RunRecord:
        for record in self.records():
            if record.seq == seq:
                return record
        raise RunlogError(
            "runlog %r has no record with seq %d" % (self.directory, seq),
            path=self.directory,
        )

    # -- retention -----------------------------------------------------
    def gc(
        self, keep: int, prune_corrupt: bool = False
    ) -> List[str]:
        """Delete the oldest records beyond ``keep`` (and, optionally,
        corrupt ones regardless of age).  Returns the removed paths."""
        if keep < 0:
            raise RunlogError("gc keep must be >= 0, got %d" % keep)
        removed: List[str] = []
        records = self.records()
        if prune_corrupt:
            for record in records:
                if record.corrupt:
                    os.unlink(record.path)
                    removed.append(record.path)
            records = [r for r in records if not r.corrupt]
        excess = len(records) - keep
        for record in records[:max(0, excess)]:
            os.unlink(record.path)
            removed.append(record.path)
        return removed


__all__ = [
    "ENV_RUNLOG",
    "ENV_RUNLOG_CLOCK",
    "RUNLOG_SCHEMA_NAME",
    "RUNLOG_SCHEMA_VERSION",
    "RunLog",
    "RunRecord",
    "RunRecorder",
    "args_digest",
    "default_clock",
    "record_digest",
]
