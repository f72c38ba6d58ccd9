"""The persistent run registry: records, checksums, retention."""

import json
import os
from collections import Counter

import pytest

from repro.errors import RunlogError
from repro.obs.runlog import (
    ENV_RUNLOG_CLOCK,
    RUNLOG_SCHEMA_NAME,
    RUNLOG_SCHEMA_VERSION,
    RunLog,
    RunRecorder,
    args_digest,
    default_clock,
    record_digest,
)
from repro.query.work import WorkCounters


class FakeClock:
    """A hand-cranked clock: every call returns ``now``, tests advance it."""

    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now


def _recorder(command="schedule", clock=None, **arguments):
    return RunRecorder(command, arguments, clock=clock or FakeClock())


def _append(log, clock=None, command="schedule", **extra):
    recorder = _recorder(command=command, clock=clock)
    for key, value in extra.items():
        recorder.note(**{key: value})
    return log.append(recorder.finalize("ok", 0))


class TestRunRecorder:
    def test_finalize_envelope(self):
        clock = FakeClock(1000.0)
        recorder = RunRecorder(
            "schedule", {"machine": "cydra5-subset"}, clock=clock
        )
        clock.now = 1002.5
        recorder.note(machine="cydra5-subset", rung="full")
        record = recorder.finalize("ok", 0)
        assert record["schema"] == RUNLOG_SCHEMA_NAME
        assert record["version"] == RUNLOG_SCHEMA_VERSION
        assert record["command"] == "schedule"
        assert record["ts"] == 1000.0
        assert record["duration_s"] == 2.5
        assert record["outcome"] == "ok"
        assert record["exit_code"] == 0
        assert record["machine"] == "cydra5-subset"
        assert record["rung"] == "full"
        assert record["work"] == {"units": {}, "calls": {}}

    def test_units_and_calls_merge_additively(self):
        recorder = _recorder()
        recorder.add_work(WorkCounters(
            calls=Counter(check=2, assign=1),
            units=Counter(check=10, assign=2),
        ))
        recorder.add_work(WorkCounters(
            calls=Counter(check=1), units=Counter(check=5)
        ))
        record = recorder.finalize("ok", 0)
        assert record["work"]["units"] == {"assign": 2, "check": 15}
        assert record["work"]["calls"] == {"assign": 1, "check": 3}

    def test_quality_merge_derives_mii_gap(self):
        recorder = _recorder()
        recorder.merge_quality({"ii_total": 7, "mii_total": 5, "loops": 1})
        recorder.merge_quality({"ii_total": 4, "mii_total": 4, "loops": 1})
        record = recorder.finalize("ok", 0)
        assert record["quality"]["ii_total"] == 11
        assert record["quality"]["mii_total"] == 9
        assert record["quality"]["mii_gap"] == 2
        assert record["quality"]["loops"] == 2

    def test_no_quality_key_when_nothing_merged(self):
        assert "quality" not in _recorder().finalize("ok", 0)

    def test_duration_never_negative(self):
        clock = FakeClock(50.0)
        recorder = _recorder(clock=clock)
        clock.now = 40.0  # clock moved backwards (e.g. NTP step)
        assert recorder.finalize("ok", 0)["duration_s"] == 0.0


class TestDigests:
    def test_args_digest_is_stable_and_order_independent(self):
        a = args_digest({"machine": "cydra5", "loops": 4})
        b = args_digest({"loops": 4, "machine": "cydra5"})
        assert a == b
        assert len(a) == 16
        assert args_digest({"machine": "other", "loops": 4}) != a

    def test_args_digest_scrubs_non_json_values(self):
        digest = args_digest({"func": print, "machine": "m"})
        assert digest == args_digest({"func": len, "machine": "m"})

    def test_record_digest_excludes_sha_field(self):
        record = {"command": "reduce", "seq": 1}
        digest = record_digest(record)
        assert record_digest(dict(record, sha256=digest)) == digest

    def test_default_clock_env_pinning(self, monkeypatch):
        monkeypatch.setenv(ENV_RUNLOG_CLOCK, "1234.5")
        clock = default_clock()
        assert clock() == 1234.5
        assert clock() == 1234.5

    def test_default_clock_bad_pin_raises(self, monkeypatch):
        monkeypatch.setenv(ENV_RUNLOG_CLOCK, "not-a-number")
        with pytest.raises(RunlogError):
            default_clock()

    def test_default_clock_unpinned_moves(self, monkeypatch):
        monkeypatch.delenv(ENV_RUNLOG_CLOCK, raising=False)
        clock = default_clock()
        assert clock() > 0


class TestRunLog:
    def test_append_assigns_sequence_and_checksum(self, tmp_path):
        log = RunLog(str(tmp_path))
        first = _append(log)
        second = _append(log)
        assert os.path.basename(first).startswith("run-00000001-")
        assert os.path.basename(second).startswith("run-00000002-")
        data = json.loads(open(first).read())
        assert data["sha256"] == record_digest(data)
        assert log.next_seq() == 3

    def test_pinned_clock_records_are_byte_identical(self, tmp_path):
        clock = FakeClock(500.0)
        one = _append(RunLog(str(tmp_path / "a")), clock=FakeClock(500.0))
        two = _append(RunLog(str(tmp_path / "b")), clock=clock)
        assert open(one, "rb").read() == open(two, "rb").read()

    def test_records_round_trip(self, tmp_path):
        log = RunLog(str(tmp_path))
        _append(log, machine="cydra5-subset")
        records = log.records()
        assert len(records) == 1
        record = records[0]
        assert not record.corrupt
        assert record.seq == 1
        assert record.command == "schedule"
        assert record.outcome == "ok"
        assert record.data["machine"] == "cydra5-subset"

    def test_tampered_record_is_corrupt_not_fatal(self, tmp_path):
        log = RunLog(str(tmp_path))
        path = _append(log)
        data = json.loads(open(path).read())
        data["exit_code"] = 99  # tamper without recomputing the checksum
        with open(path, "w") as handle:
            json.dump(data, handle)
        _append(log)
        records = log.records()
        assert [r.corrupt for r in records] == [True, False]
        assert "checksum mismatch" in records[0].error
        assert len(log.records(include_corrupt=False)) == 1

    def test_unparseable_record_is_corrupt(self, tmp_path):
        log = RunLog(str(tmp_path))
        path = _append(log)
        with open(path, "w") as handle:
            handle.write("{ this is not json")
        record = log.records()[0]
        assert record.corrupt
        assert "unreadable" in record.error

    def test_wrong_schema_is_corrupt(self, tmp_path):
        log = RunLog(str(tmp_path))
        path = _append(log)
        data = json.loads(open(path).read())
        data["version"] = RUNLOG_SCHEMA_VERSION + 1
        with open(path, "w") as handle:
            json.dump(data, handle)
        record = log.records()[0]
        assert record.corrupt
        assert "schema" in record.error

    def test_get_and_missing_seq(self, tmp_path):
        log = RunLog(str(tmp_path))
        _append(log)
        assert log.get(1).seq == 1
        with pytest.raises(RunlogError):
            log.get(42)

    def test_tail(self, tmp_path):
        log = RunLog(str(tmp_path))
        for _ in range(5):
            _append(log)
        assert [r.seq for r in log.tail(2)] == [4, 5]
        assert [r.seq for r in log.tail(0)] == [1, 2, 3, 4, 5]

    def test_empty_directory(self, tmp_path):
        log = RunLog(str(tmp_path / "never-created"))
        assert log.records() == []
        assert log.next_seq() == 1

    def test_gc_keeps_newest(self, tmp_path):
        log = RunLog(str(tmp_path))
        for _ in range(5):
            _append(log)
        removed = log.gc(keep=2)
        assert len(removed) == 3
        assert [r.seq for r in log.records()] == [4, 5]

    def test_gc_prune_corrupt(self, tmp_path):
        log = RunLog(str(tmp_path))
        path = _append(log)
        _append(log)
        with open(path, "w") as handle:
            handle.write("garbage")
        removed = log.gc(keep=10, prune_corrupt=True)
        assert removed == [path]
        assert [r.seq for r in log.records()] == [2]

    def test_gc_negative_keep_raises(self, tmp_path):
        with pytest.raises(RunlogError):
            RunLog(str(tmp_path)).gc(keep=-1)
