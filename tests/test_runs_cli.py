"""The ``repro runs`` family and ``--runlog`` recording end to end.

Holds the PR's acceptance test: a registry populated with synthetic
records plus one injected work-unit regression makes ``repro runs
trend`` flag exactly that changepoint (exit 1) while an unperturbed
series exits 0, and ``repro runs diff`` reproduces the bench
comparator's gating verdicts.
"""

import json
import os

from repro.cli import main
from repro.obs.runlog import ENV_RUNLOG_CLOCK, RunLog, RunRecorder


def _seed(directory, checks, command="schedule", loops=1, mii_total=5,
          ii_total=None):
    """Append one synthetic record per ``checks`` value."""
    log = RunLog(str(directory))
    for index, check_units in enumerate(checks):
        recorder = RunRecorder(
            command, {"n": index}, clock=lambda: 100.0 + index
        )
        recorder.note(machine="cydra5-subset", rung="full")
        recorder.add_units({"check": float(check_units)})
        recorder.calls["check"] = 1
        recorder.merge_quality({
            "loops": loops,
            "loops_at_mii": loops,
            "mii_total": mii_total,
            "ii_total": mii_total if ii_total is None else ii_total,
        })
        log.append(recorder.finalize("ok", 0))
    return log


class TestRecording:
    def test_reduce_appends_a_record(self, tmp_path, capsys):
        runlog = tmp_path / "runs"
        assert main(["reduce", "example", "--runlog", str(runlog)]) == 0
        records = RunLog(str(runlog)).records()
        assert len(records) == 1
        record = records[0]
        assert not record.corrupt
        assert record.command == "reduce"
        assert record.outcome == "ok"
        assert record.data["exit_code"] == 0
        assert record.data["rung"] == "full"
        assert record.data["machine"]

    def test_schedule_records_work_and_quality(self, tmp_path, capsys):
        runlog = tmp_path / "runs"
        assert main([
            "schedule", "cydra5-subset", "--kernel", "daxpy",
            "--runlog", str(runlog),
        ]) == 0
        record = RunLog(str(runlog)).records()[0]
        assert record.command == "schedule"
        assert record.units().get("check", 0) > 0
        assert record.calls().get("check", 0) > 0
        quality = record.quality()
        assert quality["loops"] == 1
        assert quality["ii_total"] >= quality["mii_total"] > 0
        assert quality["mii_gap"] == (
            quality["ii_total"] - quality["mii_total"]
        )

    def test_corpus_record_counts_each_query_once(self, tmp_path, capsys):
        runlog = tmp_path / "runs"
        metrics = tmp_path / "metrics.json"
        assert main([
            "schedule", "cydra5-subset", "--corpus", "--loops", "16",
            "--runlog", str(runlog), "--metrics", str(metrics),
        ]) == 0
        record = RunLog(str(runlog)).records()[0]
        document = json.loads(metrics.read_text())
        queries = document["queries"]
        assert queries
        assert record.units() == {
            function: document["counters"]["query.%s.units" % function]
            for function in queries
        }
        assert record.calls() == {
            function: entry["calls"] for function, entry in queries.items()
        }

    def test_env_var_enables_recording(self, tmp_path, monkeypatch,
                                       capsys):
        runlog = tmp_path / "runs"
        monkeypatch.setenv("REPRO_RUNLOG", str(runlog))
        assert main(["reduce", "example"]) == 0
        assert len(RunLog(str(runlog)).records()) == 1

    def test_failure_outcome_is_recorded(self, tmp_path, capsys):
        runlog = tmp_path / "runs"
        # The example machine lacks the Cydra-5 loop repertoire, so the
        # command fails — the registry must record that, not hide it.
        assert main([
            "schedule", "example", "--kernel", "daxpy",
            "--runlog", str(runlog),
        ]) == 2
        record = RunLog(str(runlog)).records()[0]
        assert record.outcome == "error"
        assert record.data["exit_code"] == 2

    def test_runlog_off_writes_nothing(self, tmp_path, monkeypatch,
                                       capsys):
        monkeypatch.delenv("REPRO_RUNLOG", raising=False)
        monkeypatch.chdir(tmp_path)
        assert main(["reduce", "example"]) == 0
        assert os.listdir(tmp_path) == []

    def test_runs_commands_are_not_themselves_recorded(
            self, tmp_path, monkeypatch, capsys):
        runlog = tmp_path / "runs"
        _seed(runlog, [100.0])
        monkeypatch.setenv("REPRO_RUNLOG", str(runlog))
        assert main(["runs", "list"]) == 0
        assert len(RunLog(str(runlog)).records()) == 1

    def test_pinned_clock_reruns_are_byte_identical(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(ENV_RUNLOG_CLOCK, "1000")
        paths = []
        for name in ("a", "b"):
            runlog = tmp_path / name
            assert main(["reduce", "example",
                         "--runlog", str(runlog)]) == 0
            record_dir = str(runlog)
            files = sorted(os.listdir(record_dir))
            assert len(files) == 1
            paths.append(os.path.join(record_dir, files[0]))
        assert os.path.basename(paths[0]) == os.path.basename(paths[1])
        with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
            assert a.read() == b.read()


class TestRunsList:
    def test_table_lists_records(self, tmp_path, capsys):
        _seed(tmp_path / "runs", [100.0, 101.0])
        assert main(["runs", "list",
                     "--runlog", str(tmp_path / "runs")]) == 0
        out = capsys.readouterr().out
        assert "schedule" in out
        assert "cydra5-subset" in out
        assert "2 record(s)" in out

    def test_json_format_and_tail(self, tmp_path, capsys):
        _seed(tmp_path / "runs", [100.0, 101.0, 102.0])
        assert main(["runs", "list", "--runlog", str(tmp_path / "runs"),
                     "--tail", "2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["seq"] for r in payload] == [2, 3]

    def test_corrupt_record_flagged_and_exit_1(self, tmp_path, capsys):
        log = _seed(tmp_path / "runs", [100.0])
        path = log.records()[0].path
        with open(path, "w") as handle:
            handle.write("torn")
        assert main(["runs", "list",
                     "--runlog", str(tmp_path / "runs")]) == 1
        assert "CORRUPT" in capsys.readouterr().out

    def test_no_registry_is_an_error(self, tmp_path, monkeypatch,
                                     capsys):
        monkeypatch.delenv("REPRO_RUNLOG", raising=False)
        assert main(["runs", "list"]) == 2
        assert main(["runs", "list",
                     "--runlog", str(tmp_path / "absent")]) == 2


class TestRunsShow:
    def test_show_prints_record_json(self, tmp_path, capsys):
        _seed(tmp_path / "runs", [100.0])
        assert main(["runs", "show", "1",
                     "--runlog", str(tmp_path / "runs")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "schedule"
        assert payload["work"]["units"]["check"] == 100.0

    def test_show_missing_seq_is_an_error(self, tmp_path, capsys):
        _seed(tmp_path / "runs", [100.0])
        assert main(["runs", "show", "9",
                     "--runlog", str(tmp_path / "runs")]) == 2


class TestRunsDiff:
    """``runs diff`` must reproduce the bench comparator's verdicts."""

    def test_neutral_diff_exits_0(self, tmp_path, capsys):
        _seed(tmp_path / "runs", [1000.0, 1000.0])
        assert main(["runs", "diff", "1", "2",
                     "--runlog", str(tmp_path / "runs")]) == 0
        out = capsys.readouterr().out
        assert "verdict: ok" in out
        assert "x1.0000" in out

    def test_work_regression_gates_exit_1(self, tmp_path, capsys):
        _seed(tmp_path / "runs", [1000.0, 1100.0])
        assert main(["runs", "diff", "1", "2",
                     "--runlog", str(tmp_path / "runs")]) == 1
        out = capsys.readouterr().out
        assert "units.check" in out
        assert "regression" in out
        assert "[gated]" in out
        assert "verdict: REGRESSION" in out

    def test_small_rise_gates_exit_1(self, tmp_path, capsys):
        # Work units reproduce exactly: +1 on a 4-unit metric and +0.5%
        # on a 1,000-unit metric are both real work.
        _seed(tmp_path / "runs", [4.0, 5.0, 1000.0, 1005.0, 1000.0])
        for base, new in (("1", "2"), ("3", "4")):
            assert main(["runs", "diff", base, new,
                         "--runlog", str(tmp_path / "runs")]) == 1
            assert "verdict: REGRESSION" in capsys.readouterr().out
        # A fall is an improvement and passes.
        assert main(["runs", "diff", "4", "5",
                     "--runlog", str(tmp_path / "runs")]) == 0
        assert "improvement" in capsys.readouterr().out

    def test_missing_currency_never_gates(self, tmp_path, capsys):
        log = _seed(tmp_path / "runs", [1000.0])
        recorder = RunRecorder("schedule", {}, clock=lambda: 101.0)
        recorder.add_units({"check": 1000.0, "sample": 42.0})
        recorder.merge_quality({"loops": 1, "loops_at_mii": 1,
                                "mii_total": 5, "ii_total": 5})
        log.append(recorder.finalize("ok", 0))
        assert main(["runs", "diff", "1", "2",
                     "--runlog", str(tmp_path / "runs")]) == 0
        assert "missing-base" in capsys.readouterr().out

    def test_workload_mismatch_is_incomparable(self, tmp_path, capsys):
        log = _seed(tmp_path / "runs", [1000.0], loops=1)
        _seed_second = RunRecorder("schedule", {}, clock=lambda: 101.0)
        _seed_second.add_units({"check": 9000.0})
        _seed_second.merge_quality({"loops": 2, "loops_at_mii": 2,
                                    "mii_total": 5, "ii_total": 5})
        log.append(_seed_second.finalize("ok", 0))
        assert main(["runs", "diff", "1", "2",
                     "--runlog", str(tmp_path / "runs")]) == 0
        out = capsys.readouterr().out
        assert "workload mismatch" in out
        assert "units.check" not in out  # work not compared at all

    def test_quality_regression_gates(self, tmp_path, capsys):
        log = _seed(tmp_path / "runs", [1000.0], ii_total=5)
        recorder = RunRecorder("schedule", {}, clock=lambda: 101.0)
        recorder.add_units({"check": 1000.0})
        recorder.merge_quality({"loops": 1, "loops_at_mii": 0,
                                "mii_total": 5, "ii_total": 7})
        log.append(recorder.finalize("ok", 0))
        assert main(["runs", "diff", "1", "2",
                     "--runlog", str(tmp_path / "runs")]) == 1
        assert "quality.ii_total" in capsys.readouterr().out

    def test_json_format_matches_bench_compare_schema(self, tmp_path,
                                                      capsys):
        _seed(tmp_path / "runs", [1000.0, 1000.0])
        assert main(["runs", "diff", "1", "2", "--format", "json",
                     "--runlog", str(tmp_path / "runs")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-bench-compare"
        assert payload["ok"] is True

    def test_diff_of_corrupt_record_is_an_error(self, tmp_path, capsys):
        log = _seed(tmp_path / "runs", [1000.0, 1000.0])
        with open(log.records()[0].path, "w") as handle:
            handle.write("torn")
        assert main(["runs", "diff", "1", "2",
                     "--runlog", str(tmp_path / "runs")]) == 2


class TestRunsTrendAcceptance:
    """The PR's acceptance scenario for the trend observatory."""

    def test_injected_regression_is_flagged_at_its_seq(self, tmp_path,
                                                       capsys):
        # Eight steady runs, then a 40% work-unit regression lands.
        _seed(tmp_path / "runs", [100.0] * 8 + [140.0] * 4)
        assert main(["runs", "trend", "--metric", "units.check",
                     "--runlog", str(tmp_path / "runs")]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION at seq 9" in out
        assert "100.000 -> 140.000" in out
        assert "seeded permutation test" in out

    def test_unperturbed_series_exits_0(self, tmp_path, capsys):
        _seed(tmp_path / "runs", [100.0] * 12)
        assert main(["runs", "trend", "--metric", "units.check",
                     "--runlog", str(tmp_path / "runs")]) == 0
        assert "no significant changepoint" in capsys.readouterr().out

    def test_improvement_exits_0(self, tmp_path, capsys):
        _seed(tmp_path / "runs", [140.0] * 8 + [100.0] * 4)
        assert main(["runs", "trend", "--metric", "units.check",
                     "--runlog", str(tmp_path / "runs")]) == 0
        assert "IMPROVEMENT" in capsys.readouterr().out

    def test_too_few_points_exits_0(self, tmp_path, capsys):
        _seed(tmp_path / "runs", [100.0, 140.0])
        assert main(["runs", "trend",
                     "--runlog", str(tmp_path / "runs")]) == 0
        assert "need at least 4" in capsys.readouterr().out

    def test_window_restricts_the_series(self, tmp_path, capsys):
        # The regression is outside the analysis window: nothing flags.
        _seed(tmp_path / "runs", [100.0] * 4 + [140.0] * 8)
        assert main(["runs", "trend", "--window", "8",
                     "--runlog", str(tmp_path / "runs")]) == 0

    def test_json_format_emits_changepoint_payload(self, tmp_path,
                                                   capsys):
        _seed(tmp_path / "runs", [100.0] * 8 + [140.0] * 4)
        assert main(["runs", "trend", "--format", "json",
                     "--runlog", str(tmp_path / "runs")]) == 1
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["seq"] == 9
        assert payload["direction"] == "regression"

    def test_seed_is_reported_and_deterministic(self, tmp_path, capsys):
        _seed(tmp_path / "runs", [100.0] * 8 + [140.0] * 4)
        outs = []
        for _ in range(2):
            assert main(["runs", "trend", "--seed", "7",
                         "--runlog", str(tmp_path / "runs")]) == 1
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert "seed=7" in outs[0]


class TestRunsGcAndMetrics:
    def test_gc_keeps_newest(self, tmp_path, capsys):
        _seed(tmp_path / "runs", [100.0] * 5)
        assert main(["runs", "gc", "--keep", "2",
                     "--runlog", str(tmp_path / "runs")]) == 0
        assert "removed 3 record(s)" in capsys.readouterr().out
        assert [r.seq for r in RunLog(str(tmp_path / "runs")).records()
                ] == [4, 5]
