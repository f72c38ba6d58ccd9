"""CLI contract tests for ``repro fuzz`` and the chaos exit codes."""

import json

import pytest

from repro.cli import main
from repro.resilience.artifacts import read_artifact, verify_artifact


class TestFuzzCommand:
    def test_green_campaign_exits_zero(self, capsys):
        assert main(["fuzz", "--seed", "0", "--runs", "4"]) == 0
        out = capsys.readouterr().out
        assert "ok=" in out
        assert "bug=0" in out

    def test_report_artifact_checksummed(self, tmp_path, capsys):
        out_path = str(tmp_path / "fuzz.json")
        assert main(
            ["fuzz", "--seed", "0", "--runs", "4", "--out", out_path]
        ) == 0
        header = verify_artifact(out_path)
        assert header["kind"] == "fuzz"
        text, _header = read_artifact(out_path)
        document = json.loads(text)
        assert document["schema"] == "repro-fuzz-report"
        assert document["version"] == 1
        assert document["ok"] is True

    def test_two_runs_byte_identical(self, tmp_path, capsys):
        first = str(tmp_path / "a.json")
        second = str(tmp_path / "b.json")
        assert main(
            ["fuzz", "--seed", "3", "--runs", "5", "--out", first]
        ) == 0
        assert main(
            ["fuzz", "--seed", "3", "--runs", "5", "--out", second]
        ) == 0
        with open(first) as a, open(second) as b:
            assert a.read() == b.read()

    def test_budget_flag_still_green(self, capsys):
        # A tight per-stage budget turns ok verdicts into handled ones;
        # the campaign stays green (exit 0).
        assert main(
            ["fuzz", "--seed", "0", "--runs", "3", "--budget", "1",
             "--plans-every", "0"]
        ) == 0
        out = capsys.readouterr().out
        assert "bug=0" in out

    def test_unknown_profile_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["fuzz", "--profile", "no-such-profile"])


class TestChaosExitCodes:
    def test_all_handled_exits_zero(self, tmp_path, capsys):
        assert main(
            ["chaos", "example", "--seed", "0",
             "--workdir", str(tmp_path)]
        ) == 0

    def test_budget_exceeded_exits_three(self, tmp_path, capsys):
        code = main(
            ["chaos", "example", "--seed", "0", "--max-units", "1",
             "--workdir", str(tmp_path)]
        )
        assert code == 3
        assert "budget exceeded" in capsys.readouterr().err

    def test_report_artifact_checksummed(self, tmp_path, capsys):
        out_path = str(tmp_path / "chaos.json")
        assert main(
            ["chaos", "example", "--seed", "0", "--out", out_path,
             "--workdir", str(tmp_path / "work")]
        ) == 0
        header = verify_artifact(out_path)
        assert header["kind"] == "chaos"
        assert "sha256" in capsys.readouterr().err

    def test_unhandled_fault_exits_one(self, tmp_path, capsys, monkeypatch):
        # A ladder that serves a corrupt description on the reduced rung
        # must leave its steps unhandled, whatever the ladder reports:
        # the CLI translates report.ok=False into exit code 1.
        import random

        from repro.core import reduce_machine
        from repro.fuzz import plans
        from repro.resilience.fallback import RUNG_REDUCED, ReduceOutcome

        def corrupt_ladder(machine, policy=None):
            served = plans.corrupt_drop_usage(
                reduce_machine(machine).reduced, random.Random(0)
            )
            return ReduceOutcome(machine=served, rung=RUNG_REDUCED)

        monkeypatch.setattr(plans, "reduce_with_fallback", corrupt_ladder)
        code = main(
            ["chaos", "example", "--seed", "0", "--workdir", str(tmp_path)]
        )
        assert code == 1
        assert "result: FAILED" in capsys.readouterr().out
