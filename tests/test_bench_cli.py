"""CLI coverage for ``repro bench run|compare|report`` and the
``repro profile --flamegraph`` export.

The acceptance path for the perf gate lives here: two identical-config
runs compare neutral (exit 0), while a run with the query module wrapped
to do extra work is flagged as a regression (exit 1) by the
deterministic work-unit gate.
"""

import json

from repro.cli import main
from repro.query.discrete import DiscreteQueryModule


def _bench_run(tmp_path, name, extra=()):
    out = tmp_path / ("%s.json" % name)
    argv = [
        "bench", "run", "example",
        "--loops", "2",
        "-o", str(out),
    ]
    argv.extend(extra)
    assert main(argv) == 0
    return str(out)


class TestBenchRun:
    def test_run_writes_checksummed_result(self, tmp_path, capsys):
        path = _bench_run(tmp_path, "run")
        err = capsys.readouterr().err
        assert "checksum sidecar" in err
        document = json.loads(open(path).read())
        assert document["schema"] == "repro-bench-result"
        assert document["version"] == 1
        sidecar = json.loads(open(path + ".sum.json").read())
        assert sidecar["kind"] == "bench-result"
        case = document["cases"]["paper-example/discrete"]
        assert set(case) == {"machine", "representation", "work", "quality"}
        assert case["work"]["query.check.units"] > 0
        assert case["quality"]["loops"] == 2

    def test_run_text_report_on_stdout(self, tmp_path, capsys):
        _bench_run(tmp_path, "run")
        out = capsys.readouterr().out
        assert "paper-example/discrete" in out
        assert "paper-example/bitvector" in out
        assert "at MII" in out

    def test_run_json_stdout_is_pure_json(self, capsys):
        assert main([
            "bench", "run", "example",
            "--loops", "1",
            "--format", "json",
        ]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "repro-bench-result"

    def test_run_default_matrix(self, capsys):
        assert main(["bench", "run", "--format", "json",
                     "--loops", "1"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["config"]["machines"] == [
            "example", "cydra5-subset", "alpha21064",
        ]
        assert set(document["cases"]) == {
            "%s/%s" % (machine, representation)
            for machine in ("paper-example", "cydra5-subset", "alpha-21064")
            for representation in ("discrete", "bitvector", "compiled")
        }

    def test_run_rejects_unknown_representation(self, capsys):
        assert main(["bench", "run", "example",
                     "--representations", "quantum"]) == 2

    def test_run_respects_unit_budget(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main([
            "bench", "run", "example", "--loops", "4",
            "--max-units", "1",
            "-o", str(out),
        ]) == 3
        assert "budget exceeded" in capsys.readouterr().err

    def test_work_units_bit_identical_across_runs(self, tmp_path):
        first = json.loads(open(_bench_run(tmp_path, "a")).read())
        second = json.loads(open(_bench_run(tmp_path, "b")).read())
        for key, case in first["cases"].items():
            assert case["work"] == second["cases"][key]["work"]
            assert case["quality"] == second["cases"][key]["quality"]


class TestBenchCompare:
    def test_identical_runs_compare_ok(self, tmp_path, capsys):
        base = _bench_run(tmp_path, "base")
        new = _bench_run(tmp_path, "new")
        capsys.readouterr()
        assert main(["bench", "compare", base, new]) == 0
        out = capsys.readouterr().out
        assert out.startswith("verdict: OK")

    def test_injected_slowdown_detected(self, tmp_path, capsys,
                                        monkeypatch):
        base = _bench_run(tmp_path, "base")
        capsys.readouterr()

        # Wrap the discrete query module's check with busywork: every
        # probe charges five extra work units.  The deterministic gate
        # must flag this regardless of wall-clock noise.
        original = DiscreteQueryModule.check

        def slow_check(self, op, cycle, **kwargs):
            self.work.charge("check", 5)
            return original(self, op, cycle, **kwargs)

        monkeypatch.setattr(DiscreteQueryModule, "check", slow_check)
        slowed = _bench_run(tmp_path, "slowed")
        capsys.readouterr()

        assert main(["bench", "compare", base, slowed]) == 1
        out = capsys.readouterr().out
        assert out.startswith("verdict: REGRESSION")
        assert "query.check.units" in out

    def test_compare_writes_artifact(self, tmp_path, capsys):
        base = _bench_run(tmp_path, "base")
        new = _bench_run(tmp_path, "new")
        capsys.readouterr()
        report = tmp_path / "cmp.json"
        assert main(["bench", "compare", base, new,
                     "--format", "json", "-o", str(report)]) == 0
        document = json.loads(report.read_text())
        assert document["schema"] == "repro-bench-compare"
        assert document["ok"] is True
        sidecar = json.loads((tmp_path / "cmp.json.sum.json").read_text())
        assert sidecar["kind"] == "bench-compare"
        # Stdout carried the same JSON.
        stdout_doc = json.loads(capsys.readouterr().out)
        assert stdout_doc["ok"] is True

    def test_compare_schema_mismatch_is_usage_error(self, tmp_path,
                                                    capsys):
        base = _bench_run(tmp_path, "base")
        stale = tmp_path / "stale.json"
        document = json.loads(open(base).read())
        document["version"] = 999
        stale.write_text(json.dumps(document))
        assert main(["bench", "compare", base, str(stale)]) == 2
        err = capsys.readouterr().err
        assert "repro bench run" in err

    def test_compare_missing_file_is_usage_error(self, tmp_path, capsys):
        base = _bench_run(tmp_path, "base")
        assert main(["bench", "compare", base,
                     str(tmp_path / "absent.json")]) == 2


class TestBenchReport:
    def test_report_round_trip(self, tmp_path, capsys):
        path = _bench_run(tmp_path, "run")
        capsys.readouterr()
        assert main(["bench", "report", path]) == 0
        out = capsys.readouterr().out
        assert "paper-example/discrete" in out

    def test_report_json(self, tmp_path, capsys):
        path = _bench_run(tmp_path, "run")
        capsys.readouterr()
        assert main(["bench", "report", path, "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "repro-bench-result"


class TestFlamegraphFlag:
    def test_profile_flamegraph_file(self, tmp_path, capsys):
        out = tmp_path / "flame.txt"
        assert main(["profile", "example", "--loops", "1",
                     "--flamegraph", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines
        for line in lines:
            stack, _, value = line.rpartition(" ")
            assert stack
            assert int(value) >= 0
        stacks = "\n".join(lines)
        assert "profile.reduce" in stacks
        # Query frames nest under scheduling frames.
        assert "query.check" in stacks and ";query.check" in stacks

    def test_profile_flamegraph_stdout_is_pure(self, capsys):
        assert main(["profile", "example", "--loops", "1",
                     "--flamegraph", "-"]) == 0
        out = capsys.readouterr().out
        for line in out.strip().splitlines():
            stack, _, value = line.rpartition(" ")
            int(value)  # collapsed-stack format, nothing else
