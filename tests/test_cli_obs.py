"""CLI coverage for ``repro profile`` and the ``--trace``/``--metrics``
flags on ``reduce``, ``schedule``, and ``automata``."""

import json

import pytest

from repro.cli import main
from repro.obs import trace as obs
from repro.obs.export import METRICS_SCHEMA_VERSION


class TestProfileCommand:
    def test_profile_prints_breakdown(self, capsys):
        assert main(["profile", "cydra5-subset", "--kernel", "daxpy"]) == 0
        out = capsys.readouterr().out
        assert "phases" in out
        assert "reduce.generating_set" in out
        assert "query functions" in out
        assert "check" in out

    def test_profile_example_native_fallback(self, capsys):
        # The example machine lacks the Cydra-5 repertoire; profiling must
        # fall back to machine-native loops (this is the CI smoke test).
        assert main(["profile", "example", "--loops", "2"]) == 0
        out = capsys.readouterr().out
        assert "profile.loops" in out

    def test_profile_metrics_stdout_is_pure_json(self, capsys):
        assert main(["profile", "example", "--loops", "1",
                     "--metrics", "-"]) == 0
        out = capsys.readouterr().out
        document = json.loads(out)
        assert document["schema"] == "repro-obs-metrics"
        assert document["version"] == METRICS_SCHEMA_VERSION
        assert document["meta"]["machine"] == "paper-example"

    def test_profile_writes_trace_and_metrics(self, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        metrics_path = tmp_path / "m.json"
        assert main([
            "profile", "cydra5-subset", "--kernel", "daxpy",
            "--trace", str(trace_path), "--metrics", str(metrics_path),
        ]) == 0
        trace = json.loads(trace_path.read_text())
        categories = {e["cat"] for e in trace["traceEvents"]}
        assert {"profile", "reduce", "sched", "query"} <= categories
        metrics = json.loads(metrics_path.read_text())
        assert metrics["queries"]["check"]["calls"] > 0
        err = capsys.readouterr().err
        assert "perfetto" in err

    def test_profile_reduced(self, capsys):
        assert main(["profile", "cydra5-subset", "--kernel", "daxpy",
                     "--reduced"]) == 0
        out = capsys.readouterr().out
        assert "scheduled_on=reduced" in out

    def test_profile_leaves_tracing_disabled(self, capsys):
        assert main(["profile", "example", "--loops", "1"]) == 0
        assert obs.current() is None


class TestObservabilityFlags:
    def test_schedule_trace_has_sched_and_query_spans(self, tmp_path,
                                                      capsys):
        trace_path = tmp_path / "t.json"
        assert main([
            "schedule", "cydra5-subset", "--kernel", "daxpy",
            "--trace", str(trace_path),
        ]) == 0
        trace = json.loads(trace_path.read_text())
        events = trace["traceEvents"]
        categories = {e["cat"] for e in events}
        assert {"sched", "query"} <= categories
        names = {e["name"] for e in events}
        assert "ims.schedule" in names
        assert "ims.attempt" in names
        assert "check" in names  # per-call query spans
        assert trace["otherData"]["producer"] == "repro.obs"

    def test_schedule_metrics(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.json"
        assert main([
            "schedule", "cydra5-subset", "--kernel", "daxpy",
            "--metrics", str(metrics_path),
        ]) == 0
        document = json.loads(metrics_path.read_text())
        assert document["schema"] == "repro-obs-metrics"
        assert document["meta"]["command"] == "schedule"
        assert document["queries"]["check"]["units"] >= \
            document["queries"]["check"]["calls"]

    def test_reduce_metrics_and_trace(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.json"
        trace_path = tmp_path / "t.json"
        assert main([
            "reduce", "example",
            "--metrics", str(metrics_path), "--trace", str(trace_path),
        ]) == 0
        document = json.loads(metrics_path.read_text())
        assert document["counters"]["reduce.algorithm1.pairs"] > 0
        trace = json.loads(trace_path.read_text())
        names = {e["name"] for e in trace["traceEvents"]}
        assert {"forbidden_matrix", "generating_set", "selection",
                "verify"} <= names

    def test_automata_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        assert main(["automata", "example", "--trace", str(trace_path)]) == 0
        trace = json.loads(trace_path.read_text())
        names = {e["name"] for e in trace["traceEvents"]}
        assert "build_monolithic" in names
        assert "build_factored" in names

    def test_metrics_stdout_moves_report_to_stderr(self, capsys):
        # With ``--metrics -`` stdout must be pure JSON on every
        # observability-enabled command, not just ``profile``.
        assert main(["schedule", "cydra5-subset", "--kernel", "daxpy",
                     "--metrics", "-"]) == 0
        captured = capsys.readouterr()
        document = json.loads(captured.out)
        assert document["schema"] == "repro-obs-metrics"
        assert "scheduled at MII" in captured.err

    def test_unwritable_export_path_exits_2(self, capsys):
        code = main(["schedule", "cydra5-subset", "--kernel", "daxpy",
                     "--trace", "/nonexistent-dir/t.json"])
        assert code == 2
        assert "cannot write trace" in capsys.readouterr().err

    def test_no_flags_no_files(self, capsys):
        # Without --trace/--metrics nothing activates tracing.
        assert main(["reduce", "example"]) == 0
        assert obs.current() is None


class TestLintListRules:
    def test_text_listing(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "empty-operation" in out

    def test_json_listing(self, capsys):
        assert main(["lint", "--list-rules", "--format", "json"]) == 0
        rules = json.loads(capsys.readouterr().out)
        assert isinstance(rules, list) and rules
        for rule in rules:
            assert set(rule) == {"id", "severity", "summary"}
        assert any(r["id"] == "empty-operation" for r in rules)


@pytest.fixture(autouse=True)
def _tracing_disabled_after_each_test():
    yield
    assert obs.current() is None


class TestFlamegraphNoSpans:
    def test_profile_flamegraph_no_span_run(
        self, tmp_path, monkeypatch, capsys
    ):
        """A run that records no spans still writes a clean (empty) file.

        ``flamegraph.pl``/speedscope treat a blank line as a malformed
        frame, so the no-span export must be zero bytes, not "\\n".
        """
        from repro.obs import profile as obs_profile
        from repro.query.work import WorkCounters

        monkeypatch.setattr(
            obs_profile, "profile_machine",
            lambda machine, tracer=None, **kwargs: WorkCounters(),
        )
        out = tmp_path / "flame.txt"
        rc = main(
            ["profile", "example", "--flamegraph", str(out)]
        )
        assert rc == 0
        assert out.read_text() == ""
        assert "wrote collapsed stacks" in capsys.readouterr().err
