"""MII attribution, explain reports, workload porting, and the CLI.

The explain observatory answers *why*: which constraint pins MII, why
each II attempt failed, and what the served schedule looks like.  These
tests pin the attribution cases of
:func:`~repro.scheduler.mii.mii_attribution`, the
``repro-explain-report`` v1 document contract, both renderers, the
Cydra-vocabulary porting behind ``repro explain``, and the command
itself (including ``repro schedule --explain``).  A golden document,
built when every query backend still attributed its own failed checks
into a separate decision ledger, pins the reports over loops with
forced placements for every representation, with or without an outer
tracer.
"""

import json
import os

import pytest

from repro.analysis import (
    EXPLAIN_SCHEMA_NAME,
    EXPLAIN_SCHEMA_VERSION,
    build_explain_report,
    explain_loop,
    render_explain_html,
    render_explain_text,
    validate_explain_report,
)
from repro.cli import main
from repro.core import MachineDescription
from repro.errors import ScheduleError
from repro.machines import (
    STUDY_MACHINES,
    alpha21064,
    cydra5_subset,
    example_machine,
)
from repro.obs import provenance, trace
from repro.query.modulo import REPRESENTATIONS
from repro.resilience.artifacts import verify_artifact
from repro.scheduler import mii_attribution
from repro.scheduler.ddg import DependenceGraph
from repro.workloads import KERNELS, PORTS, loop_suite, port_graph
from tests.test_ims_reference import _fragmenting_loops

GOLDEN = os.path.join(
    os.path.dirname(__file__), "fixtures", "explain_golden.json"
)


def _single_unit_machine():
    return MachineDescription("tiny", {"u": {"unit": [0]}})


class TestMiiAttribution:
    def test_resource_pinned(self):
        machine = _single_unit_machine()
        graph = DependenceGraph("pair")
        graph.add_operation("a", "u")
        graph.add_operation("b", "u")
        info = mii_attribution(machine, graph)
        assert info["mii"] == 2
        assert info["pinned_by"] == {
            "kind": "resource", "resource": "unit", "usages": 2,
        }
        assert info["usage_totals"] == {"unit": 2}

    def test_recurrence_pinned(self):
        machine = _single_unit_machine()
        graph = DependenceGraph("loop")
        graph.add_operation("a", "u")
        graph.add_operation("b", "u")
        graph.add_dependence("a", "b", 2)
        graph.add_dependence("b", "a", 2, distance=1)
        info = mii_attribution(machine, graph)
        assert info["rec_mii"] == 4
        assert info["pinned_by"] == {"kind": "recurrence", "rec_mii": 4}

    def test_self_contention_pinned(self):
        # One op using the bus at cycles 0 and 2: the self-forbidden
        # latency 2 rules out II=1 and II=2, beating the usage bound.
        machine = MachineDescription("fold", {"op": {"bus": [0, 2]}})
        graph = DependenceGraph("solo")
        graph.add_operation("a", "op")
        info = mii_attribution(machine, graph)
        assert info["res_mii"] == 3
        assert info["pinned_by"] == {
            "kind": "self-contention", "opcode": "op", "min_ii": 3,
        }
        assert info["self_contention"] == {"op": 3}


class TestExplainLoop:
    def test_success_entry(self):
        entry = explain_loop(cydra5_subset(), KERNELS["daxpy"]())
        assert entry["succeeded"] is True
        assert entry["ii"] >= entry["mii"]["mii"]
        assert entry["placements"]
        assert entry["attempts"][-1]["succeeded"] is True
        assert entry["narrative"]
        assert "pinned by" in entry["mii_narrative"]

    def test_failure_entry(self):
        machine = _single_unit_machine()
        graph = DependenceGraph("bad")
        graph.add_operation("a", "u")
        graph.add_operation("b", "u")
        graph.add_dependence("a", "b", 1)
        graph.add_dependence("b", "a", 1)  # zero-distance cycle
        entry = explain_loop(machine, graph)
        assert entry["succeeded"] is False
        assert entry["ii"] is None
        assert entry["error"]
        assert entry["decision_tail"] == []
        assert entry["mii"]["pinned_by"] == {"kind": "invalid"}
        assert entry["mii_narrative"].startswith("MII undefined")
        # An invalid entry still renders and validates inside a report.
        report = build_explain_report(machine, [graph])
        validate_explain_report(report)
        assert report["summary"]["failed"] == 1
        assert "MII undefined" in render_explain_text(report)
        assert "MII undefined" in render_explain_html(report)


class TestReportDocument:
    def test_build_and_validate(self):
        machine = cydra5_subset()
        graphs = [KERNELS["daxpy"](), KERNELS["tridiagonal"]()]
        report = build_explain_report(machine, graphs)
        validate_explain_report(report)
        assert report["schema"] == {
            "name": EXPLAIN_SCHEMA_NAME,
            "version": EXPLAIN_SCHEMA_VERSION,
        }
        assert report["machine"] == machine.name
        assert report["summary"]["loops"] == 2
        assert report["summary"]["scheduled"] == 2
        assert json.loads(json.dumps(report)) == report

    def test_validate_rejects_wrong_schema(self):
        with pytest.raises(ValueError):
            validate_explain_report({"schema": {"name": "other"}})
        report = build_explain_report(
            cydra5_subset(), [KERNELS["daxpy"]()]
        )
        del report["summary"]
        with pytest.raises(ValueError):
            validate_explain_report(report)

    def test_validate_rejects_broken_loop_entry(self):
        report = build_explain_report(
            cydra5_subset(), [KERNELS["daxpy"]()]
        )
        del report["loops"][0]["narrative"]
        with pytest.raises(ValueError):
            validate_explain_report(report)

    @pytest.mark.parametrize("name", sorted(STUDY_MACHINES))
    def test_study_machines_name_their_pin(self, name):
        machine = STUDY_MACHINES[name]()
        graphs = [
            port_graph(KERNELS[k](), machine)
            for k in ("daxpy", "tridiagonal")
        ]
        report = build_explain_report(machine, graphs)
        validate_explain_report(report)
        for entry in report["loops"]:
            pinned = entry["mii"]["pinned_by"]
            assert pinned["kind"] in (
                "recurrence", "resource", "self-contention"
            )
            assert entry["mii_narrative"].startswith("pinned by")


class TestRenderers:
    def _report(self):
        machine = cydra5_subset()
        report = build_explain_report(
            machine, [KERNELS["daxpy"](), KERNELS["tridiagonal"]()]
        )
        return machine, report

    def test_text_narrates(self):
        machine, report = self._report()
        text = render_explain_text(report, machine=machine)
        assert text.startswith("explain: cydra5-subset")
        assert "MII=" in text
        assert "scheduled at II=" in text
        # With the machine handy, the MRT occupancy chart rides along.
        assert "legend:" in text

    def test_html_is_escaped_and_self_contained(self):
        machine, report = self._report()
        report["machine"] = "<m&chine>"
        # Blame tables render only when checks failed; inject one so the
        # table path is exercised deterministically.
        entry = report["loops"][0]
        entry["blame"] = {"fp<bus>": 3}
        entry["pressure"] = {"fp<bus>": {3: 2, 4: 1}}
        html = render_explain_html(report, machine=machine)
        assert html.startswith("<!DOCTYPE html>")
        assert "&lt;m&amp;chine&gt;" in html
        assert "<m&chine>" not in html
        assert "<table>" in html
        assert "&lt;bus&gt;" in html
        assert "cycles 3-4" in html

    def test_text_renders_blame_line(self):
        machine, report = self._report()
        entry = report["loops"][0]
        entry["blame"] = {"fp_bus": 3}
        entry["pressure"] = {"fp_bus": {3: 2, 5: 1}}
        text = render_explain_text(report)
        assert "most-blamed resources: fp_bus x3 (cycles 3, 5)" in text


class TestPortGraph:
    def test_pass_through_when_opcodes_resolve(self):
        machine = cydra5_subset()
        graph = KERNELS["daxpy"]()
        assert port_graph(graph, machine) is graph

    @pytest.mark.parametrize("name", sorted(PORTS))
    def test_ports_cover_the_kernel_suite(self, name):
        from repro.machines import alpha21064, mips_r3000, playdoh

        builders = {
            "playdoh": playdoh,
            "alpha-21064": alpha21064,
            "mips-r3000": mips_r3000,
        }
        machine = builders[name]()
        assert machine.name == name
        for kernel in sorted(KERNELS):
            ported = port_graph(KERNELS[kernel](), machine)
            for opcode in ported.opcodes():
                machine.alternatives_of(opcode)  # must not raise

    def test_unportable_machine_raises(self):
        machine = example_machine()
        with pytest.raises(ScheduleError):
            port_graph(KERNELS["daxpy"](), machine)


class TestCli:
    def test_explain_text(self, capsys):
        assert main(["explain", "cydra5-subset", "--loops", "2"]) == 0
        out = capsys.readouterr().out
        assert "explain: cydra5-subset" in out
        assert "pinned by" in out

    def test_explain_json_artifact(self, tmp_path):
        out = str(tmp_path / "explain.json")
        rc = main(
            [
                "explain", "cydra5-subset", "--loops", "2",
                "--format", "json", "-o", out,
            ]
        )
        assert rc == 0
        with open(out) as handle:
            document = json.load(handle)
        validate_explain_report(document)
        assert verify_artifact(out)["kind"] == "explain"

    def test_explain_html(self, tmp_path):
        out = str(tmp_path / "explain.html")
        rc = main(
            [
                "explain", "cydra5-subset", "--kernel", "daxpy",
                "--format", "html", "-o", out,
            ]
        )
        assert rc == 0
        with open(out) as handle:
            html = handle.read()
        assert html.startswith("<!DOCTYPE html>")

    def test_explain_ported_machine(self, capsys):
        assert main(["explain", "alpha21064", "--kernel", "daxpy"]) == 0
        assert "explain: alpha-21064" in capsys.readouterr().out

    def test_schedule_explain_sidecar(self, tmp_path, capsys):
        out = str(tmp_path / "sidecar.json")
        rc = main(
            ["schedule", "cydra5-subset", "--loops", "2", "--explain", out]
        )
        assert rc == 0
        with open(out) as handle:
            document = json.load(handle)
        validate_explain_report(document)


def _golden_inputs():
    """The fixture's loops: the fragmenting loops of the IMS reference
    test and the ported alpha21064 loops 2-9 of the suite, seven of
    which force placements."""
    fragment, fragmenting = _fragmenting_loops()
    alpha = alpha21064()
    ported = [port_graph(graph, alpha) for graph in loop_suite(40)[2:10]]
    return {
        "fragment": (fragment, fragmenting),
        "alpha21064": (alpha, ported),
    }


def _report(machine, graphs, representation):
    document = build_explain_report(
        machine, graphs, representation=representation
    )
    document["representation"] = None
    return json.loads(json.dumps(document))


class TestGolden:
    @pytest.fixture(scope="class")
    def golden(self):
        with open(GOLDEN) as handle:
            return json.load(handle)

    @pytest.mark.parametrize("representation", (None,) + REPRESENTATIONS)
    def test_reports_match_the_fixture(self, golden, representation):
        inputs = _golden_inputs()
        assert sorted(inputs) == sorted(golden)
        for key, (machine, graphs) in inputs.items():
            assert _report(machine, graphs, representation) == golden[key]
        forced = sum(
            attempt["forced"]
            for document in golden.values()
            for entry in document["loops"]
            for attempt in entry["attempts"]
        )
        assert forced == 77

    def test_outer_tracer_changes_nothing(self, golden):
        """An outer tracer sees every replayed decision, and neither it
        nor a full one shapes the report."""
        machine, graphs = _golden_inputs()["alpha21064"]
        expected = golden["alpha21064"]
        outer = trace.Tracer(trace_queries=True)
        with trace.tracing(outer):
            assert _report(machine, graphs, None) == expected
        decisions = provenance.decision_records(outer.events)
        assert len(decisions) == sum(e["records"] for e in expected["loops"])
        assert outer.metrics.counters["sched.ims.force"] == 70
        full = trace.Tracer(max_records=0)
        with trace.tracing(full):
            assert _report(machine, graphs, None) == expected
        assert full.dropped > 0 and not full.events

    def test_cli_json_is_the_same_under_trace_and_metrics(self, tmp_path):
        paths = [str(tmp_path / name) for name in ("plain.json", "out.json")]
        args = ["explain", "alpha21064", "--loops", "6", "--format", "json"]
        assert main(args + ["-o", paths[0]]) == 0
        assert main(args + [
            "-o", paths[1],
            "--trace", str(tmp_path / "trace.json"),
            "--metrics", str(tmp_path / "metrics.json"),
        ]) == 0
        documents = []
        for path in paths:
            with open(path) as handle:
                documents.append(json.load(handle))
        assert documents[0] == documents[1]
        with open(tmp_path / "metrics.json") as handle:
            counters = json.load(handle)["counters"]
        assert counters["sched.ims.force"] > 0
