"""The scheduling decision log and its provenance rollups.

The schedulers log every decision as one tracer event carrying the
decision's payload; :func:`repro.obs.provenance.decision_records` reads
them back as numbered records.  Covers the emission paths (the IMS and
the list scheduler under ``tracing()``), the provenance aggregations
``repro explain`` renders, and the invariant everything else depends
on: logging decisions must not change the schedules or their work.
"""

import pytest

from repro.core import MachineDescription
from repro.errors import ScheduleError
from repro.machines import STUDY_MACHINES
from repro.obs import provenance, trace
from repro.scheduler import DependenceGraph, IterativeModuloScheduler
from repro.scheduler.list_scheduler import OperationDrivenScheduler
from repro.workloads import KERNELS, loop_suite
from tests.test_ims_reference import _fragmenting_loops


def _machine():
    return STUDY_MACHINES["cydra5-subset"]()


def _decisions(tracer):
    return provenance.decision_records(tracer.events)


class TestSchedulerEmission:
    def test_ims_emits_attempts_and_places(self):
        machine = _machine()
        graph = KERNELS["daxpy"]()
        with trace.tracing() as tracer:
            result = IterativeModuloScheduler(machine).schedule(graph)
        records = _decisions(tracer)
        kinds = {record["kind"] for record in records}
        assert provenance.ATTEMPT in kinds
        assert provenance.PLACE in kinds
        assert [r["seq"] for r in records] == list(range(len(records)))
        places = [
            r for r in records
            if r["kind"] in (provenance.PLACE, provenance.FORCE)
        ]
        # One placement record per final decision round at the served II.
        assert {r["op"] for r in places} >= set(result.times)
        ends = [
            r for r in records
            if r["kind"] == provenance.ATTEMPT and r["phase"] == "end"
        ]
        assert ends[-1]["succeeded"] is True
        assert ends[-1]["ii"] == result.ii

    def test_recording_does_not_change_schedules(self):
        fragment, fragmenting = _fragmenting_loops()
        runs = [(_machine(), graph) for graph in loop_suite(6)]
        runs += [(fragment, graph) for graph in fragmenting]
        forced = 0
        for machine, graph in runs:
            base = IterativeModuloScheduler(machine).schedule(graph)
            with trace.tracing() as tracer:
                again = IterativeModuloScheduler(machine).schedule(graph)
            forced += sum(
                r["kind"] == provenance.FORCE for r in _decisions(tracer)
            )
            assert again.times == base.times
            assert again.ii == base.ii
            assert again.chosen_opcodes == base.chosen_opcodes
            # The paper's check distribution and every work count stay
            # put: blame is read off the placements, never queried.
            assert again.check_distribution == base.check_distribution
            assert again.work.calls == base.work.calls
            assert again.work.units == base.work.units
        assert forced

    def test_list_scheduler_emits_places(self):
        machine = _machine()
        graph = KERNELS["daxpy"]()
        with trace.tracing() as tracer:
            result = OperationDrivenScheduler(machine).schedule(graph)
        places = [r for r in _decisions(tracer) if r["kind"] == "place"]
        assert {r["op"]: r["cycle"] for r in places} == result.times
        assert all(
            result.chosen_opcodes[r["op"]] == r["alternative"]
            for r in places
        )

    def test_give_up_is_the_last_decision(self):
        # budget_ratio=1 + no II slack is a known-infeasible setting for
        # tridiagonal on the Cydra 5 subset (see test_resilience).
        scheduler = IterativeModuloScheduler(
            _machine(), budget_ratio=1, max_ii_slack=0
        )
        graph = KERNELS["tridiagonal"]()
        with trace.tracing() as tracer:
            with pytest.raises(ScheduleError) as excinfo:
                scheduler.schedule(graph)
        last = _decisions(tracer)[-1]
        assert last["kind"] == provenance.GIVE_UP
        assert last["loop"] == graph.name
        assert tuple(last["ii_range"]) == excinfo.value.ii_range

    def test_list_give_up_carries_no_blame(self):
        machine = MachineDescription("unit", {"X": {"u": [0]}})
        graph = DependenceGraph("one")
        graph.add_operation("a", "X")
        # Boundary operations hold the unit over the whole search horizon.
        boundary = [("X", cycle) for cycle in range(300)]
        with trace.tracing() as tracer:
            with pytest.raises(ScheduleError):
                OperationDrivenScheduler(machine).schedule(graph, boundary)
        last = _decisions(tracer)[-1]
        assert last == {
            "seq": 0, "kind": provenance.GIVE_UP, "op": "a", "opcode": "X",
            "window": [0, 258],
        }


class TestProvenanceRollups:
    def test_cycle_ranges_collapse_runs(self):
        assert provenance.cycle_ranges([5, 3, 4, 9]) == [(3, 5), (9, 9)]
        assert provenance.cycle_ranges([]) == []

    def test_format_cycle_ranges(self):
        assert provenance.format_cycle_ranges([3, 4, 5, 9]) == "cycles 3-5, 9"
        assert provenance.format_cycle_ranges([7]) == "cycle 7"
        assert provenance.format_cycle_ranges([]) == "no cycles"
        text = provenance.format_cycle_ranges([1, 3, 5, 7, 9], limit=2)
        assert text.endswith(", ...")

    def test_pressure_and_blame_counts(self):
        records = [
            {"kind": "force", "ii": 3,
             "blame": {"resource": "bus", "cycle": 2, "kind": "reserved"}},
            {"kind": "force", "ii": 3,
             "blame": {"resource": "bus", "cycle": 2, "kind": "reserved"},
             "window_blame": [
                 {"resource": "alu", "cycle": 1, "kind": "reserved"},
             ]},
        ]
        pressure = provenance.pressure_histogram(records)
        assert pressure == {"bus": {2: 2}, "alu": {1: 1}}
        blame = provenance.blame_counts(records)
        assert list(blame.items()) == [("bus", 2), ("alu", 1)]

    def test_attempt_summaries_and_narrative(self):
        records = [
            {"kind": "attempt", "ii": 7, "phase": "start"},
            {"kind": "force", "ii": 7,
             "blame": {"resource": "fp_bus", "cycle": 3}},
            {"kind": "force", "ii": 7,
             "blame": {"resource": "fp_bus", "cycle": 4}},
            {"kind": "attempt", "ii": 7, "phase": "end",
             "succeeded": False, "budget_exceeded": True,
             "decisions": 40, "evictions_resource": 14,
             "evictions_dependence": 0},
            {"kind": "attempt", "ii": 8, "phase": "start"},
            {"kind": "attempt", "ii": 8, "phase": "end",
             "succeeded": True, "decisions": 12,
             "evictions_resource": 0, "evictions_dependence": 0},
        ]
        summaries = provenance.attempt_summaries(records)
        assert [s["ii"] for s in summaries] == [7, 8]
        failed, served = summaries
        assert failed["top_resource"] == "fp_bus"
        assert failed["forced"] == 2
        text = provenance.describe_attempt(failed)
        assert text.startswith("II=7 failed: fp_bus saturated at cycles 3-4")
        assert "14 evictions" in text
        assert "budget exhausted" in text
        assert provenance.describe_attempt(served) == (
            "II=8 succeeded: 12 decisions, 0 evictions"
        )

    def test_summarize_over_live_ledger(self):
        machine = _machine()
        with trace.tracing() as tracer:
            IterativeModuloScheduler(machine).schedule(KERNELS["daxpy"]())
        records = _decisions(tracer)
        rollup = provenance.summarize(records)
        assert rollup["records"] == len(records)
        assert rollup["attempts"]
        assert rollup["narrative"]
        assert rollup["attempts"][-1]["succeeded"] is True

    def test_eviction_counts(self):
        records = [
            {"kind": "evict", "op": "load1"},
            {"kind": "evict", "op": "load1"},
            {"kind": "evict", "op": "mul2"},
        ]
        assert provenance.eviction_counts(records) == {
            "load1": 2, "mul2": 1,
        }
