"""The scheduling decision ledger and its provenance rollups.

Covers the ring buffer itself (bounds, tail, nesting), the scheduler
emission paths (IMS and the list scheduler under ``recording()``),
the provenance aggregations ``repro explain`` renders, ledger tails on
``ScheduleError`` and the fallback ladder, and the invariant everything
else depends on: recording must not change the schedules.
"""

import pytest

from repro.errors import ScheduleError
from repro.machines import STUDY_MACHINES
from repro.obs import ledger as obs_ledger
from repro.obs import provenance
from repro.scheduler import IterativeModuloScheduler
from repro.scheduler.list_scheduler import OperationDrivenScheduler
from repro.workloads import KERNELS, loop_suite


def _machine():
    return STUDY_MACHINES["cydra5-subset"]()


class TestDecisionLedger:
    def test_ring_is_bounded_and_counts_drops(self):
        ledger = obs_ledger.DecisionLedger(capacity=4)
        for index in range(10):
            ledger.record(obs_ledger.PLACE, {"op": "op%d" % index})
        assert len(ledger) == 4
        assert ledger.emitted == 10
        assert ledger.dropped == 6
        # The ring keeps the newest records, sequence numbers intact.
        assert [r.seq for r in ledger] == [6, 7, 8, 9]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            obs_ledger.DecisionLedger(capacity=0)

    def test_tail_returns_newest_last_dicts(self):
        ledger = obs_ledger.DecisionLedger()
        ledger.record(obs_ledger.PLACE, {"op": "a"})
        ledger.record(obs_ledger.EVICT, {"op": "b"})
        ledger.record(obs_ledger.PLACE, {"op": "c"})
        tail = ledger.tail(2)
        assert [t["op"] for t in tail] == ["b", "c"]
        assert tail[-1]["kind"] == obs_ledger.PLACE
        assert ledger.tail(0) == []

    def test_recording_restores_previous_ledger(self):
        assert obs_ledger.current() is None
        with obs_ledger.recording() as outer:
            assert obs_ledger.current() is outer
            with obs_ledger.recording() as inner:
                assert obs_ledger.current() is inner
            assert obs_ledger.current() is outer
        assert obs_ledger.current() is None

    def test_recording_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with obs_ledger.recording():
                raise RuntimeError("boom")
        assert obs_ledger.current() is None

    def test_active_tail_is_none_when_off(self):
        assert obs_ledger.active_tail() is None

    def test_start_stop_round_trip(self):
        ledger = obs_ledger.start(capacity=8)
        try:
            assert obs_ledger.enabled()
            assert obs_ledger.current() is ledger
        finally:
            stopped = obs_ledger.stop()
        assert stopped is ledger
        assert not obs_ledger.enabled()

    def test_clear_resets_counts(self):
        ledger = obs_ledger.DecisionLedger(capacity=2)
        for _ in range(5):
            ledger.record(obs_ledger.PLACE, {})
        ledger.clear()
        assert len(ledger) == 0
        assert ledger.dropped == 0


class TestSchedulerEmission:
    def test_ims_emits_attempts_and_places(self):
        machine = _machine()
        graph = KERNELS["daxpy"]()
        with obs_ledger.recording() as ledger:
            result = IterativeModuloScheduler(machine).schedule(graph)
        kinds = {record.kind for record in ledger}
        assert obs_ledger.ATTEMPT in kinds
        assert obs_ledger.PLACE in kinds
        places = [
            r for r in ledger if r.kind in (obs_ledger.PLACE, obs_ledger.FORCE)
        ]
        # One placement record per final decision round at the served II.
        assert {r.data["op"] for r in places} >= set(result.times)
        ends = [
            r.data for r in ledger
            if r.kind == obs_ledger.ATTEMPT and r.data["phase"] == "end"
        ]
        assert ends[-1]["succeeded"] is True
        assert ends[-1]["ii"] == result.ii

    def test_recording_does_not_change_schedules(self):
        machine = _machine()
        for graph in loop_suite(6):
            base = IterativeModuloScheduler(machine).schedule(graph)
            with obs_ledger.recording():
                again = IterativeModuloScheduler(machine).schedule(graph)
            assert again.times == base.times
            assert again.ii == base.ii
            assert again.chosen_opcodes == base.chosen_opcodes
            # The paper's check-distribution metric must not shift either:
            # attributed probes charge ATTRIBUTE, never CHECK.
            assert again.check_distribution == base.check_distribution

    def test_list_scheduler_emits_places(self):
        machine = _machine()
        graph = KERNELS["daxpy"]()
        with obs_ledger.recording() as ledger:
            OperationDrivenScheduler(machine).schedule(graph)
        assert any(r.kind == obs_ledger.PLACE for r in ledger)

    def test_give_up_attaches_ledger_tail(self):
        # budget_ratio=1 + no II slack is a known-infeasible setting for
        # tridiagonal on the Cydra 5 subset (see test_resilience).
        scheduler = IterativeModuloScheduler(
            _machine(), budget_ratio=1, max_ii_slack=0
        )
        graph = KERNELS["tridiagonal"]()
        with obs_ledger.recording():
            with pytest.raises(ScheduleError) as excinfo:
                scheduler.schedule(graph)
        assert excinfo.value.ledger_tail is not None
        kinds = {record["kind"] for record in excinfo.value.ledger_tail}
        assert obs_ledger.GIVE_UP in kinds

    def test_error_tail_is_none_without_ledger(self):
        scheduler = IterativeModuloScheduler(
            _machine(), budget_ratio=1, max_ii_slack=0
        )
        with pytest.raises(ScheduleError) as excinfo:
            scheduler.schedule(KERNELS["tridiagonal"]())
        assert excinfo.value.ledger_tail is None


class TestFallbackTails:
    def test_failed_rung_carries_ledger_tail(self, monkeypatch):
        from repro.scheduler import ladder

        monkeypatch.setattr(ladder, "IMS_ESCALATION", ((1, 0), (6, 16)))
        machine = _machine()
        graph = KERNELS["tridiagonal"]()
        with obs_ledger.recording():
            outcome = ladder.schedule_with_fallback(machine, graph)
        failed = [a for a in outcome.attempts if a.failed]
        assert failed
        assert any(a.ledger_tail for a in failed)
        assert outcome.escalation_ledger
        # Without a ledger the same ladder still works, tails just absent.
        outcome2 = ladder.schedule_with_fallback(machine, graph)
        assert outcome2.escalation_ledger == []


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
        with obs_ledger.recording() as ledger:
            IterativeModuloScheduler(machine).schedule(KERNELS["daxpy"]())
        rollup = provenance.summarize(ledger)
        assert rollup["records"] == len(ledger)
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
