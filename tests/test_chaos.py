"""Tests for the chaos plan: every phase/fault pair detected or survived."""

import pytest

from repro.errors import ReproError
from repro.fuzz.plans import (
    FAULT_DROP_USAGE,
    FAULT_FLIP_CHECKSUM,
    FAULT_PHASE_DELAY,
    FAULT_SHIFT_USAGE,
    FAULT_TRUNCATE_WRITE,
    MODE_DETECTED,
    MODE_SURVIVED,
    PHASE_ARTIFACT,
    PHASE_FAULTS,
    PHASE_REDUCE,
    DelayedClock,
    FaultPlan,
    PlanStep,
    chaos_plan,
    run_plan,
)
from repro.machines import example_machine, mips_r3000


def _plan(phase, *faults):
    return FaultPlan(
        seed=0, steps=tuple(PlanStep(phase, fault) for fault in faults)
    )


class TestChaosRun:
    @pytest.mark.parametrize("seed", range(5))
    def test_all_faults_handled_example(self, seed, tmp_path):
        report = run_plan(example_machine(), chaos_plan(seed), str(tmp_path))
        assert report.ok, report.render_text()
        assert [o.step for o in report.outcomes] == list(
            chaos_plan(seed).steps
        )

    def test_all_faults_handled_mips(self, tmp_path):
        report = run_plan(mips_r3000(), chaos_plan(0), str(tmp_path))
        assert report.ok, report.render_text()

    def test_deterministic_in_seed(self, tmp_path):
        first = run_plan(
            example_machine(), chaos_plan(7), str(tmp_path / "a")
        )
        second = run_plan(
            example_machine(), chaos_plan(7), str(tmp_path / "b")
        )
        assert first.to_dict() == second.to_dict()

    def test_fault_subset(self, tmp_path):
        report = run_plan(
            example_machine(),
            _plan(PHASE_ARTIFACT, FAULT_TRUNCATE_WRITE),
            str(tmp_path),
        )
        assert len(report.outcomes) == 1
        assert report.outcomes[0].step.fault == FAULT_TRUNCATE_WRITE
        assert report.outcomes[0].mode == MODE_DETECTED

    def test_unknown_fault_rejected(self):
        for step in (
            PlanStep(PHASE_REDUCE, "no-such-fault"),
            PlanStep("no-such-phase", FAULT_DROP_USAGE),
            PlanStep(PHASE_ARTIFACT, FAULT_PHASE_DELAY),
        ):
            with pytest.raises(ReproError):
                run_plan(example_machine(), FaultPlan(0, (step,)))

    def test_report_schema(self, tmp_path):
        report = run_plan(example_machine(), chaos_plan(0), str(tmp_path))
        doc = report.to_dict()
        assert doc["schema"] == "repro-chaos-report"
        assert doc["version"] == 2
        assert doc["ok"] is True
        assert doc["plan"] == chaos_plan(0).to_dict()
        assert len(doc["outcomes"]) == 9

    def test_corruption_faults_survive_via_ladder(self, tmp_path):
        report = run_plan(
            example_machine(),
            _plan(PHASE_REDUCE, FAULT_DROP_USAGE, FAULT_SHIFT_USAGE),
            str(tmp_path),
        )
        for outcome in report.outcomes:
            assert outcome.handled
            assert outcome.mode == MODE_SURVIVED
            # The corruption forced a degradation off the reduced rung
            # (or was benign and the reduced rung verified anyway).
            assert outcome.rung in (
                "reduced", "partially-selected", "original"
            )

    def test_phase_delay_degrades_but_verifies(self, tmp_path):
        report = run_plan(
            example_machine(),
            _plan(PHASE_REDUCE, FAULT_PHASE_DELAY),
            str(tmp_path),
        )
        (outcome,) = report.outcomes
        assert outcome.handled
        assert outcome.rung != "reduced"

    def test_artifact_faults_detected(self, tmp_path):
        report = run_plan(
            example_machine(),
            _plan(PHASE_ARTIFACT, FAULT_TRUNCATE_WRITE, FAULT_FLIP_CHECKSUM),
            str(tmp_path),
        )
        for outcome in report.outcomes:
            assert outcome.handled
            assert outcome.mode == MODE_DETECTED
            assert "load refused" in outcome.detail


class TestChaosPlan:
    def test_holds_every_phase_fault_pair_once(self):
        pairs = [(step.phase, step.fault) for step in chaos_plan(3).steps]
        assert sorted(pairs) == sorted(
            (phase, fault)
            for phase, faults in PHASE_FAULTS.items()
            for fault in faults
        )
        assert len(pairs) == len(set(pairs)) == 9

    def test_served_description_is_judged_not_the_ladder(
        self, tmp_path, monkeypatch
    ):
        """A ladder that serves a corrupt description on the reduced rung
        leaves the step unhandled, whatever the ladder believes."""
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
        report = run_plan(
            example_machine(), _plan(PHASE_REDUCE, FAULT_DROP_USAGE),
            str(tmp_path),
        )
        (outcome,) = report.outcomes
        assert not outcome.handled and not report.ok
        assert outcome.rung == RUNG_REDUCED
        assert "NOT equivalent" in outcome.detail


class TestDelayedClock:
    def test_trips_after_n_calls(self):
        clock = DelayedClock(trip=3)
        small = [clock() for _ in range(3)]
        assert all(v < 1e-6 for v in small)
        assert clock() > 1000.0

    def test_post_trip_intervals_stay_huge(self):
        """Budgets constructed after the trip must still blow their
        deadlines: consecutive readings differ by >= 1000s."""
        clock = DelayedClock(trip=1)
        clock()
        a, b = clock(), clock()
        assert b - a >= 1000.0
