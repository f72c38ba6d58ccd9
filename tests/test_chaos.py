"""Tests for the chaos harness: every fault class detected or survived."""

import pytest

from repro.errors import ReproError
from repro.machines import example_machine, mips_r3000
from repro.resilience.chaos import FAULTS, DelayedClock, run_chaos
from repro.resilience.chaos import (
    FAULT_DROP_USAGE,
    FAULT_FLIP_CHECKSUM,
    FAULT_PHASE_DELAY,
    FAULT_SHIFT_USAGE,
    FAULT_TRUNCATE_WRITE,
    MODE_DETECTED,
    MODE_SURVIVED,
)


class TestChaosRun:
    @pytest.mark.parametrize("seed", range(5))
    def test_all_faults_handled_example(self, seed, tmp_path):
        report = run_chaos(
            example_machine(), seed=seed, workdir=str(tmp_path)
        )
        assert report.ok, report.render_text()
        assert {o.fault for o in report.outcomes} == set(FAULTS)

    def test_all_faults_handled_mips(self, tmp_path):
        report = run_chaos(mips_r3000(), seed=0, workdir=str(tmp_path))
        assert report.ok, report.render_text()

    def test_deterministic_in_seed(self, tmp_path):
        first = run_chaos(
            example_machine(), seed=7, workdir=str(tmp_path / "a")
        )
        second = run_chaos(
            example_machine(), seed=7, workdir=str(tmp_path / "b")
        )
        assert first.to_dict() == second.to_dict()

    def test_fault_subset(self, tmp_path):
        report = run_chaos(
            example_machine(),
            faults=[FAULT_TRUNCATE_WRITE],
            workdir=str(tmp_path),
        )
        assert len(report.outcomes) == 1
        assert report.outcomes[0].fault == FAULT_TRUNCATE_WRITE
        assert report.outcomes[0].mode == MODE_DETECTED

    def test_unknown_fault_rejected(self):
        with pytest.raises(ReproError):
            run_chaos(example_machine(), faults=["no-such-fault"])

    def test_report_schema(self, tmp_path):
        report = run_chaos(example_machine(), workdir=str(tmp_path))
        doc = report.to_dict()
        assert doc["schema"] == "repro-chaos-report"
        assert doc["version"] == 1
        assert doc["ok"] is True
        assert len(doc["outcomes"]) == len(FAULTS)

    def test_corruption_faults_survive_via_ladder(self, tmp_path):
        report = run_chaos(
            example_machine(),
            faults=[FAULT_DROP_USAGE, FAULT_SHIFT_USAGE],
            workdir=str(tmp_path),
        )
        for outcome in report.outcomes:
            assert outcome.mode == MODE_SURVIVED
            assert outcome.verified is True
            # The corruption forced a degradation off the reduced rung
            # (or was benign and the reduced rung verified anyway).
            assert outcome.rung in (
                "reduced", "partially-selected", "original"
            )

    def test_phase_delay_degrades_but_verifies(self, tmp_path):
        report = run_chaos(
            example_machine(),
            faults=[FAULT_PHASE_DELAY],
            workdir=str(tmp_path),
        )
        (outcome,) = report.outcomes
        assert outcome.handled
        assert outcome.verified is True

    def test_artifact_faults_detected(self, tmp_path):
        report = run_chaos(
            example_machine(),
            faults=[FAULT_TRUNCATE_WRITE, FAULT_FLIP_CHECKSUM],
            workdir=str(tmp_path),
        )
        for outcome in report.outcomes:
            assert outcome.handled
            assert outcome.mode == MODE_DETECTED
            assert "load refused" in outcome.detail


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
