"""Tests for the resilience layer: budgets, artifacts, fallback ladders."""

import json
import os

import pytest

from repro._atomic import atomic_write_text
from repro.core import assert_equivalent, matrices_equal, reduce_machine
from repro.errors import (
    ArtifactIntegrityError,
    BudgetExceeded,
    ScheduleError,
)
from repro.machines import cydra5_subset, example_machine
from repro.resilience import artifacts
from repro.resilience.budget import Budget
from repro.resilience.fallback import (
    RUNG_ORIGINAL,
    RUNG_PARTIAL,
    RUNG_REDUCED,
    reduce_with_fallback,
)
from repro.scheduler import ladder
from repro.scheduler.ladder import (
    IMS_ESCALATION,
    RUNG_IMS,
    RUNG_LIST,
    FallbackPolicy,
    schedule_with_fallback,
)
from repro.workloads import KERNELS


class FakeClock:
    """Manual monotonic clock for deterministic deadline tests."""

    def __init__(self):
        self.now = 0.0

    def advance(self, seconds):
        self.now += seconds

    def __call__(self):
        return self.now


class TestBudget:
    def test_deadline_raises_with_context(self):
        clock = FakeClock()
        budget = Budget(deadline_s=10.0, clock=clock, label="req-1")
        budget.checkpoint("phase_a", units=5, progress="5/10")
        clock.advance(11.0)
        with pytest.raises(BudgetExceeded) as info:
            budget.checkpoint("phase_a", units=5, progress="9/10",
                              partial=["best"])
        exc = info.value
        assert exc.phase == "phase_a"
        assert exc.elapsed_s == pytest.approx(11.0)
        assert exc.deadline_s == 10.0
        assert exc.units == 10
        assert exc.progress == "9/10"
        assert exc.partial == ["best"]
        assert "req-1" in str(exc)

    def test_unit_cap_raises(self):
        budget = Budget(max_units=100)
        budget.checkpoint("p", units=99)
        with pytest.raises(BudgetExceeded) as info:
            budget.checkpoint("p", units=2)
        assert info.value.units == 101
        assert info.value.max_units == 100

    def test_unlimited_budget_never_raises(self):
        budget = Budget()
        for _ in range(1000):
            budget.checkpoint("p", units=10**9)
        assert not budget.exhausted()

    def test_restart_grants_fresh_allowance(self):
        clock = FakeClock()
        budget = Budget(deadline_s=5.0, max_units=10, clock=clock)
        clock.advance(4.0)
        budget.checkpoint("p", units=9)
        budget.restart()
        clock.advance(4.0)
        budget.checkpoint("p", units=9)  # would raise without restart

    def test_exhausted_probe_does_not_raise(self):
        clock = FakeClock()
        budget = Budget(deadline_s=1.0, clock=clock)
        assert not budget.exhausted()
        clock.advance(2.0)
        assert budget.exhausted()


class TestBudgetedPipeline:
    def test_reduce_budget_exceeded_names_phase(self):
        with pytest.raises(BudgetExceeded) as info:
            reduce_machine(example_machine(), budget=Budget(max_units=1))
        assert info.value.phase == "forbidden_matrix"

    def test_reduce_within_budget_matches_unbudgeted(self):
        machine = example_machine()
        plain = reduce_machine(machine)
        budgeted = reduce_machine(machine, budget=Budget(max_units=10**9))
        assert matrices_equal(plain.reduced, budgeted.reduced)

    def test_selection_partial_carries_pool(self):
        with pytest.raises(BudgetExceeded) as info:
            reduce_machine(
                cydra5_subset(), budget=Budget(max_units=200)
            )
        exc = info.value
        assert exc.phase == "selection"
        assert isinstance(exc.partial, dict)
        assert "pool" in exc.partial and exc.partial["pool"]
        assert exc.partial["total"] >= exc.partial["covered"] >= 0


class TestAtomicWrite:
    def test_failed_write_leaves_no_partial_file(self, tmp_path,
                                                 monkeypatch):
        target = tmp_path / "out.json"

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", broken_replace)
        with pytest.raises(OSError):
            atomic_write_text(str(target), "x" * 4096)
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_overwrites_atomically(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(str(target), "first")
        atomic_write_text(str(target), "second")
        assert target.read_text() == "second"
        assert list(tmp_path.iterdir()) == [target]


class TestArtifacts:
    def test_machine_round_trip(self, tmp_path):
        machine = example_machine()
        path = str(tmp_path / "m.mdl")
        header = artifacts.write_machine(path, machine)
        assert header["kind"] == "mdl"
        loaded = artifacts.load_machine(path)
        assert matrices_equal(machine, loaded)

    def test_sidecar_is_valid_json_with_schema(self, tmp_path):
        path = str(tmp_path / "m.mdl")
        artifacts.write_machine(path, example_machine())
        with open(artifacts.sidecar_path(path)) as handle:
            header = json.load(handle)
        assert header["schema"] == artifacts.ARTIFACT_SCHEMA_NAME
        assert header["version"] == artifacts.ARTIFACT_SCHEMA_VERSION
        assert len(header["sha256"]) == 64

    def test_corrupt_content_rejected_with_digests(self, tmp_path):
        path = str(tmp_path / "m.mdl")
        artifacts.write_machine(path, example_machine())
        with open(path, "a") as handle:
            handle.write("# tampered\n")
        with pytest.raises(ArtifactIntegrityError) as info:
            artifacts.load_machine(path)
        exc = info.value
        assert exc.kind == "checksum"
        assert exc.expected and exc.actual and exc.expected != exc.actual
        assert exc.expected in str(exc) and exc.actual in str(exc)

    def test_missing_sidecar_rejected(self, tmp_path):
        path = str(tmp_path / "m.mdl")
        artifacts.write_machine(path, example_machine())
        os.unlink(artifacts.sidecar_path(path))
        with pytest.raises(ArtifactIntegrityError) as info:
            artifacts.load_machine(path)
        assert info.value.kind == "sidecar"

    def test_matrix_digest_catches_semantic_skew(self, tmp_path):
        """Content swapped for a *valid* but non-equivalent machine (with
        a matching byte checksum) still fails the matrix-digest check."""
        from repro import mdl
        from repro.machines import mips_r3000

        path = str(tmp_path / "m.mdl")
        artifacts.write_machine(path, example_machine())
        other_text = mdl.dumps(mips_r3000())
        side = artifacts.sidecar_path(path)
        header = json.loads(open(side).read())
        header["sha256"] = artifacts.content_digest(other_text)
        header["size"] = len(other_text.encode("utf-8"))
        atomic_write_text(side, json.dumps(header))
        atomic_write_text(path, other_text)
        with pytest.raises(ArtifactIntegrityError) as info:
            artifacts.load_machine(path)
        assert info.value.kind == "matrix-digest"

    def test_wrong_kind_rejected(self, tmp_path):
        path = str(tmp_path / "r.json")
        artifacts.write_json(path, {"a": 1}, kind="chaos")
        with pytest.raises(ArtifactIntegrityError) as info:
            artifacts.read_artifact(path, expect_kind="mdl")
        assert info.value.kind == "kind"

    def test_matrix_digest_stable_across_equivalent_machines(self):
        machine = example_machine()
        reduced = reduce_machine(machine).reduced
        assert artifacts.matrix_digest(machine) == (
            artifacts.matrix_digest(reduced)
        )


class TestReduceLadder:
    def test_healthy_machine_serves_reduced(self):
        outcome = reduce_with_fallback(example_machine())
        assert outcome.rung == RUNG_REDUCED
        assert not outcome.degraded
        assert outcome.reduction is not None
        assert outcome.certificate is not None

    def test_served_machine_always_verified(self):
        machine = example_machine()
        outcome = reduce_with_fallback(machine)
        assert_equivalent(machine, outcome.machine)

    def test_corrupt_reduction_degrades_to_partial(self):
        machine = example_machine()

        def corrupt(reduced):
            ops = {op: t for op, t in reduced.items()}
            first = sorted(ops)[0]
            ops[first] = ops[first].shifted(1)
            return type(reduced)(reduced.name + "-bad", ops)

        outcome = reduce_with_fallback(
            machine, FallbackPolicy(mutate_reduced=corrupt)
        )
        assert outcome.rung == RUNG_PARTIAL
        assert_equivalent(machine, outcome.machine)
        # Every reduced-rung attempt failed and was recorded.
        failed = [a for a in outcome.attempts if a.failed]
        assert len(failed) == 2  # one per objective
        assert all(a.rung == RUNG_REDUCED for a in failed)

    def test_zero_budget_degrades_to_original(self):
        machine = example_machine()
        outcome = reduce_with_fallback(
            machine, FallbackPolicy(max_units=0)
        )
        assert outcome.rung == RUNG_ORIGINAL
        assert outcome.machine is machine  # identity: exact by construction
        assert all(
            a.error_type == "BudgetExceeded"
            for a in outcome.attempts if a.failed
        )

    def test_retry_uses_second_objective(self):
        """When only the first objective's attempt fails, the retry with
        the word-uses objective can still serve the reduced rung."""
        machine = example_machine()
        calls = []

        def corrupt_first_only(reduced):
            calls.append(reduced.name)
            if len(calls) == 1:
                ops = {op: t for op, t in reduced.items()}
                first = sorted(ops)[0]
                ops[first] = ops[first].shifted(1)
                return type(reduced)(reduced.name + "-bad", ops)
            return reduced

        outcome = reduce_with_fallback(
            machine, FallbackPolicy(mutate_reduced=corrupt_first_only)
        )
        assert outcome.rung == RUNG_REDUCED
        assert len(calls) == 2
        assert outcome.attempts[0].failed and not outcome.attempts[1].failed


class TestScheduleLadder:
    def test_healthy_kernel_serves_ims(self):
        outcome = schedule_with_fallback(
            cydra5_subset(), KERNELS["daxpy"]()
        )
        assert outcome.rung == RUNG_IMS
        assert outcome.ii == outcome.mii
        assert outcome.result is not None

    def test_zero_budget_degrades_to_list(self):
        machine = cydra5_subset()
        graph = KERNELS["daxpy"]()
        outcome = schedule_with_fallback(
            machine, graph, FallbackPolicy(max_units=0)
        )
        assert outcome.rung == RUNG_LIST
        assert outcome.degraded
        assert outcome.ii >= outcome.mii
        # The flat schedule still satisfies every dependence and the MRT.
        graph.verify_schedule(outcome.times, ii=outcome.ii)
        failed = [a for a in outcome.attempts if a.failed]
        assert len(failed) == len(IMS_ESCALATION)
        assert all(a.error_type == "BudgetExceeded" for a in failed)

    def test_flat_schedule_covers_recurrences(self):
        machine = cydra5_subset()
        graph = KERNELS["inner-product"]()
        outcome = schedule_with_fallback(
            machine, graph, FallbackPolicy(max_units=0)
        )
        assert outcome.rung == RUNG_LIST
        graph.verify_schedule(outcome.times, ii=outcome.ii)

    def test_escalation_ladder_is_tried_in_order(self, monkeypatch):
        monkeypatch.setattr(ladder, "IMS_ESCALATION", ((6, 16), (12, 32)))
        outcome = schedule_with_fallback(
            cydra5_subset(), KERNELS["daxpy"](), FallbackPolicy(max_units=0)
        )
        failed = [a for a in outcome.attempts if a.failed]
        assert [a.detail for a in failed] == [
            "budget_ratio=6 max_ii_slack=16",
            "budget_ratio=12 max_ii_slack=32",
        ]

    def test_impossible_graph_raises_clean_schedule_error(self):
        from repro.scheduler.ddg import DependenceGraph

        machine = cydra5_subset()
        graph = DependenceGraph("impossible")
        graph.add_operation("a", "no_such_opcode")
        with pytest.raises((ScheduleError, Exception)):
            schedule_with_fallback(machine, graph)


class TestScheduleErrorAttributes:
    def test_give_up_carries_ii_range_and_attempts(self):
        from repro.scheduler import IterativeModuloScheduler

        scheduler = IterativeModuloScheduler(
            cydra5_subset(), budget_ratio=1, max_ii_slack=0
        )
        with pytest.raises(ScheduleError) as info:
            scheduler.schedule(KERNELS["tridiagonal"]())
        exc = info.value
        assert exc.ii_range is not None
        assert exc.ii_range[0] <= exc.ii_range[1]
        assert exc.attempts and exc.attempts[0].ii == exc.ii_range[0]
        assert exc.budget_exceeded is True
