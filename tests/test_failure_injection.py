"""Failure-injection tests: corrupted artifacts must be *detected*.

The paper's pitch is that manual reductions were error-prone and errors
silently produced wrong schedules.  This suite injects exactly those
errors — dropped usages, shifted usages, merged rows, forged reductions —
and asserts that the library's verification layers catch every one.
"""

import pytest

from repro.core import (
    ForbiddenLatencyMatrix,
    MachineDescription,
    assert_equivalent,
    machine_from_selection,
    matrices_equal,
    reduce_machine,
)
from repro.core.selection import SelectionResult
from repro.errors import EquivalenceError, ScheduleError
from repro.machines import cydra5_subset, example_machine, mips_r3000


def _drop_one_usage(machine, op, resource, cycle):
    operations = {}
    for name, table in machine.items():
        usages = {
            r: set(table.usage_set(r)) for r in table.resources
        }
        if name == op:
            usages[resource].discard(cycle)
        operations[name] = usages
    return MachineDescription(machine.name + "-corrupt", operations)


class TestCorruptedDescriptions:
    def test_dropped_usage_detected(self):
        machine = example_machine()
        # Dropping r3@4 would NOT change the matrix (the original is
        # redundant — the paper's point); dropping the endpoint r3@5
        # loses the distance-3 self-conflict of B.
        corrupt = _drop_one_usage(machine, "B", "r3", 5)
        with pytest.raises(EquivalenceError) as info:
            assert_equivalent(machine, corrupt)
        # The mismatch names the affected operation pair.
        pairs = {(x, y) for x, y, _a, _b in info.value.mismatches}
        assert ("B", "B") in pairs

    def test_every_single_usage_matters_on_reduced_machines(self):
        """Reduced descriptions are minimal for their objective: removing
        ANY usage from the reduced example machine changes the matrix."""
        machine = example_machine()
        reduced = reduce_machine(machine).reduced
        for op, table in reduced.items():
            for resource, cycle in table.iter_usages():
                corrupt = _drop_one_usage(reduced, op, resource, cycle)
                assert not matrices_equal(machine, corrupt), (
                    op, resource, cycle,
                )

    def test_shifted_usage_detected(self):
        machine = mips_r3000()
        operations = {op: table for op, table in machine.items()}
        operations["fdiv_d"] = operations["fdiv_d"].shifted(1)
        corrupt = MachineDescription("shifted", operations)
        assert not matrices_equal(machine, corrupt)

    def test_merged_rows_detected(self):
        """Merging two distinct rows into one (a classic hand-reduction
        mistake) adds phantom forbidden latencies."""
        machine = example_machine()
        operations = {}
        for op, table in machine.items():
            usages = {}
            for resource in table.resources:
                target = "r12" if resource in ("r1", "r2") else resource
                usages.setdefault(target, set()).update(
                    table.usage_set(resource)
                )
            operations[op] = usages
        corrupt = MachineDescription("merged", operations)
        diffs = ForbiddenLatencyMatrix.from_machine(machine).differences(
            ForbiddenLatencyMatrix.from_machine(corrupt)
        )
        assert any(extra for _x, _y, _missing, extra in diffs)


class TestForgedReductions:
    def test_under_covering_selection_rejected(self):
        """machine_from_selection + verification must reject a selection
        that misses latencies."""
        machine = example_machine()
        matrix = ForbiddenLatencyMatrix.from_machine(machine)
        forged = SelectionResult(
            resources=[frozenset({("A", 1), ("B", 0)})],  # misses F[B][B]
            origins=[frozenset({("A", 1), ("B", 0)})],
            objective="res-uses",
            word_cycles=1,
        )
        reduced = machine_from_selection(machine, forged)
        assert matrix.differences(
            ForbiddenLatencyMatrix.from_machine(reduced)
        )

    def test_over_constraining_selection_rejected(self):
        machine = example_machine()
        forged = SelectionResult(
            resources=[
                frozenset({("A", 1), ("B", 0)}),
                frozenset({("B", 0), ("B", 1), ("B", 2), ("B", 3)}),
                frozenset({("A", 0), ("B", 0)}),  # forbids allowed 0-pair
            ],
            origins=[frozenset()] * 3,
            objective="res-uses",
            word_cycles=1,
        )
        reduced = machine_from_selection(machine, forged)
        assert not matrices_equal(machine, reduced)


class TestSchedulerGuards:
    def test_scheduler_verifier_catches_planted_conflict(self):
        """The scheduler's final _verify rejects schedules with MRT
        conflicts even if the query module were broken."""
        from repro.scheduler import IterativeModuloScheduler
        from repro.workloads import KERNELS

        scheduler = IterativeModuloScheduler(cydra5_subset())
        result = scheduler.schedule(KERNELS["daxpy"]())
        # Plant a conflict: move one load onto the other's slot & port.
        loads = [
            name
            for name, opcode in result.chosen_opcodes.items()
            if opcode.startswith("load_s")
        ]
        result.times[loads[0]] = result.times[loads[1]]
        result.chosen_opcodes[loads[0]] = result.chosen_opcodes[loads[1]]
        with pytest.raises(ScheduleError):
            scheduler._verify(result)

    def test_dependence_verifier_catches_planted_violation(self):
        from repro.scheduler import IterativeModuloScheduler
        from repro.workloads import KERNELS

        scheduler = IterativeModuloScheduler(cydra5_subset())
        result = scheduler.schedule(KERNELS["inner-product"]())
        result.times["mul"] = result.times["acc"] + 100
        with pytest.raises(ScheduleError):
            result.graph.verify_schedule(result.times, ii=result.ii)


class TestFallbackLadderUnderFaults:
    """Every chaos fault, driven through the fallback ladder: the ladder
    must name the rung that served and the served description must pass
    assert_equivalent."""

    def _assert_served_safely(self, machine, outcome):
        assert_equivalent(machine, outcome.machine)

    @pytest.mark.parametrize("seed", range(3))
    def test_drop_usage_fault(self, seed):
        from repro.fuzz.plans import _rng, corrupt_drop_usage
        from repro.resilience.fallback import reduce_with_fallback
        from repro.scheduler.ladder import FallbackPolicy

        machine = example_machine()
        rng = _rng(machine, seed, "drop-usage")
        outcome = reduce_with_fallback(
            machine,
            FallbackPolicy(mutate_reduced=lambda m: corrupt_drop_usage(m, rng)),
        )
        assert outcome.rung in ("reduced", "partially-selected", "original")
        self._assert_served_safely(machine, outcome)

    @pytest.mark.parametrize("seed", range(3))
    def test_shift_usage_fault(self, seed):
        from repro.fuzz.plans import _rng, corrupt_shift_usage
        from repro.resilience.fallback import reduce_with_fallback
        from repro.scheduler.ladder import FallbackPolicy

        machine = example_machine()
        rng = _rng(machine, seed, "shift-usage")
        outcome = reduce_with_fallback(
            machine,
            FallbackPolicy(
                mutate_reduced=lambda m: corrupt_shift_usage(m, rng)
            ),
        )
        # Shifting a whole table always changes the matrix of the tiny
        # example machine, so the ladder must degrade off the top rung.
        assert outcome.degraded
        self._assert_served_safely(machine, outcome)

    def test_phase_delay_fault(self):
        from repro.fuzz.plans import DelayedClock
        from repro.resilience.fallback import reduce_with_fallback
        from repro.scheduler.ladder import FallbackPolicy

        machine = example_machine()
        outcome = reduce_with_fallback(
            machine,
            FallbackPolicy(deadline_s=30.0, clock=DelayedClock(trip=3)),
        )
        assert outcome.degraded
        assert any(
            a.error_type == "BudgetExceeded" for a in outcome.attempts
        )
        self._assert_served_safely(machine, outcome)

    def test_truncate_write_fault(self, tmp_path):
        from repro.errors import ArtifactIntegrityError
        from repro.fuzz.plans import _rng, truncate_file
        from repro.resilience import artifacts

        machine = example_machine()
        path = str(tmp_path / "m.mdl")
        artifacts.write_machine(path, machine)
        truncate_file(path, _rng(machine, 0, "truncate-write"))
        with pytest.raises(ArtifactIntegrityError):
            artifacts.load_machine(path)

    def test_flip_checksum_fault(self, tmp_path):
        from repro.errors import ArtifactIntegrityError
        from repro.fuzz.plans import _rng, flip_checksum
        from repro.resilience import artifacts

        machine = example_machine()
        path = str(tmp_path / "m.mdl")
        artifacts.write_machine(path, machine)
        flip_checksum(path, _rng(machine, 0, "flip-checksum"))
        with pytest.raises(ArtifactIntegrityError):
            artifacts.load_machine(path)


class TestBudgetExceededProgression:
    """Property: an IMS attempt that exhausts its decision budget is
    always followed by an attempt at II+1, or by a clean
    :class:`ScheduleError` carrying the attempt history."""

    def _check_progression(self, attempts, mii):
        assert attempts, "at least one attempt must be recorded"
        assert attempts[0].ii == mii
        for prev, cur in zip(attempts, attempts[1:]):
            assert prev.budget_exceeded and not prev.succeeded
            assert cur.ii == prev.ii + 1

    def test_progression_properties(self):
        try:
            from hypothesis import given, settings
            from hypothesis import strategies as st
        except ImportError:  # pragma: no cover
            pytest.skip("hypothesis unavailable")

        from repro.scheduler import IterativeModuloScheduler
        from repro.scheduler.ddg import DependenceGraph

        machine = cydra5_subset()
        opcodes = ("iadd", "fadd_s", "fmul_s", "load_s", "store_s")

        @settings(max_examples=15, deadline=None)
        @given(
            data=st.data(),
            num_ops=st.integers(min_value=2, max_value=8),
            budget_ratio=st.integers(min_value=1, max_value=3),
            slack=st.integers(min_value=0, max_value=4),
        )
        def run(data, num_ops, budget_ratio, slack):
            graph = DependenceGraph("prop")
            for i in range(num_ops):
                graph.add_operation(
                    "op%d" % i,
                    data.draw(st.sampled_from(opcodes), label="opcode"),
                )
            for i in range(1, num_ops):
                if data.draw(st.booleans(), label="edge"):
                    graph.add_dependence(
                        "op%d" % (i - 1), "op%d" % i,
                        latency=data.draw(
                            st.integers(min_value=0, max_value=4),
                            label="latency",
                        ),
                    )
            scheduler = IterativeModuloScheduler(
                machine, budget_ratio=budget_ratio, max_ii_slack=slack
            )
            try:
                result = scheduler.schedule(graph)
            except ScheduleError as exc:
                self._check_progression(exc.attempts, exc.ii_range[0])
                assert exc.ii_range == (
                    exc.attempts[0].ii, exc.attempts[0].ii + slack
                )
                assert exc.budget_exceeded == any(
                    a.budget_exceeded for a in exc.attempts
                )
            else:
                self._check_progression(result.attempts, result.mii)
                assert result.attempts[-1].succeeded
                assert result.attempts[-1].ii == result.ii

        run()

    def test_budget_exceeded_then_ii_plus_one_concrete(self):
        """Deterministic witness of the property: tridiagonal under a
        starved budget fails at MII, then retries at exactly MII+1."""
        from repro.scheduler import IterativeModuloScheduler
        from repro.workloads import KERNELS

        scheduler = IterativeModuloScheduler(
            cydra5_subset(), budget_ratio=1, max_ii_slack=8
        )
        result = scheduler.schedule(KERNELS["tridiagonal"]())
        assert result.attempts[0].budget_exceeded
        self._check_progression(result.attempts, result.mii)
