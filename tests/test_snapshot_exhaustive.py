"""Tests for the exhaustive II search."""

import pytest

from repro.machines import cydra5_subset
from repro.scheduler import (
    DependenceGraph,
    IterativeModuloScheduler,
    SearchBudgetExceeded,
    find_schedule_at_ii,
    is_ii_feasible,
)
from repro.workloads import KERNELS, loop_suite


class TestExhaustiveSearch:
    @pytest.fixture(scope="class")
    def machine(self):
        return cydra5_subset()

    def test_finds_schedule_at_mii_for_kernels(self, machine):
        scheduler = IterativeModuloScheduler(machine)
        for name in ("daxpy", "inner-product", "first-difference"):
            result = scheduler.schedule(KERNELS[name]())
            times = find_schedule_at_ii(machine, KERNELS[name](), result.mii)
            assert times is not None

    def test_infeasible_ii_detected(self, machine):
        graph = DependenceGraph("two-movs")
        graph.add_operation("m1", "fmul_s")
        graph.add_operation("m2", "fmul_s")
        # Two multiplier ops cannot share II=1 (fm.issue once per cycle).
        assert not is_ii_feasible(machine, graph, 1)
        assert is_ii_feasible(machine, graph, 2)

    def test_found_schedules_verify(self, machine):
        graph = KERNELS["tridiagonal"]()
        result = IterativeModuloScheduler(machine).schedule(graph)
        times = find_schedule_at_ii(machine, KERNELS["tridiagonal"](), result.ii)
        assert times is not None
        # find_schedule_at_ii verifies internally; double-check anyway.
        KERNELS["tridiagonal"]().verify_schedule(times, ii=result.ii)

    def test_budget_exceeded_raises(self, machine):
        big = loop_suite(1)[0]
        with pytest.raises(SearchBudgetExceeded):
            find_schedule_at_ii(machine, big, 40, node_limit=3)

    def test_ims_agrees_with_exhaustive_on_tiny_loops(self, machine):
        """The audit: IMS rarely misses a feasible MII."""
        scheduler = IterativeModuloScheduler(machine)
        missed = checked = 0
        for graph in loop_suite(60, seed=21):
            if graph.num_operations > 10:
                continue
            result = scheduler.schedule(graph)
            checked += 1
            if not result.optimal and is_ii_feasible(
                machine, graph, result.mii
            ):
                missed += 1
        assert checked >= 10
        assert missed <= max(1, checked // 20)
