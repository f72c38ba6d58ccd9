"""Tests for the operation-driven (critical-path-first) block scheduler."""

import pytest

from repro.core import MachineDescription, schedule_is_contention_free
from repro.errors import ScheduleError
from repro.scheduler import DependenceGraph, OperationDrivenScheduler, chain
from repro.machines import example_machine


@pytest.fixture
def machine():
    return example_machine()


@pytest.fixture
def scheduler(machine):
    return OperationDrivenScheduler(machine)


def _resource_check(machine, result):
    placements = [
        (result.chosen_opcodes[name], time)
        for name, time in result.times.items()
    ]
    assert schedule_is_contention_free(machine, placements)


class TestBasics:
    def test_chain_schedules_in_order(self, scheduler, machine):
        g = chain("c", ["A", "A", "A"], latency=2)
        result = scheduler.schedule(g)
        assert result.times["n0"] < result.times["n1"] < result.times["n2"]
        result.graph.verify_schedule(result.times)
        _resource_check(machine, result)

    def test_resource_conflicts_avoided(self, scheduler, machine):
        g = DependenceGraph("par")
        for i in range(4):
            g.add_operation("b%d" % i, "B")
        result = scheduler.schedule(g)
        _resource_check(machine, result)
        # B self-conflicts at distances 0..3, so issues are >=4 apart.
        times = sorted(result.times.values())
        assert all(b - a >= 4 for a, b in zip(times, times[1:]))

    def test_length_property(self, scheduler):
        g = chain("c", ["A"], latency=1)
        result = scheduler.schedule(g)
        assert result.length == result.times["n0"] + 1

    def test_critical_path_first_order(self, scheduler):
        """A successor can be placed before a late predecessor is; the
        predecessor must then respect the successor's deadline."""
        g = DependenceGraph("v")
        g.add_operation("late", "A")
        g.add_operation("deep1", "A")
        g.add_operation("deep2", "A")
        g.add_operation("join", "A")
        g.add_dependence("deep1", "deep2", 5)
        g.add_dependence("deep2", "join", 5)
        g.add_dependence("late", "join", 1)
        result = scheduler.schedule(g)
        result.graph.verify_schedule(result.times)

    def test_cyclic_block_rejected(self, scheduler):
        g = DependenceGraph("cyc")
        g.add_operation("a", "A")
        g.add_operation("b", "A")
        g.add_dependence("a", "b", 1)
        g.add_dependence("b", "a", 1)
        with pytest.raises(ScheduleError):
            scheduler.schedule(g)

    def test_plain_scheduler_fails_on_tricky(self, scheduler):
        """A zero-latency pred/succ pair where height order places the
        successor first into the only slot the predecessor could use:
        the greedy scheduler never moves a placed operation, so it
        fails cleanly."""
        g = DependenceGraph("tricky")
        g.add_operation("a_succ", "A")
        g.add_operation("z_pred", "A")
        g.add_dependence("z_pred", "a_succ", 0)
        with pytest.raises(ScheduleError):
            scheduler.schedule(g)


class TestBoundaryConditions:
    def test_dangling_requirements_respected(self, scheduler, machine):
        """A B issued at cycle -6 by a predecessor block still holds r4
        in cycles 0..1 of this block, pushing our B out of cycle -5..-3
        equivalents."""
        g = DependenceGraph("blk")
        g.add_operation("b", "B")
        clean = scheduler.schedule(g)
        dangling = scheduler.schedule(g, boundary=[("B", -3)])
        assert clean.times["b"] == 0
        assert dangling.times["b"] >= 1  # 0..3 would clash at distance <=3

    def test_boundary_at_positive_cycle(self, scheduler):
        g = DependenceGraph("blk")
        g.add_operation("a", "A")
        result = scheduler.schedule(g, boundary=[("A", 0)])
        assert result.times["a"] != 0

    def test_multiple_boundary_ops(self, scheduler):
        g = DependenceGraph("blk")
        g.add_operation("b", "B")
        result = scheduler.schedule(
            g, boundary=[("B", -2), ("B", -6)]
        )
        # B conflicts with B at distances -3..3: earliest legal is 2.
        assert result.times["b"] >= 2


class TestAlternativesAndRepresentations:
    def test_alternatives_split_across_pipes(self, dual_pipe):
        scheduler = OperationDrivenScheduler(dual_pipe)
        g = DependenceGraph("movs")
        g.add_operation("m1", "mov")
        g.add_operation("m2", "mov")
        result = scheduler.schedule(g)
        chosen = sorted(result.chosen_opcodes.values())
        times = result.times
        if times["m1"] == times["m2"]:
            assert chosen == ["mov.0", "mov.1"]

    def test_bitvector_representation_matches(self, machine):
        g = chain("c", ["B", "A", "B"], latency=1)
        discrete = OperationDrivenScheduler(machine).schedule(g)
        bitvec = OperationDrivenScheduler(
            machine, representation="bitvector", word_cycles=4
        ).schedule(g)
        assert discrete.times == bitvec.times

    def test_reduced_machine_same_schedule(self, machine):
        from repro.core import reduce_machine

        g = chain("c", ["B", "B", "A", "A"], latency=2)
        original = OperationDrivenScheduler(machine).schedule(g)
        reduced = OperationDrivenScheduler(
            reduce_machine(machine).reduced
        ).schedule(g)
        assert original.times == reduced.times
