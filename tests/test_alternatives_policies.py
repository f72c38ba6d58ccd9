"""Tests for alternative-operation selection policies."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ForbiddenLatencyMatrix, MachineDescription
from repro.errors import MachineDescriptionError, ScheduleError
from repro.machines import cydra5_subset, playdoh, PLAYDOH_LATENCIES
from repro.query import (
    FIRST_FIT,
    LEAST_USED,
    POLICIES,
    ROUND_ROBIN,
    DiscreteQueryModule,
    order_variants,
)
from repro.scheduler import (
    DependenceGraph,
    IterativeModuloScheduler,
    OperationDrivenScheduler,
)


class TestOrderVariants:
    VARIANTS = ("v0", "v1", "v2")

    def test_first_fit_keeps_order(self):
        assert order_variants(FIRST_FIT, self.VARIANTS, 5, {}) == self.VARIANTS

    def test_round_robin_rotates(self):
        assert order_variants(ROUND_ROBIN, self.VARIANTS, 0, {}) == (
            "v0", "v1", "v2",
        )
        assert order_variants(ROUND_ROBIN, self.VARIANTS, 1, {}) == (
            "v1", "v2", "v0",
        )
        assert order_variants(ROUND_ROBIN, self.VARIANTS, 4, {}) == (
            "v1", "v2", "v0",
        )

    def test_least_used_sorts_by_load(self):
        counts = {"v0": 3, "v1": 0, "v2": 1}
        assert order_variants(LEAST_USED, self.VARIANTS, 0, counts) == (
            "v1", "v2", "v0",
        )

    def test_least_used_tie_break_is_declaration_order(self):
        assert order_variants(LEAST_USED, self.VARIANTS, 0, {}) == (
            "v0", "v1", "v2",
        )

    def test_single_variant_short_circuit(self):
        assert order_variants(ROUND_ROBIN, ("only",), 7, {}) == ("only",)

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            order_variants("bogus", self.VARIANTS, 0, {})


class TestModulePolicies:
    def test_round_robin_spreads(self, dual_pipe):
        qm = DiscreteQueryModule(dual_pipe)
        qm.alternative_policy = ROUND_ROBIN
        first = qm.check_with_alternatives("mov", 0)
        qm.assign(first, 0)
        second = qm.check_with_alternatives("mov", 1)
        assert {first, second} == {"mov.0", "mov.1"}

    def test_first_fit_repeats_when_free(self, dual_pipe):
        qm = DiscreteQueryModule(dual_pipe)
        assert qm.check_with_alternatives("mov", 0) == "mov.0"
        assert qm.check_with_alternatives("mov", 1) == "mov.0"

    def test_least_used_balances(self, dual_pipe):
        qm = DiscreteQueryModule(dual_pipe)
        qm.alternative_policy = LEAST_USED
        a = qm.check_with_alternatives("mov", 0)
        qm.assign(a, 0)
        b = qm.check_with_alternatives("mov", 1)
        assert b != a
        qm.assign(b, 1)
        token = qm.scheduled()[0]
        qm.free(token)
        # After freeing the first, it becomes the least used again.
        assert qm.check_with_alternatives("mov", 2) == token.op

    def test_policy_never_accepts_a_blocked_variant(self, dual_pipe):
        for policy in POLICIES:
            qm = DiscreteQueryModule(dual_pipe)
            qm.alternative_policy = policy
            qm.assign("add", 0)
            qm.assign("mul", 0)
            assert qm.check_with_alternatives("mov", 0) is None

    def test_reset_clears_policy_state(self, dual_pipe):
        qm = DiscreteQueryModule(dual_pipe)
        qm.alternative_policy = ROUND_ROBIN
        qm.check_with_alternatives("mov", 0)
        qm.reset()
        assert qm.check_with_alternatives("mov", 0) == "mov.0"


def _looped_scan(qm, op, start, stop, direction):
    """The window scan as a loop of ``check_with_alternatives`` calls."""
    for cycle in qm._window(start, stop, direction):
        alternative = qm.check_with_alternatives(op, cycle)
        if alternative is not None:
            return cycle, alternative
    return None, None


class TestWindowScan:
    """The base cycle-major scan takes the probe order once per window;
    it must still equal a loop of ``check_with_alternatives``."""

    MACHINE = playdoh()

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(POLICIES),
        st.sampled_from((None, 1, 3, 7)),
        st.integers(0, 2**32 - 1),
    )
    def test_equals_looped_check_with_alternatives(
        self, policy, modulo, seed
    ):
        machine = self.MACHINE
        rng = random.Random(seed)
        scanning, looping = (
            DiscreteQueryModule(machine, modulo=modulo) for _ in range(2)
        )
        scanning.alternative_policy = looping.alternative_policy = policy
        opcodes = sorted(machine.alternatives) + ["br", "pbr"]
        for _ in range(rng.randint(0, 12)):
            op = rng.choice(machine.operation_names)
            cycle = rng.randint(-4, 12)
            scanning.assign_free(op, cycle)
            looping.assign_free(op, cycle)
        for _ in range(10):
            op = rng.choice(opcodes)
            start = rng.randint(-4, 12)
            stop = start + rng.randint(0, 8)
            direction = rng.choice((1, -1))
            found = scanning.first_free_with_alternatives(
                op, start, stop, direction
            )
            assert found == _looped_scan(looping, op, start, stop, direction)
            assert scanning._alt_rotation == looping._alt_rotation
            assert scanning.work.calls == looping.work.calls
            assert scanning.work.units == looping.work.units
            cycle, alternative = found
            if alternative is not None and rng.random() < 0.5:
                # Placing the answer moves the least-used counts.
                scanning.assign_free(alternative, cycle)
                looping.assign_free(alternative, cycle)

    def test_empty_window_resolves_nothing(self):
        qm = DiscreteQueryModule(self.MACHINE, modulo=4)
        for direction in (1, -1):
            assert qm.first_free_with_alternatives(
                "no-such-op", 5, 5, direction
            ) == (None, None)
        assert not qm.work.calls
        with pytest.raises(MachineDescriptionError):
            qm.first_free_with_alternatives("no-such-op", 5, 6)


class TestSchedulerIntegration:
    def _wide_graph(self):
        graph = DependenceGraph("wide")
        for index in range(8):
            graph.add_operation("a%d" % index, "ialu")
        for index in range(4):
            graph.add_operation("f%d" % index, "fma")
            graph.add_dependence(
                "a%d" % index, "f%d" % index, PLAYDOH_LATENCIES["ialu"]
            )
        return graph

    @pytest.mark.parametrize("policy", POLICIES)
    def test_playdoh_schedules_under_every_policy(self, policy):
        scheduler = IterativeModuloScheduler(
            playdoh(), alternative_policy=policy
        )
        result = scheduler.schedule(self._wide_graph())
        assert result.ii >= result.mii
        result.graph.verify_schedule(result.times, ii=result.ii)

    def test_policies_achieve_same_or_better_ii(self):
        """Smarter probing can't worsen the II on this workload."""
        graph = self._wide_graph()
        baseline = IterativeModuloScheduler(
            playdoh(), alternative_policy=FIRST_FIT
        ).schedule(graph)
        for policy in (ROUND_ROBIN, LEAST_USED):
            other = IterativeModuloScheduler(
                playdoh(), alternative_policy=policy
            ).schedule(self._wide_graph())
            assert other.ii <= baseline.ii + 1


class TestUnknownPolicyRejected:
    """Schedulers reject an unknown alternative policy at construction."""

    TINY = {"u": {"unit": [0]}}

    @pytest.mark.parametrize(
        "scheduler", (IterativeModuloScheduler, OperationDrivenScheduler)
    )
    def test_machine_without_alternatives(self, scheduler):
        machine = MachineDescription("tiny", self.TINY)
        with pytest.raises(ScheduleError, match="unknown alternative policy"):
            scheduler(machine, alternative_policy="bogus")

    @pytest.mark.parametrize(
        "scheduler", (IterativeModuloScheduler, OperationDrivenScheduler)
    )
    def test_machine_with_alternatives(self, scheduler):
        with pytest.raises(ScheduleError, match="'bogus'"):
            scheduler(cydra5_subset(), alternative_policy="bogus")

    def test_checked_before_the_matrix_is_built(self, monkeypatch):
        def refuse(cls, machine):
            raise AssertionError("forbidden matrix built before the check")

        monkeypatch.setattr(
            ForbiddenLatencyMatrix, "from_machine", classmethod(refuse)
        )
        machine = MachineDescription("tiny", self.TINY)
        for config in (
            {"alternative_policy": "bogus"},
            {"placement_policy": "bogus"},
        ):
            with pytest.raises(ScheduleError):
                IterativeModuloScheduler(machine, **config)
