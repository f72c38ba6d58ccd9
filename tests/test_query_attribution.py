"""Conflict attribution: one blame function, exact against the frozen scan.

:func:`repro.scheduler.find_blame` names the canonical blocked cell of a
placement — ``Blame.key = (resource, cycle, kind)`` plus the owning
placement — from the machine's tables and the live placements alone.
The cases here compare it, owners included, with the discrete module's
blame scan as it was while every query backend attributed its own
failed checks (``tests/_reference_query.py``), scalar and modulo, and
check that it blames exactly the cycles every representation's
``check`` refuses.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MachineDescription
from repro.machines import STUDY_MACHINES, example_machine
from repro.query import (
    BLAME_RESERVED,
    BLAME_SELF,
    BitvectorQueryModule,
    Blame,
    CompiledQueryModule,
    DiscreteQueryModule,
)
from repro.scheduler import find_blame
from tests._reference_query import reference_blame

RESOURCES = ["r0", "r1", "r2"]
OPS = ["opA", "opB"]
BACKENDS = (DiscreteQueryModule, BitvectorQueryModule, CompiledQueryModule)


@st.composite
def machines(draw):
    """Small random machines: 1-2 ops over 1-3 resources, cycles 0-5."""
    operations = {}
    for index in range(draw(st.integers(1, 2))):
        usages = {}
        for _ in range(draw(st.integers(0, 4))):
            usages.setdefault(
                draw(st.sampled_from(RESOURCES)), set()
            ).add(draw(st.integers(0, 5)))
        operations[OPS[index]] = usages
    return MachineDescription("random", operations)


@st.composite
def probe_plans(draw):
    """Random placements plus probe cycles/windows."""
    assigns = [
        (draw(st.integers(0, 1)), draw(st.integers(-6, 18)))
        for _ in range(draw(st.integers(0, 6)))
    ]
    probes = [
        (
            draw(st.integers(0, 1)),
            draw(st.integers(-6, 18)),
            draw(st.integers(0, 10)),
            draw(st.sampled_from((1, -1))),
        )
        for _ in range(draw(st.integers(1, 10)))
    ]
    return assigns, probes


class _Schedule:
    """Contention-free placements, held by one module per backend."""

    def __init__(self, machine, modulo):
        self.machine = machine
        self.modulo = modulo
        self.modules = [
            backend(machine, modulo=modulo) for backend in BACKENDS
        ]
        self.times = {}
        self.chosen = {}
        self.placements = []

    def place(self, op, cycle):
        """Place ``op`` at ``cycle`` when no backend sees a conflict."""
        free = [module.check(op, cycle) for module in self.modules]
        assert free == [free[0]] * len(free)
        if not free[0]:
            return False
        for module in self.modules:
            module.assign(op, cycle)
        name = "p%d" % len(self.placements)
        self.times[name] = cycle
        self.chosen[name] = op
        self.placements.append((op, cycle))
        return True

    def assert_blame(self, op, cycles):
        cycles = list(cycles)
        found = find_blame(
            self.machine, op, cycles, self.times, self.chosen, self.modulo
        )
        assert found == reference_blame(
            self.machine, op, cycles, self.placements, self.modulo
        )
        blamed = {cycle for cycle, _blame in found}
        for module in self.modules:
            assert [cycle in blamed for cycle in cycles] == [
                not module.check(op, cycle) for cycle in cycles
            ], type(module).__name__
        return found


def _assert_same_blame(machine, modulo, assigns, probes):
    schedule = _Schedule(machine, modulo)
    ops = machine.operation_names
    for op_index, cycle in assigns:
        schedule.place(ops[op_index % len(ops)], cycle)
    for op_index, cycle, width, direction in probes:
        op = ops[op_index % len(ops)]
        schedule.assert_blame(op, [cycle])
        window = range(cycle, cycle + width)
        schedule.assert_blame(op, window if direction > 0 else window[::-1])


class TestPropertyExactness:
    @given(machines(), probe_plans())
    @settings(max_examples=60, deadline=None)
    def test_scalar_blame_matches_discrete(self, machine, plan):
        assigns, probes = plan
        _assert_same_blame(machine, None, assigns, probes)

    @given(machines(), probe_plans(), st.integers(1, 9))
    @settings(max_examples=60, deadline=None)
    def test_modulo_blame_matches_discrete(self, machine, plan, ii):
        assigns, probes = plan
        _assert_same_blame(machine, ii, assigns, probes)


class TestStudyMachines:
    @pytest.mark.parametrize("name", sorted(STUDY_MACHINES))
    def test_blame_sweep_matches_discrete(self, name):
        machine = STUDY_MACHINES[name]()
        rng = random.Random(hash(name) & 0xFFFF)
        for modulo in (None, 3, 7):
            schedule = _Schedule(machine, modulo)
            blamed = 0
            for _step in range(120):
                op = rng.choice(machine.operation_names)
                cycle = rng.randint(-4, 30)
                blamed += len(schedule.assert_blame(op, [cycle]))
                if len(schedule.placements) < 25 and rng.random() < 0.5:
                    schedule.place(op, cycle)
            assert blamed, modulo


class TestBlameSemantics:
    def test_reserved_blame_names_owner_cell(self):
        machine = example_machine()
        op = machine.operation_names[0]
        ((cycle, blame),) = find_blame(machine, op, [0], {"a": 0}, {"a": op})
        assert cycle == 0
        assert blame.kind == BLAME_RESERVED
        assert blame.resource in machine.resources
        assert (blame.owner_op, blame.owner_cycle) == (op, 0)

    def test_modulo_self_conflict_precedes_reserved(self):
        """An op whose own usages fold onto one MRT slot blames itself,
        even where another placement holds that slot."""
        machine = MachineDescription(
            "fold", {"op": {"bus": [0, 2]}, "other": {"bus": [0]}}
        )
        for times in ({}, {"x": 0}):
            ((_cycle, blame),) = find_blame(
                machine, "op", [0], times, {"x": "other"}, modulo=2
            )
            assert blame == Blame("bus", 0, BLAME_SELF)

    def test_blame_key_and_dict_round_trip(self):
        blame = Blame("bus", 3, BLAME_RESERVED, owner_op="a", owner_cycle=1)
        assert blame.key == ("bus", 3, BLAME_RESERVED)
        doc = blame.to_dict()
        assert doc == {
            "resource": "bus", "cycle": 3, "kind": BLAME_RESERVED,
            "owner_op": "a", "owner_cycle": 1,
        }
        assert "held by a" in blame.describe()
        self_blame = Blame("bus", 1, BLAME_SELF)
        assert "self-conflict" in self_blame.describe()
