"""The compiled query module: equivalence, kernels, and accounting.

The compiled representation answers every query with packed big-int
masks and precompiled pairwise collision bitsets; these tests pin it to
the discrete representation (the reference interpreter of reservation
tables) over random machines and random call sequences — including
negative cycles, modulo wrap-around, backtracking via ``assign_free``,
and both batched-scan directions — and to the scheduler trajectories the
other backends produce.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import MachineDescription, reduce_machine
from repro.errors import QueryError
from repro.machines import (
    STUDY_MACHINES,
    alternatives_machine,
    dense_conflict_machine,
    example_machine,
)
from repro.query import (
    CHECK_RANGE,
    COMPILE,
    COMPILED,
    CompiledQueryModule,
    DiscreteQueryModule,
    REPRESENTATIONS,
    clear_kernel_cache,
    compiled_kernel,
    make_query_module,
)
from repro.scheduler import IterativeModuloScheduler
from repro.workloads import loop_suite

RESOURCES = ["r0", "r1", "r2"]
OPS = ["opA", "opB"]


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
def call_sequences(draw):
    """Random basic-function sequences driving both representations."""
    sequence = []
    for _ in range(draw(st.integers(1, 25))):
        kind = draw(
            st.sampled_from(
                ("check", "assign", "assign_free", "free", "range", "first")
            )
        )
        cycle = draw(st.integers(-6, 20))
        width = draw(st.integers(0, 12))
        direction = draw(st.sampled_from((1, -1)))
        sequence.append((kind, cycle, width, direction))
    return sequence


def _drive(machine, module, reference, sequence, use_assign_free):
    """Run one call sequence against both modules, asserting agreement."""
    ops = machine.operation_names
    mine, theirs = [], []
    for index, (kind, cycle, width, direction) in enumerate(sequence):
        op = ops[index % len(ops)]
        if kind == "check":
            assert module.check(op, cycle) == reference.check(op, cycle)
        elif kind == "range":
            assert module.check_range(op, cycle, cycle + width) == (
                reference.check_range(op, cycle, cycle + width)
            )
        elif kind == "first":
            assert module.first_free(
                op, cycle, cycle + width, direction
            ) == reference.first_free(op, cycle, cycle + width, direction)
        elif kind == "free" and mine:
            module.free(mine.pop())
            reference.free(theirs.pop())
        elif kind in ("assign", "assign_free"):
            # One placement model per partial schedule (mixing raises).
            if use_assign_free:
                token, evicted = module.assign_free(op, cycle)
                ref_token, ref_evicted = reference.assign_free(op, cycle)
                assert [(t.op, t.cycle) for t in evicted] == (
                    [(t.op, t.cycle) for t in ref_evicted]
                )
                gone = {t.ident for t in evicted}
                mine[:] = [t for t in mine if t.ident not in gone]
                theirs[:] = [
                    t for t in theirs
                    if t.ident not in {x.ident for x in ref_evicted}
                ]
                mine.append(token)
                theirs.append(ref_token)
            elif module.check(op, cycle):
                mine.append(module.assign(op, cycle))
                theirs.append(reference.assign(op, cycle))


class TestPropertyEquivalence:
    @given(machines(), call_sequences(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_scalar_sequences_match_discrete(
        self, machine, sequence, use_assign_free
    ):
        _drive(
            machine,
            CompiledQueryModule(machine),
            DiscreteQueryModule(machine),
            sequence,
            use_assign_free,
        )

    @given(
        machines(), call_sequences(), st.integers(1, 9), st.booleans()
    )
    @settings(max_examples=60, deadline=None)
    def test_modulo_sequences_match_discrete(
        self, machine, sequence, ii, use_assign_free
    ):
        _drive(
            machine,
            CompiledQueryModule(machine, modulo=ii),
            DiscreteQueryModule(machine, modulo=ii),
            sequence,
            use_assign_free,
        )


class TestBuiltinMachines:
    @pytest.mark.parametrize("name", sorted(STUDY_MACHINES))
    def test_probe_sweep_matches_discrete(self, name):
        machine = STUDY_MACHINES[name]()
        rng = random.Random(hash(name) & 0xFFFF)
        for modulo in (None, 3, 7):
            compiled = CompiledQueryModule(machine, modulo=modulo)
            discrete = DiscreteQueryModule(machine, modulo=modulo)
            placed = 0
            for _step in range(120):
                op = rng.choice(machine.operation_names)
                cycle = rng.randint(-4, 30)
                free = discrete.check(op, cycle)
                assert compiled.check(op, cycle) == free
                if free and placed < 25 and rng.random() < 0.5:
                    compiled.assign(op, cycle)
                    discrete.assign(op, cycle)
                    placed += 1
                start = rng.randint(-4, 25)
                stop = start + rng.randint(0, 14)
                assert compiled.check_range(op, start, stop) == (
                    discrete.check_range(op, start, stop)
                )
                for direction in (1, -1):
                    assert compiled.first_free(
                        op, start, stop, direction
                    ) == discrete.first_free(op, start, stop, direction)

    @pytest.mark.parametrize("name", sorted(STUDY_MACHINES))
    def test_reduced_machine_agrees(self, name):
        """Original + reduced answer identically through the kernels."""
        machine = STUDY_MACHINES[name]()
        reduced = reduce_machine(machine).reduced
        original = CompiledQueryModule(machine)
        compact = CompiledQueryModule(reduced)
        rng = random.Random(7)
        for _step in range(80):
            op = rng.choice(machine.operation_names)
            cycle = rng.randint(-3, 20)
            if original.check(op, cycle):
                original.assign(op, cycle)
                compact.assign(op, cycle)
            start, stop = cycle, cycle + rng.randint(0, 10)
            assert original.check_range(op, start, stop) == (
                compact.check_range(op, start, stop)
            )


class TestSchedulerTrajectories:
    @pytest.mark.parametrize("machine_name", ("example", "cydra5-subset"))
    def test_ims_matches_discrete(self, machine_name):
        machine = (
            example_machine()
            if machine_name == "example"
            else STUDY_MACHINES[machine_name]()
        )
        suite = [
            graph for graph in loop_suite(4)
            if all(
                op in machine or machine.alternatives
                for op in graph.opcodes()
            )
        ]
        for graph in suite:
            results = {}
            for representation in ("discrete", "compiled"):
                scheduler = IterativeModuloScheduler(
                    machine, representation=representation
                )
                try:
                    result = scheduler.schedule(graph)
                except Exception:
                    results[representation] = None
                    continue
                results[representation] = (result.ii, result.times)
            assert results["discrete"] == results["compiled"]

    def test_lifetime_policy_matches_discrete(self):
        machine = example_machine()
        graphs = loop_suite(4)
        for graph in graphs:
            if not all(op in machine for op in graph.opcodes()):
                continue
            outcomes = {}
            for representation in ("discrete", "compiled"):
                scheduler = IterativeModuloScheduler(
                    machine,
                    representation=representation,
                    placement_policy="lifetime",
                )
                result = scheduler.schedule(graph)
                outcomes[representation] = (result.ii, result.times)
            assert outcomes["discrete"] == outcomes["compiled"]

    def test_alternatives_choices_match_discrete(self):
        machine = alternatives_machine()
        for graph in loop_suite(4):
            if not all(
                any(
                    group_op == op
                    for group in machine.alternatives.values()
                    for group_op in group
                )
                or op in machine
                for op in graph.opcodes()
            ):
                continue
            chosen = {}
            for representation in ("discrete", "compiled"):
                scheduler = IterativeModuloScheduler(
                    machine, representation=representation
                )
                result = scheduler.schedule(graph)
                chosen[representation] = (
                    result.ii, result.times, result.chosen_opcodes
                )
            assert chosen["discrete"] == chosen["compiled"]


class TestKernelAndAccounting:
    def test_factory_builds_compiled(self):
        assert COMPILED in REPRESENTATIONS
        module = make_query_module(example_machine(), COMPILED, modulo=4)
        assert isinstance(module, CompiledQueryModule)
        assert module.modulo == 4

    def test_kernel_is_memoized_per_machine(self):
        clear_kernel_cache()
        machine = example_machine()
        first = compiled_kernel(machine)
        second = compiled_kernel(example_machine())
        assert first is second

    def test_compile_charge_is_cache_warmth_independent(self):
        """Bench determinism: memo hits charge the same compile units."""
        clear_kernel_cache()
        machine = dense_conflict_machine()
        cold = CompiledQueryModule(machine)
        warm = CompiledQueryModule(machine)
        assert cold.work.units[COMPILE] == warm.work.units[COMPILE]
        assert cold.work.calls[COMPILE] == warm.work.calls[COMPILE] == 1

    def test_batched_scan_charges_check_range(self):
        machine = example_machine()
        module = CompiledQueryModule(machine)
        op = machine.operation_names[0]
        module.first_free(op, 0, 10)
        module.check_range(op, 0, 10)
        assert module.work.calls[CHECK_RANGE] == 2
        assert module.work.calls["check"] == 0

    def test_batched_scan_cost_is_per_class_not_per_cycle(self):
        """The kernel's promise: window width does not multiply cost."""
        machine = example_machine()
        module = CompiledQueryModule(machine)
        op = machine.operation_names[0]
        module.assign(op, 0)
        module.first_free(op, 1, 11)
        narrow = module.work.units[CHECK_RANGE]
        module.first_free(op, 1, 101)
        wide = module.work.units[CHECK_RANGE] - narrow
        assert wide == narrow

    def test_unknown_operation_raises(self):
        module = CompiledQueryModule(example_machine())
        with pytest.raises(Exception):
            module.check("no-such-op", 0)
        with pytest.raises(Exception):
            module.first_free("no-such-op", 0, 5)

    def test_mixing_assign_models_raises(self):
        machine = example_machine()
        module = CompiledQueryModule(machine)
        op = machine.operation_names[0]
        module.assign(op, 0)
        with pytest.raises(QueryError):
            module.assign_free(op, 50)

    def test_wide_downward_modulo_window(self):
        """direction=-1 over a window wider than II picks the latest slot."""
        machine = example_machine()
        for ii in (2, 3, 5):
            compiled = CompiledQueryModule(machine, modulo=ii)
            discrete = DiscreteQueryModule(machine, modulo=ii)
            op = machine.operation_names[0]
            compiled.assign(op, 0)
            discrete.assign(op, 0)
            for start in (-2, 0, 1):
                stop = start + 3 * ii + 1
                assert compiled.first_free(op, start, stop, -1) == (
                    discrete.first_free(op, start, stop, -1)
                )
