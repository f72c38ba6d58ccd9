"""Invariant tests for the study machine models (paper Section 6 targets)."""

import copy
import gc
import pickle
import tracemalloc

import pytest

from repro import mdl
from repro.core import (
    ForbiddenLatencyMatrix,
    MachineBuilder,
    MachineDescription,
    reduce_machine,
    reservation,
)
from repro.fuzz.mdlgen import PROFILES, generate_machine
from repro.machines import (
    STUDY_MACHINES,
    alpha21064,
    buffered_pu,
    clustered_vliw,
    cydra5_subset,
    example_machine,
    mips_r3000,
    playdoh,
)
from repro.machines.builtin import BUILTIN_MACHINES
from repro.query.compiled import clear_kernel_cache, compiled_kernel

#: The fuzz profiles of the e2e benchmark's reduce-zoo workload.
ZOO_PROFILES = ("mixed", "clustered-vliw", "buffered-pu")


def zoo_machines():
    """The reduce-zoo workload's 607 machines at seed 0."""
    machines = [
        build() for build in (
            cydra5_subset, alpha21064, mips_r3000, playdoh, buffered_pu,
            clustered_vliw, example_machine,
        )
    ]
    for profile in ZOO_PROFILES:
        machines.extend(
            generate_machine(index, PROFILES[profile]) for index in range(200)
        )
    return machines


@pytest.fixture(scope="module")
def matrices():
    return {
        name: (factory(), ForbiddenLatencyMatrix.from_machine(factory()))
        for name, factory in STUDY_MACHINES.items()
    }


class TestMips:
    """Paper Table 4: 15 classes, 428 forbidden latencies, all < 34."""

    def test_class_count(self, matrices):
        _md, matrix = matrices["mips-r3000"]
        assert len(matrix.operation_classes()) == 15

    def test_max_latency_below_34(self, matrices):
        _md, matrix = matrices["mips-r3000"]
        assert matrix.max_latency == 33

    def test_latency_count_band(self, matrices):
        _md, matrix = matrices["mips-r3000"]
        assert 300 <= matrix.instance_count <= 600

    def test_single_issue(self, matrices):
        md, matrix = matrices["mips-r3000"]
        for op_x in md.operation_names:
            for op_y in md.operation_names:
                assert matrix.is_forbidden(op_x, op_y, 0)


class TestAlpha:
    """Paper Table 3: 12 classes, 293 forbidden latencies, all < 58."""

    def test_class_count(self, matrices):
        _md, matrix = matrices["alpha21064"]
        assert len(matrix.operation_classes()) == 12

    def test_max_latency_below_58(self, matrices):
        _md, matrix = matrices["alpha21064"]
        assert matrix.max_latency == 57

    def test_latency_count_band(self, matrices):
        _md, matrix = matrices["alpha21064"]
        assert 200 <= matrix.instance_count <= 400

    def test_dual_issue(self, matrices):
        """An integer op and an FP op may issue in the same cycle."""
        _md, matrix = matrices["alpha21064"]
        assert not matrix.is_forbidden("int_alu", "fadd", 0)
        assert matrix.is_forbidden("int_alu", "load", 0)
        assert matrix.is_forbidden("fadd", "fmul", 0)


class TestCydra5:
    """Paper Tables 1-2: 52/12 classes; latencies < 41 (full), < 21
    (subset).  Our model is smaller; the invariants that matter are the
    latency caps and the unit structure."""

    def test_full_max_latency_below_41(self, matrices):
        _md, matrix = matrices["cydra5"]
        assert 30 <= matrix.max_latency <= 40

    def test_subset_max_latency_below_21(self, matrices):
        _md, matrix = matrices["cydra5-subset"]
        assert 10 <= matrix.max_latency <= 20

    def test_subset_has_twelve_operations(self, matrices):
        md, _matrix = matrices["cydra5-subset"]
        assert md.num_operations == 12

    def test_subset_resources_are_the_used_ones(self, matrices):
        md, _matrix = matrices["cydra5-subset"]
        used = set()
        for _op, table in md.items():
            used.update(table.resources)
        assert set(md.resources) == used

    def test_alternative_groups(self, matrices):
        md, _matrix = matrices["cydra5"]
        assert md.alternatives_of("load_s") == ("load_s.0", "load_s.1")
        assert md.alternatives_of("mov") == ("mov.0", "mov.1")

    def test_ports_are_symmetric(self, matrices):
        md, _matrix = matrices["cydra5"]
        t0 = md.table("load_s.0")
        t1 = md.table("load_s.1")
        assert t0.usage_count == t1.usage_count

    def test_seven_functional_units(self, matrices):
        md, _matrix = matrices["cydra5"]
        units = {r.split(".")[0] for r in md.resources}
        # m0, m1, a0, a1, fa, fm, br (+ shared mem/rf/pred rows)
        assert {"m0", "m1", "a0", "a1", "fa", "fm", "br"} <= units

    def test_divide_family_on_multiplier(self, matrices):
        _md, matrix = matrices["cydra5"]
        assert matrix.is_forbidden("div_d", "sqrt_d", 5)


class TestReductions:
    """Section 6 headline: reductions shrink every study machine."""

    @pytest.mark.parametrize("name", sorted(STUDY_MACHINES))
    def test_reduction_exact_and_smaller(self, name):
        md = STUDY_MACHINES[name]()
        reduction = reduce_machine(md)
        assert reduction.reduced.num_resources < md.num_resources
        assert reduction.reduced.total_usages < md.total_usages

    def test_mips_resource_drop_matches_paper_band(self, mips_reduction):
        """Paper: 22 -> 7 resources (3.1x); ours lands in the same band."""
        ratio = mips_reduction.resource_ratio
        assert 0.15 <= ratio <= 0.5

    def test_subset_usage_drop(self, subset_reduction):
        """Paper Table 2: 9.4 -> ~2.9 average usages per op (3.2x)."""
        original = subset_reduction.original
        reduced = subset_reduction.reduced
        factor = original.total_usages / reduced.total_usages
        assert factor >= 1.5


class TestBuiltinTable:
    """Each built-in name resolves to its own module's factory on
    demand (``tests/test_import_layers.py`` checks what that loads)."""

    @pytest.mark.parametrize("name", sorted(BUILTIN_MACHINES))
    def test_name_builds_its_modules_machine(self, name):
        import repro.machines

        factory = BUILTIN_MACHINES[name]
        assert factory() == getattr(repro.machines, factory.__name__)()


def same_tables(machine, other):
    return all(
        other.table(op) is machine.table(op) for op in machine.operation_names
    )


class TestSharedTables:
    """Machines hold hash-consed tables: one object per distinct table."""

    def test_copies_and_rebuilds_of_a_machine_share_its_tables(self):
        machine = cydra5_subset()
        reduced = reduce_machine(machine).reduced
        for original in (machine, reduced):
            for clone in (
                mdl.loads(mdl.dumps(original)),
                pickle.loads(pickle.dumps(original)),
                copy.deepcopy(original),
            ):
                assert clone == original
                assert same_tables(original, clone)
        again = reduce_machine(machine.renamed("again")).reduced
        assert same_tables(reduced, again)

    def test_builder_and_mapping_tables_are_the_machines_tables(self):
        machine = cydra5_subset()
        builder = MachineBuilder("built")
        mapping = {}
        for op, table in machine.items():
            usages = {r: sorted(table.usage_set(r)) for r in table.resources}
            builder.operation(op, usages)
            mapping[op] = usages
        assert same_tables(machine, builder.build())
        assert same_tables(machine, MachineDescription("mapped", mapping))

    def test_reduced_machines_share_their_row_names(self):
        first = reduce_machine(mips_r3000()).reduced
        second = reduce_machine(alpha21064()).reduced
        assert all(a is b for a, b in zip(first.resources, second.resources))

    def test_a_fold_filled_through_one_machine_serves_another(self):
        first = MachineDescription("m1", {"x": {"a": [0, 3]}, "y": {"b": [1]}})
        second = MachineDescription("m2", {"z": {"a": [3, 0]}})
        fold = first.table("x").folded(2, 1)
        assert second.table("z").folded(2, 1) is fold
        masks = first.table("x").word_masks(("a", "b"), 2, 5, 4)
        assert second.table("z").word_masks(("a", "b"), 2, 5, 4) is masks

    def test_dropped_machines_leave_no_table_registered(self):
        gc.collect()
        before = set(reservation._TABLES)
        machines = [
            generate_machine(1000 + index, PROFILES[ZOO_PROFILES[index % 3]])
            for index in range(1000)
        ]
        reduced = [reduce_machine(machine).reduced for machine in machines]
        theirs = [key for key in reservation._TABLES if key not in before]
        assert len(theirs) > 1000
        del machines, reduced
        gc.collect()
        assert not any(key in reservation._TABLES for key in theirs)
        assert all(ref() is not None for ref in reservation._TABLES.values())

    def test_zoo_and_its_reductions_live_size_at_most_4_mb(self):
        reduce_machine(example_machine())  # imports and first-use memos
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            machines = zoo_machines()
            reduced = [reduce_machine(machine).reduced for machine in machines]
            gc.collect()
            live = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(machines) == len(reduced) == 607
        assert live <= 4 * 1024 * 1024, live


class TestMachineHash:
    """``__hash__`` covers exactly what ``__eq__`` compares."""

    def test_equal_machines_hash_equal_whatever_their_names(self):
        machine = cydra5_subset()
        renamed = machine.renamed("other")
        assert renamed == machine
        assert hash(renamed) == hash(machine)
        assert renamed in {machine}
        assert {machine: "kept"}[renamed] == "kept"
        assert len({machine, renamed, pickle.loads(pickle.dumps(renamed))}) == 1

    def test_a_renamed_machine_reuses_the_compiled_kernel(self):
        clear_kernel_cache()
        machine = cydra5_subset()
        assert compiled_kernel(machine.renamed("other")) is compiled_kernel(machine)
