"""Invariant tests for the study machine models (paper Section 6 targets)."""

import pytest

from repro.core import ForbiddenLatencyMatrix, reduce_machine
from repro.machines import STUDY_MACHINES
from repro.machines.builtin import BUILTIN_MACHINES


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
