"""Unit tests for forbidden latency matrices (paper Step 1)."""

import pytest

from repro.core import (
    ForbiddenLatencyMatrix,
    MachineDescription,
    canonical_instance,
)


class TestCanonicalInstance:
    def test_positive_unchanged(self):
        assert canonical_instance("A", "B", 3) == ("A", "B", 3)

    def test_negative_mirrors(self):
        assert canonical_instance("A", "B", -3) == ("B", "A", 3)

    def test_zero_orders_pair(self):
        assert canonical_instance("B", "A", 0) == ("A", "B", 0)
        assert canonical_instance("A", "B", 0) == ("A", "B", 0)


class TestExampleMatrix:
    """The matrix of the paper's Figure 1b, checked entry by entry."""

    def test_self_a(self, example_matrix):
        assert example_matrix.latencies("A", "A") == frozenset({0})

    def test_self_b(self, example_matrix):
        assert example_matrix.latencies("B", "B") == frozenset(
            {-3, -2, -1, 0, 1, 2, 3}
        )

    def test_b_after_a(self, example_matrix):
        assert example_matrix.latencies("B", "A") == frozenset({1})

    def test_a_after_b(self, example_matrix):
        assert example_matrix.latencies("A", "B") == frozenset({-1})

    def test_symmetry(self, example_matrix):
        for op_x, op_y, latencies in example_matrix.pairs():
            for f in latencies:
                assert example_matrix.is_forbidden(op_y, op_x, -f)

    def test_instances(self, example_matrix):
        assert example_matrix.instances() == [
            ("A", "A", 0),
            ("B", "A", 1),
            ("B", "B", 0),
            ("B", "B", 1),
            ("B", "B", 2),
            ("B", "B", 3),
        ]

    def test_instance_count(self, example_matrix):
        assert example_matrix.instance_count == 6

    def test_max_latency(self, example_matrix):
        assert example_matrix.max_latency == 3

    def test_uses_resources(self, example_matrix):
        assert example_matrix.uses_resources("A")


class TestGeneralProperties:
    def test_zero_self_contention_for_any_used_op(self, mips):
        matrix = ForbiddenLatencyMatrix.from_machine(mips)
        for op in mips.operation_names:
            assert matrix.is_forbidden(op, op, 0)

    def test_disjoint_ops_have_no_cross_latencies(self):
        md = MachineDescription(
            "d", {"A": {"left": [0]}, "B": {"right": [0]}}
        )
        matrix = ForbiddenLatencyMatrix.from_machine(md)
        assert matrix.latencies("A", "B") == frozenset()
        assert matrix.latencies("A", "A") == frozenset({0})

    def test_empty_op_has_no_latencies(self):
        md = MachineDescription("d", {"A": {"r": [0]}, "NOP": {}})
        matrix = ForbiddenLatencyMatrix.from_machine(md)
        assert not matrix.uses_resources("NOP")
        assert matrix.latencies("NOP", "A") == frozenset()

    def test_matches_brute_force_overlap(self, example):
        """F[X][Y] contains f iff overlapping the tables at distance f
        collides — the definition, checked against ReservationTable."""
        matrix = ForbiddenLatencyMatrix.from_machine(example)
        for op_x in example.operation_names:
            for op_y in example.operation_names:
                table_x = example.table(op_x)
                table_y = example.table(op_y)
                for f in range(-10, 11):
                    # X issues f cycles after Y: collision iff usage sets
                    # of Y overlap X shifted by f.
                    collides = table_y.conflicts_at(table_x, f)
                    assert collides == matrix.is_forbidden(op_x, op_y, f)


class TestOperationClasses:
    def test_identical_ops_merge(self):
        md = MachineDescription(
            "c",
            {"A1": {"r": [0]}, "A2": {"r": [0]}, "B": {"r": [0], "s": [1, 2]}},
        )
        matrix = ForbiddenLatencyMatrix.from_machine(md)
        assert ("A1", "A2") in matrix.operation_classes()

    def test_mips_class_count(self, mips):
        matrix = ForbiddenLatencyMatrix.from_machine(mips)
        assert len(matrix.operation_classes()) == 15

    def test_same_class_is_reflexive(self, example_matrix):
        assert example_matrix.same_class("A", "A")

    def test_different_ops_not_same_class(self, example_matrix):
        assert not example_matrix.same_class("A", "B")


class TestDifferences:
    def test_equal_matrices(self, example, example_matrix):
        other = ForbiddenLatencyMatrix.from_machine(example)
        assert example_matrix == other
        assert example_matrix.differences(other) == []

    def test_detects_missing_latency(self, example, example_matrix):
        weaker = MachineDescription(
            "weak",
            {
                "A": {"r0": [0]},
                "B": {"r3": [2, 3, 4, 5], "r4": [6, 7]},
            },
        )
        diffs = example_matrix.differences(
            ForbiddenLatencyMatrix.from_machine(weaker)
        )
        assert any(x == "B" and y == "A" for x, y, _, _ in diffs)
