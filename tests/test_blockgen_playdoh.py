"""Tests for the basic-block generator and the PlayDoh machine."""

import pytest

from repro.core import (
    ForbiddenLatencyMatrix,
    matrices_equal,
    reduce_machine,
    schedule_is_contention_free,
)
from repro.machines import PLAYDOH_LATENCIES, PLAYDOH_MIX, playdoh
from repro.scheduler import OperationDrivenScheduler, res_mii
from repro.workloads import block_suite, generate_block
from repro.workloads.blockgen import MAX_BLOCK_OPS


class TestBlockGenerator:
    def test_deterministic(self):
        a = generate_block(7)
        b = generate_block(7)
        assert [op.name for op in a.operations()] == [
            op.name for op in b.operations()
        ]

    def test_blocks_are_acyclic(self):
        for seed in range(40):
            graph = generate_block(seed)
            graph.validate()
            assert graph.is_acyclic()

    def test_no_loop_carried_edges(self):
        for seed in range(20):
            assert all(
                e.distance == 0 for e in generate_block(seed).edges()
            )

    def test_size_bounds(self):
        sizes = [g.num_operations for g in block_suite(150)]
        assert max(sizes) <= MAX_BLOCK_OPS + MAX_BLOCK_OPS // 8
        assert min(sizes) >= 1

    def test_custom_mix(self):
        graph = generate_block(
            3,
            mix=(("ialu", 1),),
            latencies=PLAYDOH_LATENCIES,
        )
        body_opcodes = {
            op.opcode for op in graph.operations()
        }
        assert body_opcodes <= {"ialu", "store_s"}

    def test_blocks_schedule_on_subset(self):
        from repro.machines import cydra5_subset

        scheduler = OperationDrivenScheduler(cydra5_subset())
        for graph in block_suite(12):
            result = scheduler.schedule(graph)
            placements = [
                (result.chosen_opcodes[n], t)
                for n, t in result.times.items()
            ]
            assert schedule_is_contention_free(
                result.machine, placements
            )


class TestPlayDoh:
    @pytest.fixture(scope="class")
    def machine(self):
        return playdoh()

    def test_structure(self, machine):
        assert machine.alternatives_of("ialu") == (
            "ialu.0", "ialu.1", "ialu.2", "ialu.3",
        )
        assert len(machine.alternatives_of("ld")) == 2

    def test_latency_table_covers_all_bases(self, machine):
        bases = set(machine.alternatives) | {
            op for op in machine.operation_names if "." not in op
        }
        assert bases == set(PLAYDOH_LATENCIES)

    def test_mix_opcodes_exist(self, machine):
        for opcode, _weight in PLAYDOH_MIX:
            machine.alternatives_of(opcode)

    def test_reduction_exact(self, machine):
        reduction = reduce_machine(machine)
        assert matrices_equal(machine, reduction.reduced)
        assert reduction.reduced.num_resources < machine.num_resources

    def test_wide_issue(self, machine):
        matrix = ForbiddenLatencyMatrix.from_machine(machine)
        # Two different ALUs can issue in the same cycle...
        assert not matrix.is_forbidden("ialu.0", "ialu.1", 0)
        # ... but the same ALU cannot be used twice.
        assert matrix.is_forbidden("ialu.0", "ialu.0", 0)

    def test_divider_not_pipelined(self, machine):
        matrix = ForbiddenLatencyMatrix.from_machine(machine)
        assert matrix.is_forbidden("fdiv_d.0", "fdiv_d.0", 15)
        assert matrix.max_latency < 41

    def test_res_mii_uses_alternatives(self, machine):
        # 4 ialu ops spread over 4 ALUs: II = 1 suffices.
        assert res_mii(machine, ["ialu"] * 4) == 1
        assert res_mii(machine, ["ialu"] * 5) == 2
