"""End-to-end integration: MDL text -> reduction -> scheduling ->
expansion -> simulation.

One walk through the whole toolchain, checking each stage's artifact
against the previous stage's guarantees.  This is the test a downstream
adopter would read first.
"""

import pytest

from repro import mdl
from repro.analysis import describe_reduction, has_collision
from repro.core import assert_equivalent, reduce_machine
from repro.machines import cydra5_subset
from repro.scheduler import (
    IterativeModuloScheduler,
    OperationDrivenScheduler,
    TraceScheduler,
    expand,
    max_live,
    register_requirement,
)
from repro.simulate import simulate
from repro.workloads import KERNELS, block_suite


@pytest.fixture(scope="module")
def machine_text():
    return mdl.dumps(cydra5_subset())


@pytest.fixture(scope="module")
def toolchain(machine_text):
    """Run the full pipeline once; stages assert as they go."""
    # 1. Parse the architects' description.
    original = mdl.loads(machine_text)

    # 2. Reduce it for the compiler, verified exact.
    reduction = reduce_machine(
        original, objective="word-uses", word_cycles=7
    )
    assert_equivalent(original, reduction.reduced)

    # 3. Software-pipeline a kernel with the reduced description.
    scheduler = IterativeModuloScheduler(
        reduction.reduced, representation="bitvector", word_cycles=7
    )
    result = scheduler.schedule(KERNELS["hydro"]())
    return original, reduction, result


class TestPipeline:
    def test_reduction_stage(self, toolchain):
        original, reduction, _result = toolchain
        assert reduction.reduced.num_resources < original.num_resources
        assert "state bits/cycle" in describe_reduction(reduction)

    def test_schedule_stage(self, toolchain):
        _original, _reduction, result = toolchain
        assert result.optimal
        result.graph.verify_schedule(result.times, ii=result.ii)

    def test_expansion_runs_on_original_hardware(self, toolchain):
        """Expanded overlapped iterations simulate cleanly on the
        ORIGINAL machine even though scheduling used the reduced one."""
        original, _reduction, result = toolchain
        expanded = expand(result, iterations=5)
        placements = [
            (result.chosen_opcodes[name], cycle)
            for (name, _iteration), cycle in expanded.placements.items()
        ]
        report = simulate(original, placements)
        assert report.clean
        assert not has_collision(original, placements)

    def test_register_metrics_stage(self, toolchain):
        _original, _reduction, result = toolchain
        assert register_requirement(result) >= max_live(result) // 2
        assert max_live(result) >= 1

    def test_mdl_round_trip_of_reduced(self, toolchain):
        original, reduction, _result = toolchain
        text = mdl.dumps(reduction.reduced)
        assert_equivalent(original, mdl.loads(text))


class TestTraceIntegration:
    def test_blocks_then_simulation(self, machine_text):
        original = mdl.loads(machine_text)
        reduced = reduce_machine(original).reduced
        trace = TraceScheduler(reduced).schedule(block_suite(4, seed=3))
        report = simulate(original, trace.flat_placements())
        assert report.clean

    def test_block_schedules_identical_across_descriptions(
        self, machine_text
    ):
        original = mdl.loads(machine_text)
        reduced = reduce_machine(original).reduced
        for graph_a, graph_b in zip(
            block_suite(5, seed=8), block_suite(5, seed=8)
        ):
            first = OperationDrivenScheduler(original).schedule(graph_a)
            second = OperationDrivenScheduler(reduced).schedule(graph_b)
            assert first.times == second.times
            assert first.chosen_opcodes == second.chosen_opcodes
