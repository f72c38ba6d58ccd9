"""Tests for the loop generator and the named kernels."""

import hashlib
import os
import subprocess
import sys
import tracemalloc

import pytest

from repro.machines import cydra5_subset
from repro.workloads import loopgen
from repro.workloads.loopgen import graph_signature
from repro.workloads import (
    KERNELS,
    MAX_OPS,
    MIN_OPS,
    RESULT_LATENCY,
    all_kernels,
    generate_loop,
    loop_suite,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestGenerateLoop:
    def test_deterministic(self):
        first = generate_loop(42)
        second = generate_loop(42)
        assert [op.name for op in first.operations()] == [
            op.name for op in second.operations()
        ]
        assert list(first.edges()) == list(second.edges())

    def test_different_seeds_differ(self):
        a = generate_loop(1)
        b = generate_loop(2)
        assert (
            a.num_operations != b.num_operations
            or [op.name for op in a.operations()]
            != [op.name for op in b.operations()]
        )

    def test_graphs_are_valid(self):
        for seed in range(40):
            generate_loop(seed).validate()

    def test_opcodes_exist_on_subset_machine(self):
        machine = cydra5_subset()
        for seed in range(30):
            for opcode in generate_loop(seed).opcodes():
                machine.alternatives_of(opcode)  # raises if unknown

    def test_every_loop_has_loop_control(self):
        for seed in range(30):
            opcodes = generate_loop(seed).opcodes()
            assert opcodes.count("brtop") == 1

    def test_named_graph(self):
        assert generate_loop(3, name="custom").name == "custom"


class TestSuiteStatistics:
    @pytest.fixture(scope="class")
    def suite(self):
        return loop_suite(400, seed=0)

    def test_size_bounds(self, suite):
        sizes = [g.num_operations for g in suite]
        assert min(sizes) >= MIN_OPS
        assert max(sizes) <= MAX_OPS

    def test_mean_size_near_paper(self, suite):
        """Table 5 reports a mean of 17.54 ops/loop; ours is calibrated
        to land in the same band."""
        sizes = [g.num_operations for g in suite]
        mean = sum(sizes) / len(sizes)
        assert 10.0 < mean < 25.0

    def test_minority_of_loops_have_recurrences(self, suite):
        def has_data_recurrence(graph):
            return any(
                e.distance > 0 and e.src != e.dst for e in graph.edges()
            )

        fraction = sum(map(has_data_recurrence, suite)) / len(suite)
        assert 0.05 < fraction < 0.7

    def test_suite_reproducible(self):
        a = loop_suite(10, seed=5)
        b = loop_suite(10, seed=5)
        assert [g.num_operations for g in a] == [
            g.num_operations for g in b
        ]

    def test_full_suite_digest_is_pinned(self):
        """The 1327-loop seed-0 suite, byte for byte: names, opcodes and
        edges in insertion order.  A generator speed-up must leave it
        alone; a recalibration (ROADMAP item 4) re-pins it on purpose,
        together with every table the suite feeds."""
        digest = hashlib.sha256()
        for graph in loop_suite(1327, seed=0):
            digest.update(repr((
                graph.name,
                [(op.name, op.opcode) for op in graph.operations()],
                [(e.src, e.dst, e.latency, e.distance)
                 for e in graph.edges()],
            )).encode("utf-8"))
        assert digest.hexdigest() == (
            "83bb64c8910c00d6c59ab4df5270264d4189f82d684f61aa9aa2392cc7a34bf0"
        )


class TestSuiteMemo:
    """The corpus path calls ``loop_suite`` repeatedly; it must be
    memoized per ``(count, seed)`` yet deterministic without the memo
    (a fresh interpreter regenerates the identical suite)."""

    def test_repeat_calls_share_graph_objects(self):
        a = loop_suite(12, seed=3)
        b = loop_suite(12, seed=3)
        assert a is not b  # fresh list: callers may slice/reorder
        assert all(x is y for x, y in zip(a, b))
        assert [graph_signature(g) for g in a] == [
            graph_signature(g) for g in b
        ]

    def test_distinct_keys_do_not_collide(self):
        assert [graph_signature(g) for g in loop_suite(6, seed=1)] != [
            graph_signature(g) for g in loop_suite(6, seed=2)
        ]

    def test_memo_is_bounded(self):
        loopgen._SUITE_MEMO.clear()
        for count in range(1, loopgen._SUITE_MEMO_MAX + 3):
            loop_suite(count, seed=9)
            assert len(loopgen._SUITE_MEMO) <= loopgen._SUITE_MEMO_MAX
        # Eviction never breaks determinism — only object identity.
        before = [graph_signature(g) for g in loop_suite(2, seed=9)]
        loopgen._SUITE_MEMO.clear()
        assert [graph_signature(g) for g in loop_suite(2, seed=9)] == (
            before
        )

    def test_fresh_interpreter_regenerates_identical_suite(self):
        """Cross-process determinism: the memo is an optimization, the
        seeded generator is the contract (corpus workers rely on it)."""
        script = (
            "from repro.workloads import loop_suite\n"
            "from repro.workloads.loopgen import graph_signature\n"
            "print('\\n'.join(graph_signature(g)"
            " for g in loop_suite(16, seed=4)))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(REPO_ROOT, "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        env["PYTHONHASHSEED"] = "random"
        output = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True, env=env,
        ).stdout.split()
        assert output == [
            graph_signature(g) for g in loop_suite(16, seed=4)
        ]


class TestSuiteSharing:
    """A suite builds each distinct node and edge once and every graph
    refers to the shared objects."""

    @pytest.fixture
    def fresh_memo(self, monkeypatch):
        monkeypatch.setattr(loopgen, "_SUITE_MEMO", {})

    def test_full_suite_holds_622_operations_and_7089_edges(self, fresh_memo):
        suite = loop_suite(1327, seed=0)
        ops = [op for graph in suite for op in graph.operations()]
        edges = [edge for graph in suite for edge in graph.edges()]
        assert (len(ops), len(edges)) == (19302, 25009)
        assert len({id(op) for op in ops}) == len(set(ops)) == 622
        assert len({id(edge) for edge in edges}) == len(set(edges)) == 7089

    def test_full_suite_live_size_at_most_3_mb(self, fresh_memo):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            suite = loop_suite(1327, seed=0)
            live = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(suite) == 1327
        assert live <= 3 * 1024 * 1024, live

    def test_suite_graphs_equal_standalone_graphs(self, fresh_memo):
        suite = loop_suite(60, seed=2)
        for index, graph in enumerate(suite):
            alone = generate_loop(2 * 100003 + index)
            assert graph.name == alone.name
            assert graph.operations() == alone.operations()
            assert list(graph.edges()) == list(alone.edges())

    def test_standalone_graphs_share_nothing(self):
        a, b = generate_loop(7), generate_loop(7)
        assert a.operations() == b.operations()
        assert not any(
            x is y for x, y in zip(a.operations(), b.operations())
        )


class TestKernels:
    def test_all_kernels_build_and_validate(self):
        for graph in all_kernels():
            graph.validate()

    def test_kernel_names_registered(self):
        assert set(KERNELS) == {
            "hydro",
            "inner-product",
            "first-difference",
            "tridiagonal",
            "daxpy",
            "state",
            "matmul-inner",
            "partial-sums",
            "banded-linear",
            "predicated-select",
        }

    def test_inner_product_has_accumulator(self):
        graph = KERNELS["inner-product"]()
        assert any(
            e.src == e.dst == "acc" and e.distance == 1
            for e in graph.edges()
        )

    def test_tridiagonal_recurrence_spans_two_ops(self):
        graph = KERNELS["tridiagonal"]()
        assert any(
            e.src == "mul" and e.dst == "sub" and e.distance == 1
            for e in graph.edges()
        )

    def test_latencies_match_table(self):
        for graph in all_kernels():
            for edge in graph.edges():
                src_opcode = graph.operation(edge.src).opcode
                assert edge.latency <= RESULT_LATENCY[src_opcode] + 1


class TestTranslate:
    def test_translation_preserves_shape(self):
        from repro.machines import playdoh
        from repro.workloads import CYDRA_TO_PLAYDOH, translate_graph

        machine = playdoh()
        original = generate_loop(5)
        ported = translate_graph(original, CYDRA_TO_PLAYDOH, machine)
        assert ported.num_operations == original.num_operations
        assert ported.num_edges == original.num_edges
        for before, after in zip(original.edges(), ported.edges()):
            assert (before.src, before.dst, before.distance) == (
                after.src, after.dst, after.distance,
            )

    def test_latencies_recomputed_from_target(self):
        from repro.machines import playdoh
        from repro.workloads import CYDRA_TO_PLAYDOH, translate_graph

        machine = playdoh()
        original = generate_loop(5)
        ported = translate_graph(original, CYDRA_TO_PLAYDOH, machine)
        for edge in ported.edges():
            if edge.latency > 0:
                producer = ported.operation(edge.src).opcode
                assert edge.latency == machine.latency_of(producer)

    def test_untranslatable_opcode_rejected(self):
        from repro.errors import ScheduleError
        from repro.machines import playdoh
        from repro.scheduler import DependenceGraph
        from repro.workloads import translate_graph

        graph = DependenceGraph("g")
        graph.add_operation("x", "exotic_op")
        with pytest.raises(ScheduleError):
            translate_graph(graph, {}, playdoh())

    def test_translated_loops_schedule(self):
        from repro.machines import playdoh
        from repro.scheduler import IterativeModuloScheduler
        from repro.workloads import CYDRA_TO_PLAYDOH, translate_graph

        machine = playdoh()
        scheduler = IterativeModuloScheduler(machine)
        for seed in range(8):
            ported = translate_graph(
                generate_loop(seed), CYDRA_TO_PLAYDOH, machine
            )
            result = scheduler.schedule(ported)
            result.graph.verify_schedule(result.times, ii=result.ii)


class TestLatencyConsistency:
    def test_loopgen_table_matches_machine_metadata(self):
        """The workload generator's latency table and the Cydra 5
        model's embedded metadata must agree — one source of truth."""
        from repro.machines import cydra5_subset

        machine = cydra5_subset()
        for opcode, latency in RESULT_LATENCY.items():
            assert machine.latency_of(opcode) == latency, opcode
