"""Unit tests for the MII bounds (ResMII / RecMII)."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import ForbiddenLatencyMatrix, MachineDescription
from repro.errors import ScheduleError
from repro.machines import cydra5_subset, playdoh
from repro.scheduler import (
    DependenceGraph,
    min_feasible_ii_for_op,
    min_ii,
    rec_mii,
    res_mii,
)

from tests import _reference_query


@pytest.fixture
def simple_machine():
    return MachineDescription(
        "simple",
        {
            "alu": {"alu": [0]},
            "mul": {"mul": [0, 1]},  # partially pipelined: rate 1/2
        },
    )


class TestResMII:
    def test_counts_most_used_resource(self, simple_machine):
        assert res_mii(simple_machine, ["alu", "alu", "alu"]) == 3

    def test_self_infeasibility_bound(self, simple_machine):
        # One mul: the unit is busy 2 cycles, so II=1 self-collides.
        assert res_mii(simple_machine, ["mul"]) == 2

    def test_empty_oplist(self, simple_machine):
        assert res_mii(simple_machine, []) == 1

    def test_alternatives_spread_round_robin(self, dual_pipe):
        # Two movs can go one to each pipe: II bound stays 1... but each
        # pipe also serves add/mul; two movs alone need only 1 slot each.
        assert res_mii(dual_pipe, ["mov", "mov"]) == 1
        assert res_mii(dual_pipe, ["mov", "mov", "mov", "mov"]) == 2

    def test_min_feasible_ii_skips_colliding_divisors(self):
        md = MachineDescription("gap", {"X": {"u": [0, 4]}})
        matrix = ForbiddenLatencyMatrix.from_machine(md)
        # F[X][X] = {0, 4}: II in {1, 2, 4} wraps 4 onto 0; II=3 is fine.
        assert min_feasible_ii_for_op(matrix, "X") == 3

    def test_min_feasible_ii_simple(self, example):
        matrix = ForbiddenLatencyMatrix.from_machine(example)
        assert min_feasible_ii_for_op(matrix, "A") == 1
        assert min_feasible_ii_for_op(matrix, "B") == 4


class TestRecMII:
    def test_no_recurrence_gives_one(self):
        g = DependenceGraph("line")
        g.add_operation("a", "op")
        g.add_operation("b", "op")
        g.add_dependence("a", "b", 5)
        assert rec_mii(g) == 1

    def test_accumulator(self):
        g = DependenceGraph("acc")
        g.add_operation("a", "op")
        g.add_dependence("a", "a", 4, distance=1)
        assert rec_mii(g) == 4

    def test_distance_two_halves_bound(self):
        g = DependenceGraph("d2")
        g.add_operation("a", "op")
        g.add_dependence("a", "a", 5, distance=2)
        assert rec_mii(g) == 3  # ceil(5/2)

    def test_multi_node_cycle(self):
        g = DependenceGraph("cyc")
        g.add_operation("a", "op")
        g.add_operation("b", "op")
        g.add_dependence("a", "b", 3)
        g.add_dependence("b", "a", 4, distance=1)
        assert rec_mii(g) == 7

    def test_max_over_cycles(self):
        g = DependenceGraph("two")
        for name in "abc":
            g.add_operation(name, "op")
        g.add_dependence("a", "a", 2, distance=1)
        g.add_dependence("b", "c", 6)
        g.add_dependence("c", "b", 6, distance=2)
        assert rec_mii(g) == 6  # max(2, ceil(12/2))

    def test_zero_distance_cycle_rejected(self):
        g = DependenceGraph("bad")
        g.add_operation("a", "op")
        g.add_operation("b", "op")
        g.add_dependence("a", "b", 1)
        g.add_dependence("b", "a", 1)
        with pytest.raises(ScheduleError):
            rec_mii(g)


class TestMinII:
    def test_takes_the_max(self, simple_machine):
        g = DependenceGraph("loop")
        g.add_operation("m", "mul")
        g.add_dependence("m", "m", 1, distance=1)
        # ResMII = 2 (mul unit), RecMII = 1.
        assert min_ii(simple_machine, g) == 2

    def test_recurrence_dominates(self, simple_machine):
        g = DependenceGraph("loop")
        g.add_operation("a", "alu")
        g.add_dependence("a", "a", 7, distance=1)
        assert min_ii(simple_machine, g) == 7


# ----------------------------------------------------------------------
# min_ii decides RecMII <= ResMII with one positive-cycle test at ResMII
# ----------------------------------------------------------------------
SHORTCUT_MACHINE = MachineDescription(
    "shortcut",
    {"alu": {"alu": [0]}, "mul": {"mul": [0, 1]}, "div": {"div": [0, 3]}},
)


def _loop(spec):
    """``(opcodes, edges)`` -> graph.  Distance-0 edges only run forward
    (so they stay acyclic); loop-carried edges go anywhere."""
    opcodes, edges = spec
    graph = DependenceGraph("spec")
    for index, opcode in enumerate(opcodes):
        graph.add_operation("n%d" % index, opcode)
    for src, dst, latency, distance in edges:
        if distance == 0 and src >= dst:
            continue
        graph.add_dependence("n%d" % src, "n%d" % dst, latency, distance)
    return graph


@st.composite
def loop_specs(draw):
    size = draw(st.integers(1, 6))
    opcodes = draw(st.lists(
        st.sampled_from(("alu", "mul", "div")), min_size=size, max_size=size
    ))
    edges = draw(st.lists(
        st.tuples(
            st.integers(0, size - 1),
            st.integers(0, size - 1),
            st.integers(-3, 14),
            st.integers(0, 3),
        ),
        max_size=10,
    ))
    return opcodes, edges


# RecMII above, equal to and below ResMII (3 for three alus), with a
# distance-2 recurrence and a negative latency.
RECMII_ABOVE = (["alu"] * 3, [(0, 1, 5, 0), (1, 0, 4, 1)])
RECMII_EQUAL = (["alu"] * 3, [(0, 2, 7, 0), (2, 0, -1, 2)])
RECMII_BELOW = (["alu"] * 3, [(0, 1, 2, 0), (1, 2, -2, 0), (2, 0, 1, 2)])


class TestMinIIShortcut:
    @pytest.mark.parametrize(
        "spec, rec, res",
        [(RECMII_ABOVE, 9, 3), (RECMII_EQUAL, 3, 3), (RECMII_BELOW, 1, 3)],
    )
    def test_examples_cover_each_side(self, spec, rec, res):
        graph = _loop(spec)
        assert rec_mii(graph) == rec
        assert res_mii(SHORTCUT_MACHINE, graph.opcodes()) == res
        assert min_ii(SHORTCUT_MACHINE, graph) == max(rec, res)

    @settings(max_examples=300, deadline=None)
    @given(loop_specs())
    @example(RECMII_ABOVE)
    @example(RECMII_EQUAL)
    @example(RECMII_BELOW)
    def test_equals_max_of_both_bounds(self, spec):
        graph = _loop(spec)
        matrix = ForbiddenLatencyMatrix.from_machine(SHORTCUT_MACHINE)
        assert min_ii(SHORTCUT_MACHINE, graph, matrix=matrix) == max(
            res_mii(SHORTCUT_MACHINE, graph.opcodes(), matrix),
            rec_mii(graph),
        )

    @pytest.mark.parametrize("latency", (0, 2))
    def test_zero_distance_cycle_still_raises(self, latency):
        g = DependenceGraph("bad")
        g.add_operation("a", "alu")
        g.add_operation("b", "alu")
        g.add_dependence("a", "b", latency)
        g.add_dependence("b", "a", latency)
        with pytest.raises(ScheduleError, match="zero-distance dependence"):
            min_ii(SHORTCUT_MACHINE, g)


#: One machine and one reused matrix each: ``res_mii`` fills the
#: matrix's self-feasibility memo across examples.
MEMO_MACHINES = {
    machine.name: (machine, ForbiddenLatencyMatrix.from_machine(machine))
    for machine in (cydra5_subset(), playdoh())
}


class TestSelfFeasibleMemo:
    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(sorted(MEMO_MACHINES)), st.data())
    def test_reused_matrix_equals_fresh_matrix(self, name, data):
        machine, reused = MEMO_MACHINES[name]
        names = sorted(set(machine.alternatives) | set(machine.operation_names))
        opcodes = data.draw(
            st.lists(st.sampled_from(names), max_size=24), label="opcodes"
        )
        fresh = ForbiddenLatencyMatrix.from_machine(machine)
        expected = _reference_query.res_mii(machine, opcodes, fresh)
        assert res_mii(machine, opcodes, matrix=reused) == expected
        assert res_mii(machine, opcodes, matrix=fresh) == expected
        assert res_mii(machine, opcodes) == expected
        for op in machine.operation_names:
            assert min_feasible_ii_for_op(reused, op) == (
                _reference_query.min_feasible_ii_for_op(fresh, op)
            )

    def test_memo_is_not_part_of_equality(self):
        md = MachineDescription("gap", {"X": {"u": [0, 4]}, "Y": {"u": [0]}})
        used = ForbiddenLatencyMatrix.from_machine(md)
        assert used.min_self_feasible_ii("X") == 3
        assert used.min_self_feasible_ii("Y") == 1
        assert used == ForbiddenLatencyMatrix.from_machine(md)
