"""Unit tests for dependence graphs."""

import copy
import dataclasses
import pickle

import pytest

from repro.errors import ScheduleError
from repro.machines import cydra5_subset
from repro.scheduler import (
    CorpusScheduler,
    Dependence,
    DependenceGraph,
    IterativeModuloScheduler,
    Operation,
    chain,
)
from repro.workloads import generate_loop, loop_suite, loopgen


@pytest.fixture
def diamond():
    g = DependenceGraph("diamond")
    for name in "abcd":
        g.add_operation(name, "op")
    g.add_dependence("a", "b", 2)
    g.add_dependence("a", "c", 3)
    g.add_dependence("b", "d", 1)
    g.add_dependence("c", "d", 1)
    return g


class TestConstruction:
    def test_basic(self, diamond):
        assert diamond.num_operations == 4
        assert diamond.num_edges == 4

    def test_duplicate_node_rejected(self, diamond):
        with pytest.raises(ScheduleError):
            diamond.add_operation("a", "op")

    def test_unknown_endpoint_rejected(self, diamond):
        with pytest.raises(ScheduleError):
            diamond.add_dependence("a", "ghost", 1)

    def test_negative_distance_rejected(self, diamond):
        with pytest.raises(ScheduleError):
            diamond.add_dependence("a", "b", 1, distance=-1)

    def test_self_edge_needs_distance(self):
        g = DependenceGraph("self")
        g.add_operation("x", "op")
        g.add_dependence("x", "x", 1, distance=1)
        g.validate()

    def test_chain_helper(self):
        g = chain("c", ["op1", "op2", "op3"], latency=2)
        assert g.num_operations == 3
        assert g.num_edges == 2
        assert g.critical_path_length() == 4


class TestAnalysis:
    def test_topological_order(self, diamond):
        order = diamond.topological_order()
        assert order.index("a") < order.index("b") < order.index("d")

    def test_cycle_detected(self):
        g = DependenceGraph("cyclic")
        g.add_operation("x", "op")
        g.add_operation("y", "op")
        g.add_dependence("x", "y", 1)
        g.add_dependence("y", "x", 1)
        assert g.topological_order() is None
        assert not g.is_acyclic()
        with pytest.raises(ScheduleError):
            g.validate()

    def test_loop_carried_cycle_is_fine(self):
        g = DependenceGraph("rec")
        g.add_operation("x", "op")
        g.add_operation("y", "op")
        g.add_dependence("x", "y", 1)
        g.add_dependence("y", "x", 1, distance=1)
        g.validate()

    def test_critical_path(self, diamond):
        assert diamond.critical_path_length() == 4

    def test_empty_graph_invalid(self):
        with pytest.raises(ScheduleError):
            DependenceGraph("empty").validate()

    def test_predecessors_successors(self, diamond):
        assert {e.src for e in diamond.predecessors("d")} == {"b", "c"}
        assert {e.dst for e in diamond.successors("a")} == {"b", "c"}

    def test_opcodes_with_multiplicity(self, diamond):
        assert diamond.opcodes() == ["op"] * 4


class TestVerifySchedule:
    def test_valid_acyclic(self, diamond):
        diamond.verify_schedule({"a": 0, "b": 2, "c": 3, "d": 4})

    def test_violation_detected(self, diamond):
        with pytest.raises(ScheduleError):
            diamond.verify_schedule({"a": 0, "b": 1, "c": 3, "d": 4})

    def test_missing_operation(self, diamond):
        with pytest.raises(ScheduleError):
            diamond.verify_schedule({"a": 0})

    def test_modulo_form_uses_distance(self):
        g = DependenceGraph("rec")
        g.add_operation("x", "op")
        g.add_dependence("x", "x", 3, distance=1)
        g.verify_schedule({"x": 0}, ii=3)
        with pytest.raises(ScheduleError):
            g.verify_schedule({"x": 0}, ii=2)

    def test_acyclic_form_ignores_carried_edges(self):
        g = DependenceGraph("rec")
        g.add_operation("x", "op")
        g.add_dependence("x", "x", 3, distance=1)
        g.verify_schedule({"x": 0})  # no ii: carried edge ignored


class TestValueObjects:
    """``Operation`` and ``Dependence`` are slotted frozen values that
    behave as the plain frozen dataclasses they replaced."""

    def test_dependence_defaults_and_keywords(self):
        edge = Dependence("a", "b", 3)
        assert (edge.distance, edge.kind) == (0, "flow")
        assert edge == Dependence(
            src="a", dst="b", latency=3, distance=0, kind="flow"
        )

    def test_equality_hash_and_repr(self):
        assert Operation("a", "op") == Operation("a", "op")
        assert Operation("a", "op") != Operation("a", "other")
        assert hash(Operation("a", "op")) == hash(Operation("a", "op"))
        assert len({Dependence("a", "b", 1), Dependence("a", "b", 1)}) == 1
        assert Dependence("a", "b", 1) != Dependence("a", "b", 1, 1)
        assert repr(Operation("a", "op")) == (
            "Operation(name='a', opcode='op')"
        )
        assert repr(Dependence("a", "b", 2, 1)) == (
            "Dependence(src='a', dst='b', latency=2, distance=1,"
            " kind='flow')"
        )

    @pytest.mark.parametrize("value", [
        Operation("a", "op"), Dependence("a", "b", 2, 1, "anti"),
    ])
    def test_frozen_and_slotted(self, value):
        first = dataclasses.fields(value)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, first, "z")
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, first)
        assert not hasattr(value, "__dict__")

    def test_fields_and_replace(self):
        assert [f.name for f in dataclasses.fields(Operation)] == [
            "name", "opcode",
        ]
        assert [f.name for f in dataclasses.fields(Dependence)] == [
            "src", "dst", "latency", "distance", "kind",
        ]
        edge = Dependence("a", "b", 2, 1, "anti")
        assert dataclasses.replace(edge, latency=5) == Dependence(
            "a", "b", 5, 1, "anti"
        )
        assert dataclasses.replace(Operation("a", "op"), opcode="x") == (
            Operation("a", "x")
        )
        assert dataclasses.astuple(edge) == ("a", "b", 2, 1, "anti")

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        for value in (Operation("a", "op"), Dependence("a", "b", 2, 1, "anti")):
            again = pickle.loads(pickle.dumps(value, protocol))
            assert again == value and type(again) is type(value)

    def test_copy_round_trip(self):
        for value in (Operation("a", "op"), Dependence("a", "b", 2, 1, "anti")):
            assert copy.copy(value) == value
            assert copy.deepcopy(value) == value

    def test_graph_pickles_and_copies(self, diamond):
        diamond.successors("a")  # a cached adjacency travels along
        for again in (
            pickle.loads(pickle.dumps(diamond)), copy.deepcopy(diamond),
        ):
            assert again.operations() == diamond.operations()
            assert list(again.edges()) == list(diamond.edges())
            assert {e.src for e in again.predecessors("d")} == {"b", "c"}


class TestAdjacency:
    """Successor and predecessor lists derive from the edge list on
    demand; every add drops them."""

    def test_built_on_first_use_only(self, diamond):
        assert diamond._adjacency is None
        assert diamond.topological_order() is not None
        assert diamond._adjacency is None
        diamond.successors("a")
        assert diamond._adjacency is not None

    def test_add_dependence_after_use(self, diamond):
        assert [e.dst for e in diamond.successors("a")] == ["b", "c"]
        diamond.add_dependence("a", "d", 7)
        assert [e.dst for e in diamond.successors("a")] == ["b", "c", "d"]
        assert [e.src for e in diamond.predecessors("d")] == ["b", "c", "a"]
        assert diamond.critical_path_length() == 7

    def test_add_operation_after_use(self, diamond):
        assert diamond.critical_path_length() == 4
        diamond.add_operation("e", "op")
        assert diamond.successors("e") == []
        diamond.add_dependence("d", "e", 5)
        assert [e.src for e in diamond.predecessors("e")] == ["d"]
        assert diamond.critical_path_length() == 9

    def test_returned_lists_are_copies(self, diamond):
        diamond.successors("a").clear()
        assert len(diamond.successors("a")) == 2

    def test_unknown_name_raises_key_error(self, diamond):
        with pytest.raises(KeyError):
            diamond.successors("ghost")

    def test_scheduling_pass_retains_no_adjacency(self):
        graphs = [generate_loop(seed) for seed in range(12)]
        machine = cydra5_subset()
        for graph in graphs:
            IterativeModuloScheduler(machine).schedule(graph)
        CorpusScheduler(machine, processes=1).schedule_suite(graphs)
        assert [g._adjacency for g in graphs] == [None] * len(graphs)


class TestTopologicalOrder:
    def _reference(self, graph):
        """The former algorithm, over adjacency lists."""
        indegree = {op.name: 0 for op in graph.operations()}
        for edge in graph.edges():
            if edge.distance == 0:
                indegree[edge.dst] += 1
        ready = [name for name, deg in indegree.items() if deg == 0]
        order = []
        while ready:
            name = ready.pop()
            order.append(name)
            for edge in graph.successors(name):
                if edge.distance == 0:
                    indegree[edge.dst] -= 1
                    if indegree[edge.dst] == 0:
                        ready.append(edge.dst)
        return order if len(order) == graph.num_operations else None

    def test_acyclic_orders_every_edge(self):
        for seed in range(30):
            graph = generate_loop(seed)
            order = graph.topological_order()
            assert order == self._reference(graph)
            position = {name: i for i, name in enumerate(order)}
            assert sorted(position) == sorted(
                op.name for op in graph.operations()
            )
            for edge in graph.edges():
                if edge.distance == 0:
                    assert position[edge.src] < position[edge.dst]

    def test_cycle_behind_an_acyclic_prefix(self):
        g = chain("c", ["op"] * 4)
        g.add_dependence("n3", "n1", 1)
        assert g.topological_order() is None
        assert self._reference(g) is None
        g2 = chain("c", ["op"] * 4)
        g2.add_dependence("n3", "n1", 1, distance=2)
        assert g2.topological_order() == self._reference(g2)
        assert g2.topological_order() == ["n0", "n1", "n2", "n3"]

    def test_self_edge_at_distance_zero_is_a_cycle(self):
        g = DependenceGraph("self")
        g.add_operation("x", "op")
        g.add_dependence("x", "x", 1)
        assert g.topological_order() is None


class TestFromParts:
    def test_keeps_order_and_shares_objects(self, diamond):
        ops = diamond.operations()
        edges = list(diamond.edges())
        built = DependenceGraph.from_parts("copy", ops, edges)
        assert built.name == "copy"
        assert built.operations() == ops
        assert all(a is b for a, b in zip(built.edges(), edges))
        assert all(a is b for a, b in zip(built.operations(), ops))
        assert built.critical_path_length() == 4

    def _message(self, action):
        with pytest.raises(ScheduleError) as info:
            action()
        return str(info.value)

    @pytest.mark.parametrize("ops, edges, add", [
        (
            [Operation("a", "op"), Operation("a", "op2")], [],
            lambda g: g.add_operation("a", "op2"),
        ),
        (
            [Operation("a", "op")], [Dependence("a", "ghost", 1)],
            lambda g: g.add_dependence("a", "ghost", 1),
        ),
        (
            [Operation("a", "op")], [Dependence("ghost", "a", 1)],
            lambda g: g.add_dependence("ghost", "a", 1),
        ),
        (
            [Operation("a", "op")], [Dependence("a", "a", 1, -1)],
            lambda g: g.add_dependence("a", "a", 1, distance=-1),
        ),
    ], ids=["duplicate", "unknown-dst", "unknown-src", "negative-distance"])
    def test_errors_match_the_incremental_adds(self, ops, edges, add):
        bulk = self._message(
            lambda: DependenceGraph.from_parts("g", ops, edges)
        )
        graph = DependenceGraph("g")
        graph.add_operation("a", "op")
        assert bulk == self._message(lambda: add(graph))

    def test_adding_to_one_suite_graph_leaves_the_others(self, monkeypatch):
        monkeypatch.setattr(loopgen, "_SUITE_MEMO", {})
        suite = loop_suite(40, seed=0)
        before = [(g.operations(), list(g.edges())) for g in suite]
        shared = next(
            g for g in suite[1:]
            if set(g.edges()) & set(suite[0].edges())
        )
        assert any(
            a is b for a in shared.edges() for b in suite[0].edges()
        )
        first = suite[0].operations()
        suite[0].add_operation("extra", "iadd")
        suite[0].add_dependence(first[0].name, "extra", 2)
        assert suite[0].num_edges == len(before[0][1]) + 1
        after = [(g.operations(), list(g.edges())) for g in suite[1:]]
        assert after == before[1:]
