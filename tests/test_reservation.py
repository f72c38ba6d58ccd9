"""Unit tests for reservation tables and usage sets."""

import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ReservationTable, reservation
from repro.errors import MachineDescriptionError


class TestConstruction:
    def test_from_mapping(self):
        rt = ReservationTable({"alu": [0], "bus": [0, 3]})
        assert rt.usage_count == 3
        assert rt.resources == ("alu", "bus")

    def test_from_pairs(self):
        rt = ReservationTable.from_pairs([("a", 0), ("a", 2), ("b", 1)])
        assert rt.usage_set("a") == frozenset({0, 2})
        assert rt.usage_set("b") == frozenset({1})

    def test_duplicate_cycles_collapse(self):
        rt = ReservationTable({"a": [1, 1, 1]})
        assert rt.usage_count == 1

    def test_empty_resources_dropped(self):
        rt = ReservationTable({"a": [], "b": [0]})
        assert rt.resources == ("b",)

    def test_negative_cycle_rejected(self):
        with pytest.raises(MachineDescriptionError):
            ReservationTable({"a": [-1]})

    def test_non_integer_cycle_rejected(self):
        with pytest.raises(MachineDescriptionError):
            ReservationTable({"a": ["x"]})

    def test_bool_cycle_rejected(self):
        with pytest.raises(MachineDescriptionError):
            ReservationTable({"a": [True]})

    def test_empty_table(self):
        rt = ReservationTable({})
        assert rt.is_empty
        assert rt.length == 0
        assert rt.usage_count == 0


class TestIntrospection:
    def test_length_is_one_past_last_use(self):
        assert ReservationTable({"a": [0, 7]}).length == 8

    def test_uses(self):
        rt = ReservationTable({"a": [2]})
        assert rt.uses("a", 2)
        assert not rt.uses("a", 1)
        assert not rt.uses("missing", 2)

    def test_iter_usages_deterministic(self):
        rt = ReservationTable({"b": [3, 1], "a": [2]})
        assert list(rt.iter_usages()) == [("a", 2), ("b", 1), ("b", 3)]

    def test_cycles_used(self):
        rt = ReservationTable({"a": [0, 2], "b": [2, 5]})
        assert rt.cycles_used() == frozenset({0, 2, 5})


class TestAlgebra:
    def test_shifted(self):
        rt = ReservationTable({"a": [0, 1]}).shifted(3)
        assert rt.usage_set("a") == frozenset({3, 4})

    def test_reversed_is_involution(self):
        rt = ReservationTable({"a": [0, 2], "b": [1]})
        assert rt.reversed().reversed() == rt

    def test_reversed_mirrors_cycles(self):
        rt = ReservationTable({"a": [0], "b": [2]})
        rev = rt.reversed()
        assert rev.usage_set("a") == frozenset({2})
        assert rev.usage_set("b") == frozenset({0})

    def test_merged(self):
        merged = ReservationTable({"a": [0]}).merged(
            ReservationTable({"a": [1], "b": [0]})
        )
        assert merged.usage_set("a") == frozenset({0, 1})
        assert merged.usage_set("b") == frozenset({0})

    def test_restricted(self):
        rt = ReservationTable({"a": [0], "b": [1]}).restricted(["b"])
        assert rt.resources == ("b",)


class TestConflicts:
    def test_conflict_at_zero(self):
        rt = ReservationTable({"a": [0]})
        assert rt.conflicts_at(rt, 0)

    def test_no_conflict_when_disjoint(self):
        first = ReservationTable({"a": [0]})
        second = ReservationTable({"b": [0]})
        assert not first.conflicts_at(second, 0)

    def test_conflict_at_positive_distance(self):
        # self at cycle 3 vs other issued 2 later using cycle 1: 3 == 2+1.
        first = ReservationTable({"a": [3]})
        second = ReservationTable({"a": [1]})
        assert first.conflicts_at(second, 2)
        assert not first.conflicts_at(second, 1)

    def test_conflict_at_negative_distance(self):
        first = ReservationTable({"a": [0]})
        second = ReservationTable({"a": [2]})
        assert first.conflicts_at(second, -2)


class TestDunder:
    def test_equality_and_hash(self):
        a = ReservationTable({"x": [0, 1]})
        b = ReservationTable({"x": [1, 0]})
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality(self):
        assert ReservationTable({"x": [0]}) != ReservationTable({"x": [1]})

    def test_repr_mentions_usages(self):
        assert "x: [0, 1]" in repr(ReservationTable({"x": [0, 1]}))

    def test_render_marks_usages(self):
        art = ReservationTable({"alu": [0, 2]}).render()
        assert "X.X" in art

    def test_render_respects_row_order(self):
        rt = ReservationTable({"a": [0], "b": [1]})
        art = rt.render(resources=["b", "a"])
        lines = art.splitlines()
        assert lines[1].startswith("b")
        assert lines[2].startswith("a")


class TestUsageMemo:
    def test_repeated_iteration_is_stable(self):
        rt = ReservationTable({"b": [3, 1], "a": [2]})
        first = list(rt.iter_usages())
        assert list(rt.iter_usages()) == first == [
            ("a", 2), ("b", 1), ("b", 3),
        ]

    def test_filled_memo_pickles_compares_and_hashes_equal(self):
        filled = ReservationTable({"x": [0, 4], "y": [2]})
        list(filled.iter_usages())
        hash(filled)
        clone = pickle.loads(pickle.dumps(filled))
        fresh = ReservationTable({"y": [2], "x": [4, 0]})
        for table in (filled, clone):
            assert table == fresh
            assert hash(table) == hash(fresh)
            assert list(table.iter_usages()) == list(fresh.iter_usages())

    def test_machines_with_filled_memos_pickle(self):
        from repro.core.certificate import machine_digest
        from repro.machines import cydra5_subset
        from repro.scheduler import IterativeModuloScheduler, chain

        machine = cydra5_subset()
        IterativeModuloScheduler(machine).schedule(
            chain("warm", ["load_s", "fmul_s", "store_s"])
        )
        clone = pickle.loads(pickle.dumps(machine))
        assert clone == machine
        assert machine_digest(clone) == machine_digest(machine)


@st.composite
def tables(draw):
    usages = draw(st.dictionaries(
        st.sampled_from(("a", "b", "c")),
        st.frozensets(st.integers(0, 9), min_size=1, max_size=5),
        max_size=3,
    ))
    return ReservationTable(usages)


class TestFoldMemo:
    @settings(max_examples=200, deadline=None)
    @given(tables(), st.data())
    def test_fold_equals_per_call_slots_and_seen_scan(self, table, data):
        ii = data.draw(st.integers(1, table.length + 2), label="ii")
        for alignment in range(ii):
            slots, first_repeat = table.folded(ii, alignment)
            expected = [
                (resource, (alignment + cycle) % ii)
                for resource, cycle in table.iter_usages()
            ]
            assert list(slots) == expected
            seen, repeat = set(), len(expected)
            for index, slot in enumerate(expected):
                if slot in seen:
                    repeat = index
                    break
                seen.add(slot)
            assert first_repeat == repeat
            assert table.folded(ii, alignment) is table.folded(ii, alignment)

    def test_fold_of_any_issue_cycle_is_its_slot_fold(self):
        table = ReservationTable({"u": [0, 2], "w": [3]})
        for cycle in range(-5, 6):
            slots, first_repeat = table.folded(2, cycle % 2)
            assert slots == tuple(
                (resource, (cycle + c) % 2)
                for resource, c in table.iter_usages()
            )
            assert first_repeat == 1

    def test_filled_folds_pickle_compare_and_hash_equal(self):
        filled = ReservationTable({"x": [0, 4], "y": [2]})
        for ii in (1, 2, 3, 5):
            for alignment in range(ii):
                filled.folded(ii, alignment)
        hash(filled)
        clone = pickle.loads(pickle.dumps(filled))
        fresh = ReservationTable({"y": [2], "x": [4, 0]})
        for table in (filled, clone):
            assert table == fresh
            assert hash(table) == hash(fresh)
            assert table.folded(3, 1) == fresh.folded(3, 1)


class TestWordMasks:
    @settings(max_examples=200, deadline=None)
    @given(tables(), st.data())
    def test_masks_set_one_bit_per_usage_position(self, table, data):
        rows = ("c", "a", "b")
        word_cycles = data.draw(st.integers(1, 3), label="k")
        ii = data.draw(
            st.one_of(st.none(), st.integers(1, table.length + 2)), label="ii"
        )
        alignment = data.draw(st.integers(0, (ii or word_cycles) - 1))
        masks, self_conflict = table.word_masks(rows, word_cycles, ii, alignment)
        cells = []
        for resource, cycle in table.iter_usages():
            position = alignment + cycle
            if ii is not None:
                position %= ii
            word, packed = divmod(position, word_cycles)
            cells.append((word, packed * len(rows) + rows.index(resource)))
        words = {}
        for word, bit in cells:
            words[word] = words.get(word, 0) | 1 << bit
        assert masks == tuple(sorted(words.items()))
        assert self_conflict == (len(set(cells)) < len(cells))
        assert table.word_masks(rows, word_cycles, ii, alignment)[0] is masks


class TestHashConsing:
    """A table is a value: equal tables are one object, whatever built
    them, and the registry never keeps one alive."""

    def test_every_construction_path_returns_the_live_equal_table(self):
        table = ReservationTable({"a": [0, 2], "b": [1]})
        built = [
            ReservationTable({"b": (1,), "a": {2, 0}}),
            ReservationTable.from_pairs([("a", 2), ("b", 1), ("a", 0)]),
            ReservationTable({"a": [3, 5], "b": [4]}).shifted(-3),
            ReservationTable({"a": [0, 2]}).merged(ReservationTable({"b": [1]})),
            ReservationTable({"a": [0, 2], "b": [1], "c": [7]}).restricted("ab"),
            table.reversed(),
            pickle.loads(pickle.dumps(table)),
            copy.copy(table),
            copy.deepcopy(table),
        ]
        assert all(other is table for other in built)

    def test_unequal_tables_stay_distinct(self):
        tables = [
            ReservationTable({"a": [0, 2], "b": [1]}),
            ReservationTable({"a": [0, 2]}),
            ReservationTable({"a": [0, 2], "b": [2]}),
            ReservationTable({"a": [0, 2], "c": [1]}),
            ReservationTable({}),
        ]
        assert len({id(table) for table in tables}) == len(set(tables)) == 5

    def test_equal_cycle_sets_are_one_frozenset(self):
        table = ReservationTable({"a": [4, 6], "b": [6, 4]})
        other = ReservationTable({"c": range(4, 7, 2)})
        assert table.usage_set("a") is table.usage_set("b")
        assert table.usage_set("a") is other.usage_set("c")

    @pytest.mark.parametrize("usages, message", [
        ({"b": [1001, 1003], "a": [-1]}, "cycle -1 of resource 'a' is negative"),
        ({"b": [1001, 1003], "a": ["x"]}, "cycle 'x' of resource 'a' is not an int"),
        ({"b": [1001, 1003], "a": [True]}, "cycle True of resource 'a' is not an int"),
        ({"b": [1001, 1003], "a": [1.0]}, "cycle 1.0 of resource 'a' is not an int"),
    ])
    def test_rejected_table_raises_and_registers_nothing(self, usages, message):
        live = ReservationTable({"a": [1]})  # an equal int cycle set is live
        tables = dict(reservation._TABLES)
        cycle_sets = dict(reservation._CYCLE_SETS)
        with pytest.raises(MachineDescriptionError) as raised:
            ReservationTable(usages)
        assert str(raised.value) == message
        assert reservation._TABLES == tables
        assert reservation._CYCLE_SETS == cycle_sets
        assert live.usage_set("a") == {1}
