"""Tests for occupancy charts and the collision check."""

from repro.analysis import has_collision, occupancy_chart
from repro.machines import example_machine


class TestOccupancyChart:
    def test_basic_grid(self):
        machine = example_machine()
        art = occupancy_chart(machine, [("B", 0)])
        assert "r3 |" in art
        assert "legend: A=B@0" in art

    def test_collision_marked(self):
        machine = example_machine()
        art = occupancy_chart(machine, [("B", 0), ("B", 1)])
        assert "*" in art

    def test_modulo_folding(self):
        machine = example_machine()
        art = occupancy_chart(machine, [("B", 0)], modulo=4)
        header = art.splitlines()[0]
        assert header.strip().endswith("0123")

    def test_row_order_respected(self):
        machine = example_machine()
        art = occupancy_chart(
            machine, [("B", 0)], resources=["r4", "r3"]
        )
        lines = art.splitlines()
        assert lines[1].startswith("r4")

    def test_has_collision(self):
        machine = example_machine()
        assert not has_collision(machine, [("B", 0), ("B", 4)])
        assert has_collision(machine, [("B", 0), ("B", 1)])
        assert has_collision(machine, [("B", 0), ("B", 4)], modulo=4)
