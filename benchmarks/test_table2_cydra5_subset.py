"""Table 2 — Cydra 5 benchmark subset (the 12 operation classes the 1327
loops use): original vs res-uses vs 1/3/7-cycle-word reductions."""

from _tables import (
    pin_values,
    reduction_facts,
    reduction_table_data,
    render_reduction_table,
)

from repro.core import matrices_equal, reduce_machine

PAPER = {
    "resources": (39, 9, 9, 9, 9),
    "avg usages/op": (9.4, 2.9, 2.9, 3.6, 4.2),
    "avg word usages/op": (7.5, None, 2.6, 2.0, 1.5),
}


def test_table2(benchmark, machines, subset_reductions, record, paper_pins):
    machine = machines["cydra5-subset"]
    benchmark.pedantic(
        reduce_machine, args=(machine,), rounds=1, iterations=1
    )
    for reduction in subset_reductions.values():
        assert matrices_equal(machine, reduction.reduced)
    table = render_reduction_table(
        "Table 2: Cydra 5 (benchmark subset) machine descriptions",
        machine,
        subset_reductions,
        word_cycles=(1, 3, 7),
        paper=PAPER,
    )
    data = reduction_table_data(machine, subset_reductions, (1, 3, 7))
    record(
        "table2_cydra5_subset",
        table,
        data=data,
        meta={"machine": machine.name, "word_cycles": [1, 3, 7]},
    )
    facts = reduction_facts(subset_reductions["res-uses"])
    paper_pins("table2_cydra5_subset", {**pin_values(data), **facts})
