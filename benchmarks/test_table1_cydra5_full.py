"""Table 1 — Cydra 5 full description: resources, usages, word usages
for the original description and four reductions (res-uses; 1/2/4-cycle
words, i.e. 32- and 64-bit packed bitvectors over 15-ish resources)."""

from _tables import (
    pin_values,
    reduction_facts,
    reduction_table_data,
    render_reduction_table,
)

from repro.core import matrices_equal, reduce_machine

PAPER = {
    "resources": (56, 15, 15, 15, 15),
    "avg usages/op": (18.2, 8.3, 8.8, 10.1, 11.4),
    "avg word usages/op": (13.2, None, None, 4.7, 3.3),
}


def test_table1(benchmark, machines, cydra5_reductions, record, paper_pins):
    machine = machines["cydra5"]

    # Timing row: one full res-uses reduction of the Cydra 5.
    benchmark.pedantic(
        reduce_machine, args=(machine,), rounds=1, iterations=1
    )

    for reduction in cydra5_reductions.values():
        assert matrices_equal(machine, reduction.reduced)

    table = render_reduction_table(
        "Table 1: Cydra 5 (full) machine descriptions",
        machine,
        cydra5_reductions,
        word_cycles=(1, 2, 4),
        paper=PAPER,
    )
    data = reduction_table_data(machine, cydra5_reductions, (1, 2, 4))
    record(
        "table1_cydra5_full",
        table,
        data=data,
        meta={"machine": machine.name, "word_cycles": [1, 2, 4]},
    )
    facts = reduction_facts(cydra5_reductions["res-uses"])
    paper_pins("table1_cydra5_full", {**pin_values(data), **facts})
