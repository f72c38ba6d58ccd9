"""Table 3 — DEC Alpha 21064: original vs res-uses vs 1/4/9-cycle-word
reductions (9 cycles of 7 bits fit a 64-bit word)."""

from _tables import (
    pin_values,
    reduction_facts,
    reduction_table_data,
    render_reduction_table,
)

from repro.core import matrices_equal, reduce_machine

PAPER = {
    # The scanned paper garbles some Table 3 cells; the legible ones:
    "avg usages/op": (12.8, None, 8.1, 10.9, 11.6),
    "avg word usages/op": (11.6, None, None, None, 2.0),
}


def test_table3(benchmark, machines, alpha_reductions, record, paper_pins):
    machine = machines["alpha21064"]
    benchmark.pedantic(
        reduce_machine, args=(machine,), rounds=1, iterations=1
    )
    for reduction in alpha_reductions.values():
        assert matrices_equal(machine, reduction.reduced)
    table = render_reduction_table(
        "Table 3: DEC Alpha 21064 machine descriptions",
        machine,
        alpha_reductions,
        word_cycles=(1, 4, 9),
        paper=PAPER,
    )
    data = reduction_table_data(machine, alpha_reductions, (1, 4, 9))
    record(
        "table3_alpha21064",
        table,
        data=data,
        meta={"machine": machine.name, "word_cycles": [1, 4, 9]},
    )
    facts = reduction_facts(alpha_reductions["res-uses"])
    paper_pins("table3_alpha21064", {**pin_values(data), **facts})
