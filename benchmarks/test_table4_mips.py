"""Table 4 — MIPS R3000/R3010: original vs res-uses vs 1/4/9-cycle-word
reductions."""

from _tables import (
    pin_values,
    reduction_facts,
    reduction_table_data,
    render_reduction_table,
)

from repro.core import matrices_equal, reduce_machine

PAPER = {
    "resources": (22, 7, 7, 7, 7),
    "avg usages/op": (17.3, None, 8.1, 8.3, 8.5),
    "avg word usages/op": (11.0, 5.6, None, None, 1.6),
}


def test_table4(benchmark, machines, mips_reductions, record, paper_pins):
    machine = machines["mips-r3000"]
    benchmark.pedantic(
        reduce_machine, args=(machine,), rounds=1, iterations=1
    )
    for reduction in mips_reductions.values():
        assert matrices_equal(machine, reduction.reduced)
    table = render_reduction_table(
        "Table 4: MIPS R3000/R3010 machine descriptions",
        machine,
        mips_reductions,
        word_cycles=(1, 4, 9),
        paper=PAPER,
    )
    data = reduction_table_data(machine, mips_reductions, (1, 4, 9))
    record(
        "table4_mips",
        table,
        data=data,
        meta={"machine": machine.name, "word_cycles": [1, 4, 9]},
    )
    facts = reduction_facts(mips_reductions["res-uses"])
    paper_pins("table4_mips", {**pin_values(data), **facts})
