"""Table 5 — characteristics of the (synthetic) 1327-loop benchmark when
modulo-scheduled for the Cydra 5: operations per loop, achieved II,
II/MII, and scheduling decisions per operation."""

from _tables import pin_values
from conftest import BENCH_LOOPS

from repro.core import ForbiddenLatencyMatrix
from repro.scheduler import IterativeModuloScheduler
from repro.workloads import loop_suite

PAPER_ROWS = """\
paper (1327 Fortran loops):    min   %at-min      avg      max
  number of operations        2.00      0.4%    17.54   161.00
  initiation interval (II)    1.00     28.7%    11.52   165.00
  II/MII                      1.00     95.6%     1.01     1.50
  sched. decisions/operation  1.00     78.7%     1.52     6.00"""


def _summary(values, at_min_value):
    return {
        "min": min(values),
        "at_min": sum(1 for v in values if v <= at_min_value) / len(values),
        "avg": sum(values) / len(values),
        "max": max(values),
    }


def _row(label, values, at_min_value):
    summary = _summary(values, at_min_value)
    return "  %-26s %6.2f    %5.1f%%  %7.2f  %7.2f" % (
        label,
        summary["min"],
        100.0 * summary["at_min"],
        summary["avg"],
        summary["max"],
    )


def test_table5(benchmark, machines, record, paper_pins):
    machine = machines["cydra5-subset"]
    matrix = ForbiddenLatencyMatrix.from_machine(machine)
    scheduler = IterativeModuloScheduler(machine, matrix=matrix)
    loops = loop_suite(BENCH_LOOPS)

    def run():
        return [scheduler.schedule(graph) for graph in loops]

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    sizes = [float(r.num_operations) for r in results]
    iis = [float(r.ii) for r in results]
    ratios = [r.ii_over_mii for r in results]
    decisions = [r.decisions_per_op for r in results]

    lines = [
        "Table 5: %d-loop benchmark characteristics (ours)" % len(loops),
        "  %-26s %6s  %8s %8s %8s" % ("measurement", "min", "%at-min", "avg", "max"),
        _row("number of operations", sizes, min(sizes)),
        _row("initiation interval (II)", iis, min(iis)),
        _row("II/MII", ratios, 1.0),
        _row("sched. decisions/operation", decisions, 1.0),
        "",
        PAPER_ROWS,
    ]
    optimal = sum(1 for r in results if r.optimal) / len(results)
    data = {
        "num_operations": _summary(sizes, min(sizes)),
        "initiation_interval": _summary(iis, min(iis)),
        "ii_over_mii": _summary(ratios, 1.0),
        "decisions_per_operation": _summary(decisions, 1.0),
    }
    record(
        "table5_loop_suite",
        "\n".join(lines),
        data=dict(data, fraction_at_mii=optimal),
        meta={"machine": "cydra5-subset", "loops": len(loops)},
    )

    # Shape assertions against the paper's bands.
    assert optimal > 0.9  # paper: 95.6%
    assert sum(ratios) / len(ratios) < 1.05  # paper: 1.01
    assert 1.0 <= sum(decisions) / len(decisions) < 2.5  # paper: 1.52

    values = dict(pin_values(data), fraction_at_mii=optimal)
    paper_pins("table5_loop_suite", values, len(loops))
