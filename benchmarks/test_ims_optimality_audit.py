"""Optimality audit of the Iterative Modulo Scheduler.

The paper reports 95.6% of loops scheduled at II = MII but cannot say
whether the remaining 4.4% had feasible MII schedules the heuristic
missed or genuinely needed a larger II.  With the exhaustive search we
can answer that for the small loops: for every tiny loop the IMS did
NOT schedule at MII, search exhaustively for a schedule at MII and
report how many were actually feasible.
"""

from conftest import BENCH_LOOPS

from repro.core import ForbiddenLatencyMatrix
from repro.scheduler import (
    IterativeModuloScheduler,
    SearchBudgetExceeded,
    is_ii_feasible,
)
from repro.workloads import loop_suite

MAX_OPS_FOR_AUDIT = 12


def test_ims_optimality_audit(benchmark, machines, record, paper_pins):
    machine = machines["cydra5-subset"]
    matrix = ForbiddenLatencyMatrix.from_machine(machine)
    scheduler = IterativeModuloScheduler(machine, matrix=matrix)
    suite_loops = min(600, BENCH_LOOPS)
    loops = [
        graph
        for graph in loop_suite(suite_loops)
        if graph.num_operations <= MAX_OPS_FOR_AUDIT
    ]

    def run():
        optimal = suboptimal_feasible = suboptimal_proven = unknown = 0
        for graph in loops:
            result = scheduler.schedule(graph)
            if result.optimal:
                optimal += 1
                continue
            try:
                if is_ii_feasible(machine, graph, result.mii):
                    suboptimal_feasible += 1
                else:
                    suboptimal_proven += 1
            except SearchBudgetExceeded:
                unknown += 1
        return optimal, suboptimal_feasible, suboptimal_proven, unknown

    optimal, missed, proven, unknown = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    total = len(loops)
    lines = [
        "IMS optimality audit (%d loops of <= %d ops)"
        % (total, MAX_OPS_FOR_AUDIT),
        "  scheduled at MII:                    %4d (%.1f%%)"
        % (optimal, 100 * optimal / total),
        "  II > MII, but MII was feasible:      %4d (heuristic miss)"
        % missed,
        "  II > MII, MII infeasible in window:  %4d (MII bound loose)"
        % proven,
        "  search budget exceeded:              %4d" % unknown,
    ]
    record("ims_optimality_audit", "\n".join(lines))

    assert optimal / total > 0.9
    # Heuristic misses are rare — the paper's 'fast and effective'.
    assert missed <= max(2, total // 25)

    paper_pins(
        "ims_optimality_audit",
        {
            "audited": total,
            "at_mii": optimal,
            "heuristic_miss": missed,
            "mii_bound_loose": proven,
            "budget_exceeded": unknown,
        },
        suite_loops,
    )
