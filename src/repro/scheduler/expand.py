"""Expansion of modulo schedules into flat overlapped code.

A modulo schedule assigns each operation a time ``t``; iteration ``i`` of
the loop issues it at ``t + i * II``.  Expanding a schedule over N
iterations yields the familiar software-pipeline structure:

* a **prologue** that fills the pipeline (stages entering),
* a steady-state **kernel** of II cycles that repeats,
* an **epilogue** that drains it.

:func:`expand` materializes the overlapped schedule, re-validates it
against the machine (every MRT guarantee must also hold in flat time) and
against the dependence graph, and renders the kernel with stage
annotations — useful both as a debugging artifact and as the ground truth
for the tests of the modulo query machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import ScheduleError
from repro.scheduler.modulo import ModuloScheduleResult


@dataclass
class ExpandedSchedule:
    """A modulo schedule unrolled over a fixed number of iterations.

    Attributes
    ----------
    result:
        The kernel (modulo) schedule this was expanded from.
    iterations:
        Number of loop iterations materialized.
    placements:
        ``(operation name, iteration) -> absolute issue cycle``.
    """

    result: ModuloScheduleResult
    iterations: int
    placements: Dict[Tuple[str, int], int]

    @property
    def ii(self) -> int:
        return self.result.ii

    @property
    def num_stages(self) -> int:
        """Pipeline depth in stages: ceil(span / II)."""
        span = max(self.result.times.values()) + 1 if self.result.times else 0
        return max(1, -(-span // self.ii))

    @property
    def length(self) -> int:
        """Total cycles of the expanded schedule."""
        if not self.placements:
            return 0
        last = max(self.placements.values())
        tables = self.result.machine
        longest = max(
            tables.table(opcode).length
            for opcode in self.result.chosen_opcodes.values()
        )
        return last + max(1, longest)

    def stage_of(self, name: str) -> int:
        """Pipeline stage of an operation (0 = first II cycles)."""
        return self.result.times[name] // self.ii

    def issue_cycle(self, name: str, iteration: int) -> int:
        return self.placements[(name, iteration)]

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Re-check resources and dependences in *flat* time.

        The MRT argument says a modulo-legal kernel is conflict-free for
        any number of overlapped iterations; this verifies that claim
        concretely for the materialized window.
        """
        machine = self.result.machine
        reserved: Dict[Tuple[str, int], Tuple[str, int]] = {}
        for (name, iteration), cycle in self.placements.items():
            opcode = self.result.chosen_opcodes[name]
            for resource, use in machine.table(opcode).iter_usages():
                slot = (resource, cycle + use)
                if slot in reserved:
                    raise ScheduleError(
                        "flat conflict at %s between %s and %s"
                        % (slot, reserved[slot], (name, iteration))
                    )
                reserved[slot] = (name, iteration)
        for edge in self.result.graph.edges():
            for iteration in range(self.iterations):
                target = iteration + edge.distance
                if target >= self.iterations:
                    continue
                src_cycle = self.placements[(edge.src, iteration)]
                dst_cycle = self.placements[(edge.dst, target)]
                if dst_cycle - src_cycle < edge.latency:
                    raise ScheduleError(
                        "flat dependence %s[%d] -> %s[%d] violated"
                        % (edge.src, iteration, edge.dst, target)
                    )

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render_kernel(self) -> str:
        """The steady-state kernel: II rows of (operation, stage) slots."""
        by_slot: Dict[int, List[str]] = {s: [] for s in range(self.ii)}
        for name in sorted(self.result.times):
            slot = self.result.times[name] % self.ii
            by_slot[slot].append(
                "%s(s%d)" % (name, self.stage_of(name))
            )
        lines = ["kernel (II=%d, %d stages):" % (self.ii, self.num_stages)]
        for slot in range(self.ii):
            lines.append(
                "  slot %2d: %s" % (slot, "  ".join(by_slot[slot]) or "-")
            )
        return "\n".join(lines)

    def render_timeline(self, limit: int = 64) -> str:
        """Issue timeline of the expanded schedule (first ``limit`` cycles)."""
        by_cycle: Dict[int, List[str]] = {}
        for (name, iteration), cycle in self.placements.items():
            by_cycle.setdefault(cycle, []).append(
                "%s[%d]" % (name, iteration)
            )
        lines = []
        for cycle in sorted(by_cycle):
            if cycle >= limit:
                lines.append("  ... (%d more cycles)" % (self.length - limit))
                break
            lines.append(
                "  t=%3d: %s" % (cycle, "  ".join(sorted(by_cycle[cycle])))
            )
        return "\n".join(lines)


def expand(result: ModuloScheduleResult, iterations: int) -> ExpandedSchedule:
    """Materialize ``iterations`` overlapped copies of a modulo schedule.

    Raises :class:`ScheduleError` if the expansion is not conflict-free —
    which would indicate a bug in the modulo query machinery, so the
    expansion doubles as an end-to-end oracle.
    """
    if iterations < 1:
        raise ScheduleError("need at least one iteration")
    placements = {
        (name, iteration): time + iteration * result.ii
        for name, time in result.times.items()
        for iteration in range(iterations)
    }
    expanded = ExpandedSchedule(
        result=result, iterations=iterations, placements=placements
    )
    expanded.validate()
    return expanded
