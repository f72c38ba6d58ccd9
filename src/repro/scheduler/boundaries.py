"""Block-boundary resource bookkeeping (paper Section 1).

"In general, the resource requirements at the beginning of a basic block
consist of the union of all the resource requirements dangling from
predecessor basic blocks."  Given a scheduled block and its length, the
operations whose reservation tables extend past the block's end *dangle*
into every successor; re-expressed relative to the successor's cycle 0
they become the ``boundary=`` argument of
:meth:`~repro.scheduler.OperationDrivenScheduler.schedule`.

:class:`TraceScheduler` chains the operation-driven scheduler along a
trace of blocks, threading dangling requirements from each block into
the next — the latency-hiding setting (Multiflow, IMPACT) the paper's
boundary support exists for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.machine import MachineDescription
from repro.errors import ScheduleError
from repro.query.modulo import DISCRETE
from repro.scheduler.ddg import DependenceGraph
from repro.scheduler.list_scheduler import (
    BlockScheduleResult,
    OperationDrivenScheduler,
)

#: A dangling requirement: an opcode issued ``cycle`` cycles relative to
#: the *successor* block's first cycle (hence normally negative).
Dangling = Tuple[str, int]


def dangling_requirements(
    result: BlockScheduleResult, block_length: Optional[int] = None
) -> List[Dangling]:
    """Operations of a scheduled block that dangle past its end.

    Parameters
    ----------
    result:
        A block schedule.
    block_length:
        Cycle at which the successor block begins (defaults to the
        schedule's natural length, i.e. one past the last issue).

    Returns
    -------
    ``(opcode, cycle)`` pairs with cycles relative to the successor's
    cycle 0 (negative: the op issued before the successor began), ready
    to pass as ``boundary=`` when scheduling the successor.
    """
    if block_length is None:
        block_length = result.length
    dangling: List[Dangling] = []
    for name, time in result.times.items():
        opcode = result.chosen_opcodes[name]
        table = result.machine.table(opcode)
        if time + table.length > block_length:
            dangling.append((opcode, time - block_length))
    dangling.sort(key=lambda item: (item[1], item[0]))
    return dangling


@dataclass
class TraceScheduleResult:
    """Outcome of scheduling a trace of blocks with boundary threading."""

    blocks: List[BlockScheduleResult]
    boundaries: List[List[Dangling]]

    @property
    def total_length(self) -> int:
        return sum(block.length for block in self.blocks)

    def block_start(self, index: int) -> int:
        """Absolute start cycle of block ``index`` within the trace."""
        return sum(block.length for block in self.blocks[:index])

    def flat_placements(self) -> List[Tuple[str, int]]:
        """Every (chosen opcode, absolute cycle) across the whole trace."""
        placements = []
        offset = 0
        for block in self.blocks:
            for name, time in block.times.items():
                placements.append(
                    (block.chosen_opcodes[name], offset + time)
                )
            offset += block.length
        return placements


class TraceScheduler:
    """Schedule a trace of basic blocks, threading dangling requirements.

    Each block is scheduled by an :class:`OperationDrivenScheduler`; the
    dangling reservations of block *i* become boundary constraints of
    block *i+1*, so an operation with a long tail (a divide issued late)
    correctly delays conflicting operations of the next block without
    any global scheduling.
    """

    def __init__(
        self,
        machine: MachineDescription,
        representation: str = DISCRETE,
        word_cycles: int = 1,
    ):
        self.machine = machine
        self._scheduler = OperationDrivenScheduler(
            machine,
            representation=representation,
            word_cycles=word_cycles,
        )

    def schedule(
        self, blocks: Sequence[DependenceGraph]
    ) -> TraceScheduleResult:
        """Schedule the blocks in trace order."""
        if not blocks:
            raise ScheduleError("a trace needs at least one block")
        results: List[BlockScheduleResult] = []
        boundaries: List[List[Dangling]] = [[]]
        carried: List[Dangling] = []
        for graph in blocks:
            result = self._scheduler.schedule(graph, boundary=carried)
            results.append(result)
            carried = dangling_requirements(result)
            # Requirements the *predecessor* passed in may reach through
            # this whole block into the next one as well.
            for opcode, cycle in boundaries[-1]:
                table = self.machine.table(opcode)
                if cycle + table.length > result.length:
                    carried.append((opcode, cycle - result.length))
            carried.sort(key=lambda item: (item[1], item[0]))
            boundaries.append(carried)
        return TraceScheduleResult(
            blocks=results, boundaries=boundaries[1:]
        )
