"""Operation-driven acyclic scheduler (Cydra 5 compiler style).

Schedules a basic block by considering operations along the critical path
first — *not* in cycle order and not necessarily in topological order, so a
predecessor may be placed after its successors.  This is precisely the
unrestricted scheduling model the paper's query modules must support: the
module is queried at arbitrary cycles, both below and above already
scheduled operations.

The scheduler also honours *dangling resource requirements* from
predecessor basic blocks (paper Section 1): boundary operations may be
pre-assigned at negative issue cycles, and the block's own operations are
then scheduled around them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.core.machine import MachineDescription
from repro.errors import ScheduleError
from repro.obs import trace as obs
from repro.query.alternatives import FIRST_FIT, POLICIES
from repro.query.modulo import DISCRETE, make_query_module
from repro.query.work import WorkCounters
from repro.scheduler.ddg import DependenceGraph

#: How many cycles past the naive upper bound (critical path plus one
#: cycle per operation) to search before giving up: a safety net that
#: real blocks never get near.
HORIZON_SLACK = 256


@dataclass
class BlockScheduleResult:
    """Outcome of scheduling one basic block."""

    graph: DependenceGraph
    machine: MachineDescription
    times: Dict[str, int]
    chosen_opcodes: Dict[str, str]
    work: WorkCounters

    @property
    def length(self) -> int:
        """Schedule length in cycles (last issue + 1; 0 for empty)."""
        if not self.times:
            return 0
        return max(self.times.values()) + 1


class OperationDrivenScheduler:
    """Critical-path-first scheduler over a contention query module.

    Parameters
    ----------
    machine:
        Machine description (original or reduced).
    representation / word_cycles:
        Query-module representation.
    """

    def __init__(
        self,
        machine: MachineDescription,
        representation: str = DISCRETE,
        word_cycles: int = 1,
        alternative_policy: str = FIRST_FIT,
        query_factory: Optional[Callable[[Optional[int]], object]] = None,
    ):
        if alternative_policy not in POLICIES:
            raise ScheduleError(
                "unknown alternative policy %r" % alternative_policy
            )
        self.machine = machine
        self.representation = representation
        self.word_cycles = word_cycles
        self.alternative_policy = alternative_policy
        #: Optional ``modulo -> ContentionQueryModule`` callable (block
        #: scheduling always passes ``None``) replacing the default
        #: construction.
        self.query_factory = query_factory

    def _make_query_module(self):
        if self.query_factory is not None:
            return self.query_factory(None)
        return make_query_module(
            self.machine,
            representation=self.representation,
            word_cycles=self.word_cycles,
        )

    def schedule(
        self,
        graph: DependenceGraph,
        boundary: Optional[Iterable[Tuple[str, int]]] = None,
    ) -> BlockScheduleResult:
        """Schedule an acyclic block.

        Parameters
        ----------
        graph:
            Dependence graph; distance-0 edges only are honoured (loop
            carried edges are ignored in block scheduling).
        boundary:
            Optional ``(opcode, issue_cycle)`` pairs pre-reserved before
            scheduling — the dangling requirements of predecessor blocks.
            Cycles are typically negative (the op issued before this block
            began) but any cycle is accepted.
        """
        graph.validate()
        qm = self._make_query_module()
        qm.alternative_policy = self.alternative_policy
        for opcode, cycle in boundary or ():
            qm.assign(opcode, cycle)

        heights = self._heights(graph)
        order = sorted(
            (op.name for op in graph.operations()),
            key=lambda n: (-heights[n], n),
        )
        times: Dict[str, int] = {}
        chosen: Dict[str, str] = {}
        horizon = graph.critical_path_length() + graph.num_operations
        horizon += HORIZON_SLACK

        tracer = obs.current()
        with obs.span(
            "list.schedule", obs.CAT_SCHED,
            block=graph.name, machine=self.machine.name,
        ) as block_span:
            for name in order:
                opcode = graph.operation(name).opcode
                estart, lstart = self._window(graph, name, times)
                upper = lstart if lstart is not None else horizon
                slot, alternative = qm.first_free_with_alternatives(
                    opcode, estart, upper + 1
                )
                if slot is None:
                    if tracer is not None:
                        tracer.event(
                            "list.give_up", obs.CAT_SCHED,
                            op=name, opcode=opcode,
                            window=[estart, upper + 1],
                        )
                    raise ScheduleError(
                        "no contention-free slot for %s in [%d, %d]"
                        % (name, estart, upper)
                    )
                qm.assign(alternative, slot)
                times[name] = slot
                chosen[name] = alternative
                if tracer is not None:
                    tracer.event(
                        "list.place", obs.CAT_SCHED,
                        op=name, opcode=opcode, alternative=alternative,
                        cycle=slot, window=[estart, upper + 1],
                    )
            block_span.set(
                placements=len(times),
                length=(max(times.values()) + 1) if times else 0,
            )

        graph.verify_schedule(times)
        return BlockScheduleResult(
            graph=graph,
            machine=self.machine,
            times=times,
            chosen_opcodes=chosen,
            work=qm.work,
        )

    @staticmethod
    def _heights(graph: DependenceGraph) -> Dict[str, int]:
        """Longest latency path to any sink over distance-0 edges."""
        order = graph.topological_order()
        if order is None:
            raise ScheduleError("block graph %r is cyclic" % graph.name)
        heights = {name: 0 for name in order}
        for name in reversed(order):
            for edge in graph.successors(name):
                if edge.distance == 0:
                    candidate = heights[edge.dst] + edge.latency
                    if candidate > heights[name]:
                        heights[name] = candidate
        return heights

    @staticmethod
    def _window(
        graph: DependenceGraph, name: str, times: Dict[str, int]
    ) -> Tuple[int, Optional[int]]:
        """Feasible issue window given already-scheduled neighbours.

        Because operations are placed in priority order, successors may be
        scheduled before this operation; they impose a *deadline* just as
        scheduled predecessors impose a release time.
        """
        estart = 0
        lstart: Optional[int] = None
        for edge in graph.predecessors(name):
            if edge.distance == 0 and edge.src in times:
                estart = max(estart, times[edge.src] + edge.latency)
        for edge in graph.successors(name):
            if edge.distance == 0 and edge.dst in times:
                deadline = times[edge.dst] - edge.latency
                lstart = deadline if lstart is None else min(lstart, deadline)
        if lstart is not None and lstart < estart:
            raise ScheduleError(
                "infeasible window for %s: [%d, %d]" % (name, estart, lstart)
            )
        return estart, lstart
