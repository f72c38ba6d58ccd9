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
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.machine import MachineDescription
from repro.errors import ScheduleError
from repro.obs import ledger as obs_ledger
from repro.obs import trace as obs
from repro.query.alternatives import FIRST_FIT, POLICIES
from repro.query.modulo import DISCRETE, make_query_module
from repro.query.work import WorkCounters
from repro.scheduler.ddg import DependenceGraph


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
    horizon_slack:
        How many cycles past the naive upper bound to search before giving
        up (a safety net; real blocks never get near it).
    """

    def __init__(
        self,
        machine: MachineDescription,
        representation: str = DISCRETE,
        word_cycles: int = 1,
        horizon_slack: int = 256,
        alternative_policy: str = FIRST_FIT,
        budget_ratio: Optional[int] = None,
        query_factory: Optional[Callable[[Optional[int]], object]] = None,
    ):
        if alternative_policy not in POLICIES:
            raise ScheduleError(
                "unknown alternative policy %r" % alternative_policy,
                ledger_tail=obs_ledger.active_tail(),
            )
        self.machine = machine
        self.representation = representation
        self.word_cycles = word_cycles
        self.horizon_slack = horizon_slack
        self.alternative_policy = alternative_policy
        #: When set, schedule with Multiflow-style backtracking: an
        #: operation whose window is infeasible or fully contended is
        #: forced via ``assign&free``, evicting conflictors, within a
        #: budget of ``budget_ratio * N`` placements.
        self.budget_ratio = budget_ratio
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
        if self.budget_ratio is not None:
            return self._schedule_backtracking(graph, boundary)
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
        horizon += self.horizon_slack

        tracer = obs.current()
        ledger = obs_ledger.current()
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
                    if ledger is not None:
                        # Provenance: name what saturates the window
                        # before failing (read-only attributed scan).
                        scan: List[tuple] = []
                        qm.check_range(
                            opcode, estart, upper + 1, attribute=scan
                        )
                        ledger.record(obs_ledger.GIVE_UP, {
                            "op": name, "opcode": opcode,
                            "window": [estart, upper + 1],
                            "window_blame": [
                                cell.to_dict() for _cycle, cell in scan[:8]
                            ],
                        })
                    raise ScheduleError(
                        "no contention-free slot for %s in [%d, %d]"
                        % (name, estart, upper),
                        ledger_tail=obs_ledger.active_tail(),
                    )
                qm.assign(alternative, slot)
                times[name] = slot
                chosen[name] = alternative
                if tracer is not None:
                    tracer.event(
                        "list.place", obs.CAT_SCHED,
                        op=name, opcode=alternative, cycle=slot,
                    )
                if ledger is not None:
                    ledger.record(obs_ledger.PLACE, {
                        "op": name, "opcode": opcode,
                        "alternative": alternative, "cycle": slot,
                        "window": [estart, upper + 1],
                    })
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

    # ------------------------------------------------------------------
    def _schedule_backtracking(
        self,
        graph: DependenceGraph,
        boundary: Optional[Iterable[Tuple[str, int]]] = None,
    ) -> BlockScheduleResult:
        """Multiflow-style scalar scheduling with bounded backtracking.

        Like the plain path, but an operation whose dependence window is
        infeasible — or contains no contention-free slot — is *forced*
        into its earliest legal cycle with ``assign&free``: resource
        conflictors are evicted and deadline-violated neighbours are
        unscheduled, all within ``budget_ratio * N`` placements.
        Boundary operations are pinned and never evicted (their
        reservations belong to an already-emitted block), which is why
        they are re-asserted after any eviction touching them.
        """
        qm = self._make_query_module()
        qm.alternative_policy = self.alternative_policy
        boundary = list(boundary or ())
        pinned = {}
        for opcode, cycle in boundary:
            token, _ = qm.assign_free(opcode, cycle)
            pinned[token.ident] = (opcode, cycle)

        heights = self._heights(graph)
        names = [op.name for op in graph.operations()]
        max_decisions = max(1, self.budget_ratio) * len(names)
        unscheduled = set(names)
        times: Dict[str, int] = {}
        tokens: Dict[str, object] = {}
        owner_of = {}
        chosen: Dict[str, str] = {}
        prev_time: Dict[str, int] = {}
        horizon = (
            graph.critical_path_length()
            + graph.num_operations
            + self.horizon_slack
        )

        tracer = obs.current()
        ledger = obs_ledger.current()

        def unschedule(name: str) -> None:
            token = tokens.pop(name)
            owner_of.pop(token.ident, None)
            qm.free(token)
            if ledger is not None:
                ledger.record(obs_ledger.UNSCHEDULE, {
                    "op": name, "cycle": times[name],
                })
            del times[name]
            unscheduled.add(name)
            if tracer is not None:
                tracer.event(
                    "list.unschedule", obs.CAT_SCHED, op=name
                )

        block_span = obs.span(
            "list.schedule_backtracking", obs.CAT_SCHED,
            block=graph.name, machine=self.machine.name,
            budget=max_decisions,
        )
        with block_span:
            self._backtracking_loop(
                qm, graph, heights, pinned, unscheduled, times, tokens,
                owner_of, chosen, prev_time, max_decisions, horizon,
                unschedule,
                tracer,
            )
            block_span.set(placements=len(times))

        graph.verify_schedule(times)
        return BlockScheduleResult(
            graph=graph,
            machine=self.machine,
            times=times,
            chosen_opcodes=chosen,
            work=qm.work,
        )

    def _backtracking_loop(
        self, qm, graph, heights, pinned, unscheduled, times, tokens,
        owner_of, chosen, prev_time, max_decisions, horizon, unschedule,
        tracer,
    ) -> None:
        decisions = 0
        ledger = obs_ledger.current()
        while unscheduled:
            if decisions >= max_decisions:
                if ledger is not None:
                    ledger.record(obs_ledger.BUDGET, {
                        "block": graph.name,
                        "decisions": decisions,
                        "budget": max_decisions,
                    })
                raise ScheduleError(
                    "backtracking budget (%d) exhausted for %r"
                    % (max_decisions, graph.name),
                    ledger_tail=obs_ledger.active_tail(),
                )
            name = min(
                unscheduled, key=lambda n: (-heights[n], n)
            )
            unscheduled.discard(name)
            opcode = graph.operation(name).opcode
            estart = 0
            lstart: Optional[int] = None
            for edge in graph.predecessors(name):
                if edge.distance == 0 and edge.src in times:
                    estart = max(estart, times[edge.src] + edge.latency)
            for edge in graph.successors(name):
                if edge.distance == 0 and edge.dst in times:
                    deadline = times[edge.dst] - edge.latency
                    lstart = (
                        deadline if lstart is None else min(lstart, deadline)
                    )
            slot = None
            alternative = None
            if lstart is None or lstart >= estart:
                upper = lstart if lstart is not None else horizon
                slot, alternative = qm.first_free_with_alternatives(
                    opcode, estart, upper + 1
                )
            forced = slot is None
            blame = None
            if forced:
                previous = prev_time.get(name)
                slot = (
                    estart
                    if previous is None or estart > previous
                    else previous + 1
                )
                alternative = self.machine.alternatives_of(opcode)[0]
                if ledger is not None:
                    # Read-only attributed probe of the forced slot.
                    _free, slot_blame = qm.check_attributed(
                        alternative, slot
                    )
                    blame = (
                        slot_blame.to_dict()
                        if slot_blame is not None else None
                    )

            token, evicted = qm.assign_free(alternative, slot)
            decisions += 1
            times[name] = slot
            prev_time[name] = slot
            tokens[name] = token
            owner_of[token.ident] = name
            chosen[name] = alternative
            if tracer is not None:
                tracer.event(
                    "list.place", obs.CAT_SCHED,
                    op=name, opcode=alternative, cycle=slot,
                )
            if ledger is not None:
                record = {
                    "op": name, "opcode": opcode,
                    "alternative": alternative, "cycle": slot,
                    "window": [estart, lstart],
                    "decisions": decisions, "budget": max_decisions,
                }
                if forced:
                    record["blame"] = blame
                ledger.record(
                    obs_ledger.FORCE if forced else obs_ledger.PLACE,
                    record,
                )

            for victim_token in evicted:
                if victim_token.ident in pinned:
                    # Never give up a predecessor block's reservation:
                    # undo by unscheduling *this* op and re-pinning.
                    opcode_pinned, cycle_pinned = pinned.pop(
                        victim_token.ident
                    )
                    unschedule(name)
                    new_token, re_evicted = qm.assign_free(
                        opcode_pinned, cycle_pinned
                    )
                    assert not re_evicted
                    pinned[new_token.ident] = (opcode_pinned, cycle_pinned)
                    prev_time[name] = slot  # forces a later retry slot
                    break
                victim = owner_of.pop(victim_token.ident)
                if ledger is not None:
                    ledger.record(obs_ledger.EVICT, {
                        "op": victim, "by": name,
                        "reason": "resource",
                        "cycle": times[victim],
                    })
                del times[victim]
                del tokens[victim]
                unscheduled.add(victim)
                if tracer is not None:
                    tracer.event(
                        "list.evict_resource", obs.CAT_SCHED,
                        op=victim, by=name,
                    )
            else:
                # Placement stands: evict neighbours whose dependences
                # the new time violates.
                for edge in graph.successors(name):
                    if edge.distance == 0 and edge.dst in times:
                        if times[name] + edge.latency > times[edge.dst]:
                            unschedule(edge.dst)
                for edge in graph.predecessors(name):
                    if edge.distance == 0 and edge.src in times:
                        if times[edge.src] + edge.latency > times[name]:
                            unschedule(edge.src)

    @staticmethod
    def _heights(graph: DependenceGraph) -> Dict[str, int]:
        """Longest latency path to any sink over distance-0 edges."""
        order = graph.topological_order()
        if order is None:
            raise ScheduleError(
                "block graph %r is cyclic" % graph.name,
                ledger_tail=obs_ledger.active_tail(),
            )
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
                "infeasible window for %s: [%d, %d]" % (name, estart, lstart),
                ledger_tail=obs_ledger.active_tail(),
            )
        return estart, lstart
