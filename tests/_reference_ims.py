"""Frozen copy of the iterative modulo scheduler's main loop (test-only).

The scheduling loop, height priority and MII bound exactly as they were
before the scheduler stopped repeating fixed work per loop, attempt and
decision: ``min`` over an unscheduled set, edge-list copies per
decision, a full RecMII binary search from II = 1 and a second
acyclicity check.  ResMII and the discrete query module come from the
frozen copies in ``tests/_reference_query.py``.
``tests/test_ims_reference.py`` requires the production scheduler to
produce the same schedules, attempt records, check distributions, work
counters, decision events and budget stops as :class:`ReferenceIMS`.
A forced placement's blame comes from the frozen discrete blame scan
(:func:`tests._reference_query.reference_blame`) over the attempt's
live placements.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro.core.forbidden import ForbiddenLatencyMatrix
from repro.core.machine import MachineDescription
from repro.errors import ScheduleError
from repro.obs import trace as obs
from repro.query.work import CHECK, CHECK_RANGE, WorkCounters
from repro.scheduler.ddg import DependenceGraph
from repro.scheduler.modulo import (
    AttemptStats,
    IterativeModuloScheduler,
    ModuloScheduleResult,
)

from tests._reference_query import (
    make_reference_module,
    reference_blame,
    res_mii,
)


def compute_heights(graph: DependenceGraph, ii: int) -> Dict[str, int]:
    """Height-based priority: longest path to any sink with edge weights
    ``latency - II * distance``.

    Well-defined whenever II >= RecMII (no positive cycles); computed by
    relaxation to a fixed point.
    """
    heights = {op.name: 0 for op in graph.operations()}
    edges = list(graph.edges())
    for _ in range(graph.num_operations + 1):
        changed = False
        for edge in edges:
            candidate = heights[edge.dst] + edge.latency - ii * edge.distance
            if candidate > heights[edge.src]:
                heights[edge.src] = candidate
                changed = True
        if not changed:
            break
    else:
        raise ScheduleError(
            "positive cycle at II=%d while computing heights" % ii
        )
    return heights


def _has_positive_cycle(graph: DependenceGraph, ii: int) -> bool:
    """Bellman-Ford longest-path relaxation detecting a positive cycle of
    ``latency - ii * distance`` edge weights."""
    names = [op.name for op in graph.operations()]
    dist = {name: 0 for name in names}
    edges = list(graph.edges())
    for _ in range(len(names)):
        changed = False
        for edge in edges:
            weight = edge.latency - ii * edge.distance
            candidate = dist[edge.src] + weight
            if candidate > dist[edge.dst]:
                dist[edge.dst] = candidate
                changed = True
        if not changed:
            return False
    return True


def rec_mii(graph: DependenceGraph, upper_bound: Optional[int] = None) -> int:
    """Recurrence-constrained minimum II (exact).

    Raises :class:`ScheduleError` when the graph has a dependence cycle of
    zero total distance (which no II can satisfy if its latency sum is
    positive) — :meth:`DependenceGraph.validate` catches these earlier.
    """
    if graph.num_operations == 0:
        return 1
    if not graph.is_acyclic():
        raise ScheduleError(
            "graph %r has a zero-distance dependence cycle" % graph.name
        )
    if upper_bound is None:
        upper_bound = max(
            1, sum(max(0, e.latency) for e in graph.edges())
        )
    low, high = 1, upper_bound
    if _has_positive_cycle(graph, high):
        raise ScheduleError(
            "no feasible II up to %d for graph %r" % (high, graph.name)
        )
    while low < high:
        mid = (low + high) // 2
        if _has_positive_cycle(graph, mid):
            low = mid + 1
        else:
            high = mid
    return low


def min_ii(
    machine: MachineDescription,
    graph: DependenceGraph,
    matrix: Optional[ForbiddenLatencyMatrix] = None,
) -> int:
    """``MII = max(ResMII, RecMII)`` — the scheduler's starting II."""
    return max(
        res_mii(machine, graph.opcodes(), matrix=matrix),
        rec_mii(graph),
    )


class ReferenceIMS(IterativeModuloScheduler):
    """The production scheduler's configuration with the frozen loop."""

    # ------------------------------------------------------------------
    def schedule(
        self, graph: DependenceGraph, budget=None
    ) -> ModuloScheduleResult:
        """Modulo-schedule a loop; raises :class:`ScheduleError` on failure.

        ``budget`` is an optional :class:`repro.resilience.Budget` checked
        at every attempt boundary and once per scheduling decision (charged
        the query module's work-unit delta, so the currency matches
        :class:`~repro.query.work.WorkCounters`).  Exceeding it raises
        :class:`~repro.errors.BudgetExceeded` with phase ``"ims"`` and the
        partial schedule of the in-flight attempt.
        """
        graph.validate()
        with obs.span(
            "ims.schedule", obs.CAT_SCHED,
            loop=graph.name, machine=self.machine.name,
        ) as schedule_span:
            mii = min_ii(self.machine, graph, matrix=self.matrix)
            work = WorkCounters()
            attempts: List[AttemptStats] = []
            check_distribution = Counter()
            for ii in range(mii, mii + self.max_ii_slack + 1):
                if budget is not None:
                    budget.checkpoint(
                        "ims", progress="attempt II=%d" % ii,
                        partial={"ii": ii, "attempts": list(attempts)},
                    )
                outcome = self._attempt(graph, ii, work, budget_obj=budget)
                attempts.append(outcome.stats)
                check_distribution.update(outcome.check_counts)
                if outcome.stats.succeeded:
                    schedule_span.set(ii=ii, mii=mii, attempts=len(attempts))
                    break
            else:
                obs.event(
                    "ims.give_up", obs.CAT_SCHED,
                    loop=graph.name,
                    ii_range=[mii, mii + self.max_ii_slack],
                )
                raise ScheduleError(
                    "failed to schedule %r up to II=%d"
                    % (graph.name, mii + self.max_ii_slack),
                    ii_range=(mii, mii + self.max_ii_slack),
                    attempts=attempts,
                    budget_exceeded=any(
                        a.budget_exceeded for a in attempts
                    )
                )
        result = ModuloScheduleResult(
            graph=graph,
            machine=self.machine,
            ii=ii,
            mii=mii,
            times=outcome.times,
            chosen_opcodes=outcome.chosen,
            attempts=attempts,
            work=work,
            check_distribution=check_distribution,
        )
        self._verify(result)
        return result

    # ------------------------------------------------------------------
    def _attempt(
        self, graph: DependenceGraph, ii: int, work: WorkCounters,
        budget_obj=None,
    ) -> "IterativeModuloScheduler._Attempt":
        if self.query_factory is not None:
            qm = self.query_factory(ii)
        else:
            qm = make_reference_module(
                self.machine,
                representation=self.representation,
                word_cycles=self.word_cycles,
                modulo=ii,
            )
        qm.alternative_policy = self.alternative_policy
        heights = compute_heights(graph, ii)
        names = [op.name for op in graph.operations()]
        opcode_of = {op.name: op.opcode for op in graph.operations()}
        budget = self.budget_ratio * len(names)
        decisions = 0
        evict_resource = 0
        evict_dependence = 0

        unscheduled = set(names)
        times: Dict[str, int] = {}
        tokens: Dict[str, object] = {}
        token_owner = {}
        chosen: Dict[str, str] = {}
        prev_time: Dict[str, int] = {}

        def priority(name: str) -> Tuple[int, str]:
            return (-heights[name], name)

        tracer = obs.current()
        if tracer is not None:
            tracer.event(
                "ims.attempt", obs.CAT_SCHED,
                ii=ii, phase="start", loop=graph.name, budget=budget,
            )
        check_counts = Counter()
        attempt_span = obs.span(
            "ims.attempt", obs.CAT_SCHED,
            loop=graph.name, ii=ii, budget=budget,
        )
        last_units = 0
        with attempt_span:
            while unscheduled and decisions < budget:
                if budget_obj is not None:
                    total_units = qm.work.total_units
                    budget_obj.checkpoint(
                        "ims.attempt",
                        units=total_units - last_units,
                        progress="II=%d, %d placed" % (ii, len(times)),
                        partial={"ii": ii, "times": dict(times)},
                    )
                    last_units = total_units
                name = min(unscheduled, key=priority)
                unscheduled.discard(name)
                checks_before = (
                    qm.work.calls[CHECK] + qm.work.calls[CHECK_RANGE]
                )
                estart = 0
                for edge in graph.predecessors(name):
                    if edge.src in times:
                        bound = (
                            times[edge.src]
                            + edge.latency
                            - ii * edge.distance
                        )
                        if bound > estart:
                            estart = bound

                # Search an II-wide window for a contention-free slot
                # with one batched scan per alternative.  The lifetime
                # policy scans downward from the latest slot permitted
                # by already-scheduled consumers (when any exist),
                # shortening the lifetimes of this op's produced value.
                window = (estart, estart + ii, 1)
                if self.placement_policy == "lifetime":
                    deadline = None
                    for edge in graph.successors(name):
                        if edge.dst in times and edge.dst != name:
                            bound = (
                                times[edge.dst]
                                - edge.latency
                                + ii * edge.distance
                            )
                            deadline = (
                                bound
                                if deadline is None
                                else min(deadline, bound)
                            )
                    if deadline is not None and deadline >= estart:
                        upper = min(deadline, estart + ii - 1)
                        window = (estart, upper + 1, -1)
                slot, alternative = qm.first_free_with_alternatives(
                    opcode_of[name], *window
                )
                forced = slot is None
                blame = None
                window_blame: List[dict] = []
                if forced:
                    # Forced placement (Rau): earliest legal slot, but
                    # strictly after the previous placement when
                    # re-scheduling at the same spot, to guarantee
                    # forward progress.
                    previous = prev_time.get(name)
                    if previous is None or estart > previous:
                        slot = estart
                    else:
                        slot = previous + 1
                    alternative = self.machine.alternatives_of(
                        opcode_of[name]
                    )[0]
                    if tracer is not None:
                        # Provenance: name what blocks the forced slot
                        # and the exhausted window, from the frozen
                        # blame scan over the live placements.
                        placements = [
                            (token.op, token.cycle)
                            for token in qm.scheduled()
                        ]
                        blamed = reference_blame(
                            self.machine, alternative, (slot,),
                            placements, ii,
                        )
                        blame = blamed[0][1].to_dict() if blamed else None
                        window_blame = [
                            cell.to_dict()
                            for _cycle, cell in reference_blame(
                                self.machine, alternative,
                                range(window[0], window[1]),
                                placements, ii,
                            )[:8]
                        ]

                checks_after = (
                    qm.work.calls[CHECK] + qm.work.calls[CHECK_RANGE]
                )
                check_counts[checks_after - checks_before] += 1
                token, evicted = qm.assign_free(alternative, slot)
                decisions += 1
                times[name] = slot
                prev_time[name] = slot
                tokens[name] = token
                token_owner[token.ident] = name
                chosen[name] = alternative
                if tracer is not None:
                    record = {
                        "ii": ii, "op": name, "opcode": opcode_of[name],
                        "alternative": alternative, "cycle": slot,
                        "window": [window[0], window[1]],
                        "direction": window[2],
                        "decisions": decisions, "budget": budget,
                    }
                    if forced:
                        record["blame"] = blame
                        record["window_blame"] = window_blame
                    tracer.event(
                        "ims.force" if forced else "ims.place",
                        obs.CAT_SCHED, **record,
                    )

                for victim_token in evicted:
                    victim = token_owner.pop(victim_token.ident)
                    evict_resource += 1
                    if tracer is not None:
                        tracer.event(
                            "ims.evict_resource", obs.CAT_SCHED,
                            ii=ii, op=victim, by=name, reason="resource",
                            cycle=times[victim],
                        )
                    del times[victim]
                    del tokens[victim]
                    unscheduled.add(victim)

                # Unschedule successors whose dependences the placement
                # breaks.
                for edge in graph.successors(name):
                    succ = edge.dst
                    if succ == name or succ not in times:
                        continue
                    if (
                        times[name] + edge.latency - ii * edge.distance
                        > times[succ]
                    ):
                        victim_token = tokens.pop(succ)
                        token_owner.pop(victim_token.ident, None)
                        qm.free(victim_token)
                        evict_dependence += 1
                        if tracer is not None:
                            tracer.event(
                                "ims.evict_dependence", obs.CAT_SCHED,
                                ii=ii, op=succ, by=name,
                                reason="dependence", cycle=times[succ],
                            )
                        del times[succ]
                        unscheduled.add(succ)

            succeeded = not unscheduled
            attempt_span.set(
                decisions=decisions,
                evictions=evict_resource + evict_dependence,
                succeeded=succeeded,
            )
            if tracer is not None:
                tracer.count("sched.ims.decisions", decisions)
                if not succeeded:
                    tracer.count("sched.ims.budget_exceeded")
                tracer.event(
                    "ims.attempt", obs.CAT_SCHED,
                    ii=ii, phase="end", loop=graph.name,
                    succeeded=succeeded, budget_exceeded=not succeeded,
                    decisions=decisions, budget=budget,
                    evictions_resource=evict_resource,
                    evictions_dependence=evict_dependence,
                )
        work.merge(qm.work)
        stats = AttemptStats(
            ii=ii,
            decisions=decisions,
            evictions_resource=evict_resource,
            evictions_dependence=evict_dependence,
            budget=budget,
            succeeded=succeeded,
            budget_exceeded=not succeeded,
        )
        return self._Attempt(
            stats=stats, times=times, chosen=chosen,
            check_counts=check_counts,
        )

    def _verify(self, result: ModuloScheduleResult) -> None:
        """Re-check the final schedule against dependences and resources."""
        result.graph.verify_schedule(result.times, ii=result.ii)
        reserved = {}
        for name, time in result.times.items():
            opcode = result.chosen_opcodes[name]
            for resource, cycle in self.machine.table(opcode).iter_usages():
                slot = (resource, (time + cycle) % result.ii)
                if slot in reserved:
                    raise ScheduleError(
                        "resource contention between %s and %s at MRT slot %s"
                        % (reserved[slot], name, slot)
                    )
                reserved[slot] = name
