"""Iterative Modulo Scheduling (Rau, MICRO-27 1994) — paper Section 8.

The scheduler that evaluates the contention query modules.  Its defining
features, all exercised here:

* operations are considered in *priority* order (height along critical
  paths), not cycle order — the unrestricted scheduling model;
* an operation may be scheduled into a slot that conflicts, in which case
  the conflicting operations are *unscheduled* via ``assign&free``;
* placements that violate dependences of already-scheduled successors
  unschedule those successors;
* a budget of ``budget_ratio * N`` scheduling decisions bounds the work per
  II; exceeding it restarts the attempt with II + 1.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.forbidden import ForbiddenLatencyMatrix
from repro.core.machine import MachineDescription
from repro.errors import ScheduleError
from repro.obs import trace as obs
from repro.query.alternatives import FIRST_FIT, POLICIES
from repro.query.base import BLAME_RESERVED, BLAME_SELF, Blame
from repro.query.modulo import DISCRETE, make_query_module
from repro.query.work import CHECK, CHECK_RANGE, WorkCounters
from repro.scheduler.ddg import DependenceGraph
from repro.scheduler.mii import min_ii


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


@dataclass
class AttemptStats:
    """Statistics of one scheduling attempt at a fixed II."""

    ii: int
    decisions: int
    evictions_resource: int
    evictions_dependence: int
    budget: int
    succeeded: bool
    budget_exceeded: bool

    @property
    def reversals(self) -> int:
        """Scheduling decisions that were later reversed."""
        return self.evictions_resource + self.evictions_dependence


@dataclass
class ModuloScheduleResult:
    """Outcome of modulo-scheduling one loop.

    ``times`` maps operation names to schedule times; the modulo issue slot
    of an operation is ``times[name] % ii``.  ``chosen_opcodes`` records the
    alternative selected for each operation.
    """

    graph: DependenceGraph
    machine: MachineDescription
    ii: int
    mii: int
    times: Dict[str, int]
    chosen_opcodes: Dict[str, str]
    attempts: List[AttemptStats]
    work: WorkCounters
    #: check queries issued per scheduling decision (paper Section 8
    #: reports this distribution: 4.74 on average for the Cydra 5).
    check_distribution: Counter = field(default_factory=Counter)

    @property
    def num_operations(self) -> int:
        return self.graph.num_operations

    @property
    def ii_over_mii(self) -> float:
        return self.ii / self.mii

    @property
    def optimal(self) -> bool:
        """True when the achieved II equals the lower bound MII."""
        return self.ii == self.mii

    @property
    def total_decisions(self) -> int:
        return sum(a.decisions for a in self.attempts)

    @property
    def decisions_per_op(self) -> float:
        """Scheduling decisions per operation, averaged over attempts —
        the paper's Table 5 metric."""
        per_attempt = [a.decisions / self.num_operations for a in self.attempts]
        return sum(per_attempt) / len(per_attempt)

    @property
    def any_reversals(self) -> bool:
        return any(a.reversals > 0 for a in self.attempts)

    @property
    def checks_per_decision(self) -> float:
        """Average check queries per scheduling decision."""
        decisions = sum(self.check_distribution.values())
        if not decisions:
            return 0.0
        total = sum(k * v for k, v in self.check_distribution.items())
        return total / decisions


class IterativeModuloScheduler:
    """Rau's Iterative Modulo Scheduler over a contention query module.

    Parameters
    ----------
    machine:
        Machine description (original or reduced — schedules are identical
        because forbidden latencies are identical; only query cost varies).
    representation / word_cycles:
        Query-module representation to drive (see
        :func:`repro.query.make_query_module`).
    budget_ratio:
        Scheduling-decision budget per attempt, as a multiple of the number
        of operations (the paper uses 6).
    max_ii_slack:
        Give up after ``MII + max_ii_slack`` failed IIs.
    alternative_policy:
        Probe order for ``check_with_alternatives``, one of
        :data:`repro.query.alternatives.POLICIES`.
    placement_policy:
        ``"earliest"`` (Rau's default: scan the II window upward from
        Estart) or ``"lifetime"`` (lifetime-sensitive, after Huff: when
        an operation's scheduled *consumers* pin its deadline side, scan
        the window downward from the latest feasible slot so produced
        values live as briefly as possible).  Both produce legal
        schedules; they trade scheduling freedom against register
        pressure — see ``benchmarks/test_ablation_lifetime.py``.
    query_factory:
        Optional ``modulo -> ContentionQueryModule`` callable replacing
        the default :func:`~repro.query.make_query_module` per-attempt
        construction (see :mod:`repro.scheduler.corpus`); the factory
        must return a fresh, empty module per call.
    """

    def __init__(
        self,
        machine: MachineDescription,
        representation: str = DISCRETE,
        word_cycles: int = 1,
        budget_ratio: int = 6,
        max_ii_slack: int = 64,
        matrix: Optional[ForbiddenLatencyMatrix] = None,
        alternative_policy: str = FIRST_FIT,
        placement_policy: str = "earliest",
        query_factory: Optional[Callable[[Optional[int]], object]] = None,
    ):
        if placement_policy not in ("earliest", "lifetime"):
            raise ScheduleError(
                "unknown placement policy %r" % placement_policy
            )
        if alternative_policy not in POLICIES:
            raise ScheduleError(
                "unknown alternative policy %r" % alternative_policy
            )
        self.machine = machine
        self.representation = representation
        self.word_cycles = word_cycles
        self.budget_ratio = budget_ratio
        self.max_ii_slack = max_ii_slack
        self.matrix = matrix or ForbiddenLatencyMatrix.from_machine(machine)
        self.alternative_policy = alternative_policy
        self.query_factory = query_factory
        self.placement_policy = placement_policy

    # ------------------------------------------------------------------
    def schedule(
        self, graph: DependenceGraph, budget=None
    ) -> ModuloScheduleResult:
        """Modulo-schedule a loop; raises :class:`ScheduleError` on failure.

        ``budget`` is an optional
        :class:`repro.resilience.budget.Budget` checked at every attempt
        boundary and once per scheduling decision (charged the query
        module's work-unit delta, so the currency matches
        :class:`~repro.query.work.WorkCounters`).  Exceeding it raises
        :class:`~repro.errors.BudgetExceeded` with phase ``"ims"`` and the
        partial schedule of the in-flight attempt.
        """
        # min_ii rejects zero-distance cycles, so of validate()'s checks
        # only the empty graph is left to do here.
        if not graph.num_operations:
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
    @dataclass
    class _Attempt:
        stats: AttemptStats
        times: Dict[str, int] = field(default_factory=dict)
        chosen: Dict[str, str] = field(default_factory=dict)
        check_counts: Counter = field(default_factory=Counter)

    def _attempt(
        self, graph: DependenceGraph, ii: int, work: WorkCounters,
        budget_obj=None,
    ) -> "IterativeModuloScheduler._Attempt":
        if self.query_factory is not None:
            qm = self.query_factory(ii)
        else:
            qm = make_query_module(
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

        # Neighbours with II-folded latencies (``latency - II *
        # distance``).  Self-edges are left out: an operation being
        # placed is never in ``times``, so they never bind.
        preds: Dict[str, List[Tuple[str, int]]] = {n: [] for n in names}
        succs: Dict[str, List[Tuple[str, int]]] = {n: [] for n in names}
        for edge in graph.edges():
            if edge.src != edge.dst:
                folded = edge.latency - ii * edge.distance
                preds[edge.dst].append((edge.src, folded))
                succs[edge.src].append((edge.dst, folded))
        # The unscheduled operations, as a heap of priority ranks: the
        # greatest height comes first, ties go to the smaller name.
        rank = {name: (-heights[name], name) for name in names}
        unscheduled = sorted(rank.values())
        times: Dict[str, int] = {}
        tokens: Dict[str, object] = {}
        token_owner = {}
        chosen: Dict[str, str] = {}
        prev_time: Dict[str, int] = {}
        calls = qm.work.calls

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
                name = heapq.heappop(unscheduled)[1]
                checks_before = calls.get(CHECK, 0) + calls.get(CHECK_RANGE, 0)
                estart = 0
                for src, folded in preds[name]:
                    if src in times:
                        bound = times[src] + folded
                        if bound > estart:
                            estart = bound

                # Search an II-wide window for a contention-free slot:
                # discrete scans cycle-major over the kept folds with
                # the probe order taken once per window; bitvector and
                # compiled run one batched scan per alternative.  The
                # lifetime policy scans downward from the latest slot
                # permitted by already-scheduled consumers (when any
                # exist), shortening the lifetimes of this op's produced
                # value.
                window = (estart, estart + ii, 1)
                if self.placement_policy == "lifetime":
                    deadline = None
                    for dst, folded in succs[name]:
                        if dst in times:
                            bound = times[dst] - folded
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
                        # Provenance: what blocks the forced slot and
                        # the exhausted window, read off the live
                        # placements — no query module is asked.
                        blamed = find_blame(
                            self.machine, alternative, (slot,),
                            times, chosen, ii,
                        )
                        blame = blamed[0][1].to_dict() if blamed else None
                        window_blame = [
                            cell.to_dict()
                            for _cycle, cell in find_blame(
                                self.machine, alternative,
                                range(window[0], window[1]),
                                times, chosen, ii,
                            )[:8]
                        ]

                checks_after = calls.get(CHECK, 0) + calls.get(CHECK_RANGE, 0)
                check_counts[checks_after - checks_before] += 1
                token, evicted = qm.assign_free(alternative, slot)
                decisions += 1
                times[name] = slot
                prev_time[name] = slot
                tokens[name] = token
                token_owner[token.ident] = name
                chosen[name] = alternative
                if tracer is not None:
                    decision = {
                        "ii": ii, "op": name, "opcode": opcode_of[name],
                        "alternative": alternative, "cycle": slot,
                        "window": [window[0], window[1]],
                        "direction": window[2],
                        "decisions": decisions, "budget": budget,
                    }
                    if forced:
                        decision["blame"] = blame
                        decision["window_blame"] = window_blame
                    tracer.event(
                        "ims.force" if forced else "ims.place",
                        obs.CAT_SCHED, **decision,
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
                    heapq.heappush(unscheduled, rank[victim])

                # Unschedule successors whose dependences the placement
                # breaks.
                for succ, folded in succs[name]:
                    if succ in times and slot + folded > times[succ]:
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
                        heapq.heappush(unscheduled, rank[succ])

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

    # ------------------------------------------------------------------
    def _verify(self, result: ModuloScheduleResult) -> None:
        """Re-check the final schedule against dependences and resources."""
        verify_modulo_schedule(
            self.machine, result.graph, result.times, result.chosen_opcodes,
            result.ii,
        )


def verify_modulo_schedule(
    machine: MachineDescription,
    graph: DependenceGraph,
    times: Dict[str, int],
    chosen: Dict[str, str],
    ii: int,
) -> None:
    """Check a modulo schedule against ``graph``'s dependences, then
    against a ground-truth modulo reservation table built from
    ``machine``'s tables; raises :class:`~repro.errors.ScheduleError`
    on the first violation."""
    graph.verify_schedule(times, ii=ii)
    reserved: Dict[Tuple[str, int], str] = {}
    for name, time in times.items():
        for resource, cycle in machine.table(chosen[name]).iter_usages():
            slot = (resource, (time + cycle) % ii)
            if slot in reserved:
                raise ScheduleError(
                    "resource contention between %s and %s at MRT slot %s"
                    % (reserved[slot], name, slot)
                )
            reserved[slot] = name


def find_blame(
    machine: MachineDescription,
    op: str,
    cycles: Iterable[int],
    times: Dict[str, int],
    chosen: Dict[str, str],
    modulo: Optional[int] = None,
) -> List[Tuple[int, Blame]]:
    """``(cycle, blame)`` for each cycle of ``cycles`` that blocks ``op``.

    A pure function of the machine's tables and a partial schedule: the
    placement ``name`` holds the cells of ``machine.table(chosen[name])``
    issued at ``times[name]``, wrapped onto an MRT of ``modulo`` slots
    when given.  Each blocked cycle gets its canonical :class:`Blame`
    (see there), in the order of ``cycles``; free cycles are left out.
    No query module is involved and no work currency is charged, so
    asking why a placement was forced never moves a work count.
    """
    index = {resource: i for i, resource in enumerate(machine.resources)}
    owners: Dict[Tuple[str, int], Tuple[str, int]] = {}
    for name, time in times.items():
        variant = chosen[name]
        for resource, use in machine.table(variant).iter_usages():
            cell = time + use
            if modulo is not None:
                cell %= modulo
            owners[(resource, cell)] = (variant, time)
    table = machine.table(op)
    found: List[Tuple[int, Blame]] = []
    for cycle in cycles:
        if modulo is None:
            cells = Counter((r, cycle + c) for r, c in table.iter_usages())
        else:
            cells = Counter(table.folded(modulo, cycle % modulo)[0])
        repeated = [
            (slot, index[resource], resource)
            for (resource, slot), count in cells.items()
            if count > 1
        ]
        if repeated:
            slot, _, resource = min(repeated)
            found.append((cycle, Blame(resource, slot, BLAME_SELF)))
            continue
        blocked = [
            (at, index[resource], resource)
            for resource, at in cells
            if (resource, at) in owners
        ]
        if blocked:
            at, _, resource = min(blocked)
            owner_op, owner_cycle = owners[(resource, at)]
            found.append((cycle, Blame(
                resource, at, BLAME_RESERVED, owner_op, owner_cycle,
            )))
    return found
