"""Corpus scheduling: a whole loop suite in one pass.

This driver schedules every loop of a
:func:`~repro.workloads.loopgen.loop_suite` with the ordinary per-loop
iterative modulo scheduler (``compiled`` query modules by default; the
kernel itself is memoized per machine) and merges the per-loop outcomes
and work accounting into one :class:`CorpusResult`.

Degradation is loop-local, never corpus-fatal:

* a shared :class:`~repro.resilience.budget.Budget` is checkpointed at
  every loop boundary; once starved, remaining loops are recorded as
  failed outcomes and the corpus result is still served;
* with a :class:`~repro.resilience.fallback.FallbackPolicy`, each loop
  runs the full scheduling ladder (IMS escalation, then the flat list
  rung), so a hard loop degrades alone while its neighbours pipeline.

``processes > 1`` fans the suite out over a ``multiprocessing`` pool,
sharded deterministically; every worker checks that the machine it
unpickled has the parent's digest.  Each loop's work is its own, so
schedules and every work currency are identical serial vs parallel —
asserted by ``tests/test_corpus.py``.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.certificate import machine_digest
from repro.core.machine import MachineDescription
from repro.errors import BudgetExceeded, ScheduleError
from repro.obs import trace as obs
from repro.query.modulo import COMPILED, make_query_module
from repro.query.work import WorkCounters
from repro.resilience.budget import Budget
from repro.scheduler.ddg import DependenceGraph
from repro.scheduler.modulo import IterativeModuloScheduler

#: The IMS ladder rung name (``repro.resilience.fallback.RUNG_IMS``),
#: inlined because :mod:`repro.resilience.fallback` imports the
#: scheduler package — importing it here at module scope would make
#: ``import repro.resilience`` order-dependent.  Pinned by a test.
RUNG_IMS = "ims"

if TYPE_CHECKING:  # pragma: no cover - type-checking only
    from repro.resilience.fallback import FallbackPolicy

Signature = Tuple[
    int, Tuple[Tuple[str, int], ...], Tuple[Tuple[str, str], ...]
]


def schedule_signature(
    ii: int, times: Dict[str, int], chosen_opcodes: Dict[str, str]
) -> Signature:
    """Canonical ``(II, placements, alternatives)`` fingerprint.

    The corpus driver and the fuzz oracle's differential stage compare
    schedules through this one shape, so "byte-identical schedules"
    means the same thing everywhere.
    """
    return (
        ii,
        tuple(sorted(times.items())),
        tuple(sorted(chosen_opcodes.items())),
    )


@dataclass
class LoopOutcome:
    """One loop of a corpus run: its schedule, or why there is none."""

    name: str
    ops: int
    ii: Optional[int] = None
    mii: Optional[int] = None
    times: Optional[Dict[str, int]] = None
    chosen_opcodes: Optional[Dict[str, str]] = None
    #: Serving ladder rung (``"ims"`` / ``"list"``); ``None`` on failure.
    rung: Optional[str] = None
    error_type: Optional[str] = None
    error: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.error_type is not None

    @property
    def degraded(self) -> bool:
        return self.rung is not None and self.rung != RUNG_IMS

    @property
    def signature(self) -> Optional[Signature]:
        """The loop's :func:`schedule_signature`, ``None`` when failed."""
        if self.failed:
            return None
        return schedule_signature(self.ii, self.times, self.chosen_opcodes)


@dataclass
class CorpusResult:
    """A whole suite's outcomes plus merged work accounting."""

    machine_name: str
    digest: str
    representation: str
    processes: int
    outcomes: List[LoopOutcome] = field(default_factory=list)
    work: WorkCounters = field(default_factory=WorkCounters)

    @property
    def scheduled(self) -> int:
        return sum(1 for outcome in self.outcomes if not outcome.failed)

    @property
    def failed(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.failed)

    @property
    def degraded(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.degraded)

    def signatures(self) -> List[Optional[Signature]]:
        """Per-loop schedule fingerprints, in suite order."""
        return [outcome.signature for outcome in self.outcomes]


class CorpusScheduler:
    """Schedule an entire loop suite in one pass.

    Parameters
    ----------
    machine:
        Machine description every loop is scheduled against.
    representation:
        Query representation every loop is scheduled with (default
        ``"compiled"``).
    word_cycles / budget_ratio / max_ii_slack:
        Forwarded to :class:`IterativeModuloScheduler` per loop.
    policy:
        Optional :class:`~repro.resilience.fallback.FallbackPolicy`;
        when set, each loop runs the verified scheduling ladder instead
        of bare IMS.
    processes:
        ``0``/``1`` for serial; ``> 1`` fans out over a process pool
        (ignored, with a counter, when a shared budget is supplied —
        cooperative budgets do not cross process boundaries).
    """

    def __init__(
        self,
        machine: MachineDescription,
        representation: str = COMPILED,
        word_cycles: int = 1,
        budget_ratio: int = 6,
        max_ii_slack: int = 64,
        policy: Optional["FallbackPolicy"] = None,
        processes: int = 0,
    ):
        self.machine = machine
        self.representation = representation
        self.word_cycles = word_cycles
        self.budget_ratio = budget_ratio
        self.max_ii_slack = max_ii_slack
        self.policy = policy
        self.processes = processes

    # ------------------------------------------------------------------
    def schedule_suite(
        self,
        graphs: Sequence[DependenceGraph],
        budget: Optional[Budget] = None,
    ) -> CorpusResult:
        """Schedule every graph; never raises for a single loop's sake.

        ``budget`` is one cooperative allowance for the whole corpus,
        checkpointed (and charged each loop's work units) at every loop
        boundary: a starved run keeps going, recording the remaining
        loops as failed outcomes.
        """
        digest = machine_digest(self.machine)
        result = CorpusResult(
            machine_name=self.machine.name,
            digest=digest,
            representation=self.representation,
            processes=self.processes,
        )
        processes = self.processes
        if processes > 1 and budget is not None:
            obs.count("corpus.serialized_for_budget")
            processes = 0
        with obs.span(
            "corpus.schedule", obs.CAT_SCHED,
            machine=self.machine.name, loops=len(graphs),
            representation=self.representation,
            processes=processes,
        ) as span:
            if processes > 1 and len(graphs) > 1:
                self._schedule_parallel(graphs, processes, digest, result)
            else:
                self._schedule_serial(graphs, budget, result)
            span.set(
                scheduled=result.scheduled,
                failed=result.failed,
                degraded=result.degraded,
            )
        return result

    # ------------------------------------------------------------------
    def _loop_config(self) -> dict:
        return {
            "representation": self.representation,
            "word_cycles": self.word_cycles,
            "budget_ratio": self.budget_ratio,
            "max_ii_slack": self.max_ii_slack,
        }

    def _schedule_serial(
        self,
        graphs: Sequence[DependenceGraph],
        budget: Optional[Budget],
        result: CorpusResult,
    ) -> None:
        factory = _make_factory(self.machine, self._loop_config())
        pending_units = 0
        for index, graph in enumerate(graphs):
            try:
                if budget is not None:
                    # Loop-boundary checkpoint: charge the previous
                    # loop's work, and let starvation land *between*
                    # loops so each remaining loop fails cleanly.
                    budget.checkpoint(
                        "corpus", units=pending_units, progress=index
                    )
                    pending_units = 0
                outcome, work = _schedule_one(
                    self.machine, graph, factory, self.policy,
                    self._loop_config(), budget,
                )
            except (BudgetExceeded, ScheduleError) as exc:
                result.outcomes.append(LoopOutcome(
                    name=graph.name,
                    ops=graph.num_operations,
                    error_type=type(exc).__name__,
                    error=str(exc),
                ))
                continue
            result.outcomes.append(outcome)
            result.work.merge(work)
            pending_units = work.total_units

    def _schedule_parallel(
        self,
        graphs: Sequence[DependenceGraph],
        processes: int,
        digest: str,
        result: CorpusResult,
    ) -> None:
        """Fan the suite out over a process pool, sharded round-robin.

        Workers verify they unpickled the *same* machine (by digest).
        """
        processes = min(processes, len(graphs))
        shards = []
        for rank in range(processes):
            indices = list(range(rank, len(graphs), processes))
            shards.append((
                self.machine,
                [graphs[i] for i in indices],
                indices,
                digest,
                self.policy,
                self._loop_config(),
            ))
        with multiprocessing.Pool(processes) as pool:
            shard_results = pool.map(_schedule_shard, shards)
        slots: List[Optional[LoopOutcome]] = [None] * len(graphs)
        for indices, outcomes, work in shard_results:
            for index, outcome in zip(indices, outcomes):
                slots[index] = outcome
            result.work.merge(work)
        result.outcomes.extend(slots)


# ----------------------------------------------------------------------
# Per-loop machinery (module-level so multiprocessing can pickle it)
# ----------------------------------------------------------------------
def _make_factory(
    machine: MachineDescription, config: dict
) -> Callable[[Optional[int]], object]:
    """The per-II query-module factory every loop's schedulers use.

    It builds exactly what the schedulers' default construction builds;
    it exists so :func:`make_query_module` is looked up here, at call
    time, where a layer-timing harness can hook it.
    """
    representation = config["representation"]
    word_cycles = config["word_cycles"]

    def factory(modulo: Optional[int]):
        return make_query_module(
            machine, representation, word_cycles=word_cycles, modulo=modulo
        )

    return factory


def _schedule_one(
    machine: MachineDescription,
    graph: DependenceGraph,
    factory: Callable[[Optional[int]], object],
    policy: Optional["FallbackPolicy"],
    config: dict,
    budget: Optional[Budget],
) -> Tuple[LoopOutcome, WorkCounters]:
    """Schedule one loop; raises only what the caller records."""
    if policy is not None:
        from repro.resilience.fallback import schedule_with_fallback

        outcome = schedule_with_fallback(
            machine, graph, policy,
            representation=config["representation"],
            word_cycles=config["word_cycles"],
            query_factory=factory,
        )
        work = outcome.work if outcome.work is not None else WorkCounters()
        return LoopOutcome(
            name=graph.name,
            ops=graph.num_operations,
            ii=outcome.ii,
            mii=outcome.mii,
            times=dict(outcome.times),
            chosen_opcodes=dict(outcome.chosen_opcodes),
            rung=outcome.rung,
        ), work
    scheduler = IterativeModuloScheduler(
        machine,
        representation=config["representation"],
        word_cycles=config["word_cycles"],
        budget_ratio=config["budget_ratio"],
        max_ii_slack=config["max_ii_slack"],
        query_factory=factory,
    )
    result = scheduler.schedule(graph, budget=budget)
    return LoopOutcome(
        name=graph.name,
        ops=graph.num_operations,
        ii=result.ii,
        mii=result.mii,
        times=dict(result.times),
        chosen_opcodes=dict(result.chosen_opcodes),
        rung=RUNG_IMS,
    ), result.work


def _schedule_shard(payload) -> Tuple[List[int], List[LoopOutcome], WorkCounters]:
    """One worker's share of the corpus (top-level for pickling)."""
    machine, graphs, indices, digest, policy, config = payload
    rebuilt = machine_digest(machine)
    if rebuilt != digest:
        raise RuntimeError(
            "corpus shard rebuilt a different machine: %s != %s"
            % (rebuilt, digest)
        )
    factory = _make_factory(machine, config)
    outcomes: List[LoopOutcome] = []
    work = WorkCounters()
    for graph in graphs:
        try:
            outcome, loop_work = _schedule_one(
                machine, graph, factory, policy, config, None
            )
        except (BudgetExceeded, ScheduleError) as exc:
            outcomes.append(LoopOutcome(
                name=graph.name,
                ops=graph.num_operations,
                error_type=type(exc).__name__,
                error=str(exc),
            ))
            continue
        outcomes.append(outcome)
        work.merge(loop_work)
    return indices, outcomes, work


__all__ = [
    "CorpusResult",
    "CorpusScheduler",
    "LoopOutcome",
    "schedule_signature",
]
