"""Corpus scheduling: a whole loop suite in one pass.

This driver schedules every loop of a
:func:`~repro.workloads.loopgen.loop_suite` with the ordinary per-loop
iterative modulo scheduler (the paper's ``discrete`` query modules by
default, as for :class:`IterativeModuloScheduler`; their reservation
tables keep each fold per II, so later loops reuse them) and merges the
per-loop outcomes and work accounting into one :class:`CorpusResult`.

Degradation is loop-local, never corpus-fatal:

* a shared :class:`~repro.resilience.budget.Budget` is checkpointed at
  every loop boundary; once starved, remaining loops are recorded as
  failed outcomes and the corpus result is still served;
* with a :class:`~repro.scheduler.ladder.FallbackPolicy`, each loop
  runs the full scheduling ladder (IMS escalation, then the flat list
  rung), so a hard loop degrades alone while its neighbours pipeline.

By default the suite is sharded round-robin over the CPUs the process
may run on: ``N - 1`` forked workers inherit the machine, the suite,
the policy and the loop configuration, so a task carries loop indices
only, and the caller schedules one shard itself.  Outcomes merge by
loop index.  Each loop's work is its own, so schedules and every work
currency are identical serial vs parallel — asserted by
``tests/test_corpus.py``.  A run that a second process cannot serve
faithfully stays serial: one under a shared budget or an active tracer
(whose decision events explain a run), without the ``fork`` start
method, or with other live threads in the caller (forking those can
deadlock the child).
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.machine import MachineDescription
from repro.errors import BudgetExceeded, ScheduleError
from repro.obs import trace as obs
from repro.query.modulo import DISCRETE, make_query_module
from repro.query.work import WorkCounters
from repro.resilience.budget import Budget
from repro.scheduler.ddg import DependenceGraph
from repro.scheduler.ladder import (
    RUNG_IMS,
    FallbackPolicy,
    schedule_with_fallback,
)
from repro.scheduler.modulo import IterativeModuloScheduler

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

    #: The description every loop was scheduled against.
    machine: MachineDescription = field(repr=False)
    representation: str
    #: Processes that scheduled the suite; 1 for a serial run.
    processes: int
    outcomes: List[LoopOutcome] = field(default_factory=list)
    work: WorkCounters = field(default_factory=WorkCounters)

    @property
    def machine_name(self) -> str:
        return self.machine.name

    @cached_property
    def digest(self) -> str:
        """SHA-256 of the machine's canonical MDL text.

        Computed on first read: a corpus run never reads it, and
        serializing and hashing the machine would load the MDL writer
        and OpenSSL into every run.
        """
        from repro.mdl.format import machine_digest

        return machine_digest(self.machine)

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
        ``"discrete"``, the fastest on the Cydra 5 suite; ``"compiled"``
        pays off when IIs run long).  Schedules do not depend on it.
    word_cycles / budget_ratio / max_ii_slack:
        Forwarded to the one :class:`IterativeModuloScheduler` that
        every loop of a suite (or shard) runs.
    policy:
        Optional :class:`~repro.scheduler.ladder.FallbackPolicy`;
        when set, each loop runs the verified scheduling ladder instead
        of bare IMS.
    processes:
        ``None`` (the default) uses the CPUs available to the process,
        lowered so each process gets at least
        :data:`MIN_LOOPS_PER_PROCESS` loops; ``0``/``1`` is serial and
        ``N > 1`` asks for ``N`` processes.  Either way the run stays
        serial under a shared budget (with a counter — cooperative
        budgets do not cross process boundaries), an active tracer (its
        records are process-local), without the ``fork`` start method,
        or with other live threads.
        :attr:`CorpusResult.processes` is the count that ran.
    """

    def __init__(
        self,
        machine: MachineDescription,
        representation: str = DISCRETE,
        word_cycles: int = 1,
        budget_ratio: int = 6,
        max_ii_slack: int = 64,
        policy: Optional[FallbackPolicy] = None,
        processes: Optional[int] = None,
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
        processes = self._processes(len(graphs), budget)
        result = CorpusResult(
            machine=self.machine,
            representation=self.representation,
            processes=processes,
        )
        with obs.span(
            "corpus.schedule", obs.CAT_SCHED,
            machine=self.machine.name, loops=len(graphs),
            representation=self.representation,
            processes=processes,
        ) as span:
            if processes > 1:
                self._schedule_parallel(graphs, processes, result)
            else:
                result.outcomes, result.work = _schedule_loops(
                    self.machine, graphs, range(len(graphs)), self.policy,
                    self._loop_config(), budget,
                )
            span.set(
                scheduled=result.scheduled,
                failed=result.failed,
                degraded=result.degraded,
            )
        return result

    # ------------------------------------------------------------------
    def _processes(self, loops: int, budget: Optional[Budget]) -> int:
        """How many processes schedule ``loops`` loops; 1 is serial."""
        processes = self.processes
        if processes is None:
            processes = min(_available_cpus(), loops // MIN_LOOPS_PER_PROCESS)
        if processes > 1 and budget is not None:
            obs.count("corpus.serialized_for_budget")
            return 1
        if (
            processes <= 1
            or loops <= 1
            or obs.enabled()
            or "fork" not in multiprocessing.get_all_start_methods()
            # A daemonic process may not have children.
            or multiprocessing.current_process().daemon
            or threading.active_count() > 1
        ):
            return 1
        return min(processes, loops)

    def _loop_config(self) -> dict:
        return {
            "representation": self.representation,
            "word_cycles": self.word_cycles,
            "budget_ratio": self.budget_ratio,
            "max_ii_slack": self.max_ii_slack,
        }

    def _schedule_parallel(
        self,
        graphs: Sequence[DependenceGraph],
        processes: int,
        result: CorpusResult,
    ) -> None:
        """Shard the suite round-robin over ``processes - 1`` forked
        workers and the caller, then merge the outcomes by loop index.

        The workers inherit the inputs through :data:`_INHERITED`, so
        nothing but loop indices and replies crosses a process boundary.
        """
        global _INHERITED
        context = multiprocessing.get_context("fork")
        shards = [
            range(rank, len(graphs), processes) for rank in range(processes)
        ]
        workers: List[_Worker] = []
        _INHERITED = (self.machine, graphs, self.policy, self._loop_config())
        try:
            for shard in shards[1:]:
                workers.append(_Worker(context, shard))
            replies = [_schedule_shard(shards[0])]
            replies.extend(worker.reply() for worker in workers)
        finally:
            _INHERITED = None
            for worker in workers:
                worker.stop()
        slots: List[Optional[LoopOutcome]] = [None] * len(graphs)
        for indices, outcomes, work in replies:
            for index, outcome in zip(indices, outcomes):
                slots[index] = outcome
            result.work.merge(work)
        result.outcomes.extend(slots)


# ----------------------------------------------------------------------
# Fan-out: forked workers that inherit the suite
# ----------------------------------------------------------------------
#: Fewest loops each process must get before a default run fans out.
#: Serial against the caller plus one forked worker on the reduced
#: cydra5-subset suite (x86_64, 2 vCPUs, Python 3.11.7; medians of 10
#: fresh processes): 32 loops 0.019 vs 0.026 s, 64 loops 0.041 vs
#: 0.040 s (break-even), 96 loops 0.061 vs 0.049 s, 128 loops 0.070 vs
#: 0.057 s.  48 fans out from 96 loops, the first size that won (8 of 10).
MIN_LOOPS_PER_PROCESS = 48

#: ``(machine, graphs, policy, loop config)`` of the suite being fanned
#: out.  Set only while its workers are forked and run, so they inherit
#: it instead of unpickling it.
_INHERITED: Optional[tuple] = None


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where it has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class _Worker:
    """One forked process scheduling one shard of :data:`_INHERITED`."""

    def __init__(self, context, indices: range):
        self._reader, writer = context.Pipe(duplex=False)
        self._process = context.Process(
            target=_serve_shard, args=(indices, writer), daemon=True
        )
        self._process.start()
        writer.close()

    def reply(self) -> Tuple[range, List[LoopOutcome], WorkCounters]:
        """The shard's ``(indices, outcomes, work)``; re-raises whatever
        the worker raised."""
        try:
            ok, payload = self._reader.recv()
        except EOFError:
            self._process.join()
            raise RuntimeError(
                "corpus worker %d exited with code %s before replying"
                % (self._process.pid, self._process.exitcode)
            ) from None
        self._process.join()
        if not ok:
            raise payload
        return payload

    def stop(self) -> None:
        """Reap the worker, ending it first if it has not replied."""
        self._process.terminate()
        self._process.join()
        self._reader.close()


def _serve_shard(indices: range, writer) -> None:
    """A forked worker's body: send the caller ``(True, shard result)``,
    or ``(False, exception)`` and re-raise it, so the worker prints its
    traceback and exits non-zero."""
    try:
        reply = (True, _schedule_shard(indices))
    except BaseException as exc:
        writer.send((False, exc))
        raise
    writer.send(reply)


def _schedule_shard(
    indices: range,
) -> Tuple[range, List[LoopOutcome], WorkCounters]:
    """One process's share of the suite in :data:`_INHERITED`."""
    machine, graphs, policy, config = _INHERITED
    outcomes, work = _schedule_loops(machine, graphs, indices, policy, config)
    return indices, outcomes, work


# ----------------------------------------------------------------------
# Per-loop machinery
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


def _loop_scheduler(
    machine: MachineDescription, config: dict
) -> IterativeModuloScheduler:
    """The one scheduler, and so the one forbidden-latency matrix, that
    every loop of a suite or shard shares."""
    return IterativeModuloScheduler(
        machine,
        representation=config["representation"],
        word_cycles=config["word_cycles"],
        budget_ratio=config["budget_ratio"],
        max_ii_slack=config["max_ii_slack"],
        query_factory=_make_factory(machine, config),
    )


def _schedule_loops(
    machine: MachineDescription,
    graphs: Sequence[DependenceGraph],
    indices: range,
    policy: Optional[FallbackPolicy],
    config: dict,
    budget: Optional[Budget] = None,
) -> Tuple[List[LoopOutcome], WorkCounters]:
    """Outcomes of ``graphs[i]`` for each ``i`` in ``indices``, in that
    order, and their merged work."""
    scheduler = _loop_scheduler(machine, config)
    outcomes: List[LoopOutcome] = []
    work = WorkCounters()
    pending_units = 0
    for index in indices:
        graph = graphs[index]
        try:
            if budget is not None:
                # Loop-boundary checkpoint: charge the previous
                # loop's work, and let starvation land *between*
                # loops so each remaining loop fails cleanly.
                budget.checkpoint(
                    "corpus", units=pending_units, progress=index
                )
                pending_units = 0
            outcome, loop_work = _schedule_one(
                scheduler, graph, policy, budget
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
        pending_units = loop_work.total_units
    return outcomes, work


def _schedule_one(
    scheduler: IterativeModuloScheduler,
    graph: DependenceGraph,
    policy: Optional[FallbackPolicy],
    budget: Optional[Budget],
) -> Tuple[LoopOutcome, WorkCounters]:
    """Schedule one loop; raises only what the caller records."""
    if policy is not None:
        outcome = schedule_with_fallback(
            scheduler.machine, graph, policy,
            representation=scheduler.representation,
            word_cycles=scheduler.word_cycles,
            query_factory=scheduler.query_factory,
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


__all__ = [
    "CorpusResult",
    "CorpusScheduler",
    "LoopOutcome",
    "MIN_LOOPS_PER_PROCESS",
    "schedule_signature",
]
