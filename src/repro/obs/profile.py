"""The ``repro profile`` pipeline: reduce + schedule under tracing.

Runs the paper's full workflow — forbidden-matrix construction,
Algorithm 1, selection, then Iterative Modulo Scheduling of one kernel or
a generated loop suite — under the caller's tracer, from which callers
render any of the exports, and returns the summed work counters of the
schedules it ran.  It sits above the scheduler
(``docs/architecture.md``, "Layers"); the tracer it drives,
:mod:`repro.obs.trace`, is a leaf the layers below import.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.reduce import reduce_machine
from repro.errors import MachineDescriptionError
from repro.obs.trace import CAT_PROFILE, Tracer, tracing
from repro.query.work import WorkCounters
from repro.resilience.reduction_cache import cached_reduce
from repro.scheduler.ddg import chain
from repro.scheduler.modulo import IterativeModuloScheduler
from repro.workloads import KERNELS, loop_suite


def workload_for(machine, kernel: Optional[str], loops: int) -> List:
    """Dependence graphs to profile ``machine`` with.

    The named kernel when given; otherwise the generated loop suite,
    keeping only loops whose opcodes the machine implements.  Machines
    outside the Cydra-5-subset repertoire (``example``, MDL files, ...)
    get machine-native chain loops over their own operations instead, so
    ``repro profile`` works for any description.
    """
    if kernel is not None:
        return [KERNELS[kernel]()]

    def implements(opcode: str) -> bool:
        # Resolve through alternative groups: the suite says ``load_s``,
        # the Cydra 5 implements it as ``load_s.0`` / ``load_s.1``.
        try:
            machine.alternatives_of(opcode)
        except MachineDescriptionError:
            return False
        return True

    suite = [
        graph
        for graph in loop_suite(loops)
        if all(implements(op) for op in graph.opcodes())
    ]
    if suite:
        return suite
    names = machine.operation_names
    width = min(8, len(names))
    return [
        chain(
            "native-%d" % index,
            [names[(index + j) % len(names)] for j in range(width)],
        )
        for index in range(max(1, loops))
    ]


def profile_machine(
    machine,
    tracer: Tracer,
    kernel: Optional[str] = None,
    loops: int = 8,
    representation: str = "discrete",
    word_cycles: int = 1,
    objective: str = "res-uses",
    schedule_reduced: bool = False,
    reduction_cache: Optional[str] = None,
) -> WorkCounters:
    """Profile the reduction + scheduling pipeline on ``machine``.

    Parameters
    ----------
    machine:
        Machine description to profile.
    tracer:
        The tracer the pipeline runs under.
    kernel / loops:
        Schedule the named kernel, or (when ``kernel`` is ``None``) the
        first ``loops`` loops of the generated suite.
    representation / word_cycles:
        Query-module representation driven by the scheduler.
    objective:
        Reduction objective (``res-uses`` / ``word-uses``).
    schedule_reduced:
        Schedule on the reduced description instead of the original —
        the paper's headline configuration.
    reduction_cache:
        Optional digest-keyed reduction-cache directory (see
        :mod:`repro.resilience.reduction_cache`).  Cache hits skip the
        reduce phase's work, so the benchmark observatory never passes
        this — its work counters must not depend on cache warmth.

    Returns the summed :class:`~repro.query.work.WorkCounters` of the
    schedules it ran.
    """
    tracer.meta.update(
        machine=machine.name,
        kernel=kernel or ("suite[%d]" % loops),
        representation=representation,
        word_cycles=word_cycles,
        objective=objective,
        scheduled_on="reduced" if schedule_reduced else "original",
    )
    with tracing(tracer):
        with tracer.span("reduce", CAT_PROFILE):
            if reduction_cache is not None:
                cached = cached_reduce(
                    machine,
                    objective=objective,
                    word_cycles=word_cycles,
                    cache_dir=reduction_cache,
                )
                reduced = cached.reduced
            else:
                reduced = reduce_machine(
                    machine, objective=objective, word_cycles=word_cycles
                ).reduced
        target = reduced if schedule_reduced else machine
        scheduler = IterativeModuloScheduler(
            target,
            representation=representation,
            word_cycles=word_cycles,
        )
        graphs = workload_for(machine, kernel, loops)
        with tracer.span("schedule", CAT_PROFILE, loops=len(graphs)):
            results: List[object] = []
            for graph in graphs:
                results.append(scheduler.schedule(graph))
    optimal = sum(1 for r in results if r.optimal)
    tracer.count("profile.loops", len(graphs))
    tracer.count("profile.loops_at_mii", optimal)
    # Schedule-quality counters: the achieved-II total against the MII
    # lower-bound total is the benchmark observatory's quality metric
    # (a reduction or scheduler change that speeds queries up but costs
    # II shows up here, not in the work units).
    tracer.count("profile.ii_total", sum(r.ii for r in results))
    tracer.count("profile.mii_total", sum(r.mii for r in results))
    work = WorkCounters()
    for result in results:
        work.merge(result.work)
    return work


__all__ = ["profile_machine", "workload_for"]
