"""Set-based reference implementation of Algorithm 1 (test-only).

This is the textbook formulation that :mod:`repro.core.generating`
replaced with packed usage masks: every resource is a ``frozenset`` of
usages, and each pair rebuilds its per-operation ``allowed`` cycles.
``tests/test_generating_reference.py`` requires the production
implementation to return exactly the same list (order included) and the
same trace as this one.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.core.elementary import Resource, elementary_pairs, pair_usages
from repro.core.forbidden import ForbiddenLatencyMatrix
from repro.core.generating import RuleApplication, TraceStep
from repro.obs import trace as obs


def _prune_subset_resources(resources: List[Resource]) -> List[Resource]:
    """Drop resources contained in another resource of the list."""
    ordered = sorted(set(resources), key=len, reverse=True)
    kept: List[Resource] = []
    for candidate in ordered:
        if not any(candidate < existing for existing in kept):
            kept.append(candidate)
    # Preserve the original first-seen order among survivors.
    survivors = set(kept)
    result = []
    seen = set()
    for resource in resources:
        if resource in survivors and resource not in seen:
            seen.add(resource)
            result.append(resource)
    return result


def reference_generating_set(
    matrix: ForbiddenLatencyMatrix,
    prune_subsets_every: Optional[int] = 64,
    trace: Optional[Callable[[TraceStep], None]] = None,
    budget=None,
) -> List[Resource]:
    """Algorithm 1 on frozensets; same contract as ``build_generating_set``."""
    resources: List[Resource] = []
    worklist = elementary_pairs(matrix)
    operations = matrix.operations
    tracer = obs.current()
    if tracer is not None:
        tracer.count("reduce.algorithm1.pairs", len(worklist))
    for processed, pair in enumerate(worklist, start=1):
        if budget is not None:
            budget.checkpoint(
                "generating_set",
                units=1 + len(resources),
                progress="%d/%d pairs" % (processed - 1, len(worklist)),
                partial=list(resources),
            )
        step = TraceStep(pair=pair) if trace is not None else None
        u0, u1 = pair_usages(pair)
        # Per operation, the set of cycles at which a usage is compatible
        # with BOTH usages of this pair.  A usage (B, b) is compatible
        # with (X, x) iff (x - b) is in F[B][X].
        op_x, cycle_x = u0
        op_y, cycle_y = u1
        allowed = {}
        for op in operations:
            with_first = {
                cycle_x - g for g in matrix.latencies(op, op_x)
            }
            with_second = {
                cycle_y - g for g in matrix.latencies(op, op_y)
            }
            common = with_first & with_second
            if common:
                allowed[op] = common
        found_together = False
        additions: List[Resource] = []
        for index, current in enumerate(resources):
            compatible = frozenset(
                u for u in current if u[1] in allowed.get(u[0], ())
            )
            if len(compatible) == len(current):
                # Rule 1: fully compatible -> merge the pair in.
                merged = current | pair
                resources[index] = merged
                found_together = True
                if tracer is not None:
                    tracer.count("reduce.algorithm1.rule1")
                if step is not None:
                    step.applications.append(RuleApplication(1, current, merged))
            else:
                # Rule 2: partially compatible -> candidate new resource.
                candidate = pair | compatible
                if candidate != pair:
                    additions.append(candidate)
                    found_together = True
                    if tracer is not None:
                        tracer.count("reduce.algorithm1.rule2")
                    if step is not None:
                        step.applications.append(
                            RuleApplication(2, current, candidate)
                        )
                elif step is not None:
                    step.applications.append(RuleApplication(2, current, None))
        existing = set(resources)
        for candidate in additions:
            if candidate not in existing:
                existing.add(candidate)
                resources.append(candidate)
        if not found_together:
            # Rule 3: the pair starts a resource of its own.
            if pair not in existing:
                resources.append(pair)
            if tracer is not None:
                tracer.count("reduce.algorithm1.rule3")
            if step is not None:
                step.applications.append(RuleApplication(3, None, pair))
        if prune_subsets_every and processed % prune_subsets_every == 0:
            before = len(resources)
            resources = _prune_subset_resources(resources)
            if tracer is not None:
                tracer.count("reduce.algorithm1.subset_pruned",
                             before - len(resources))
        if step is not None:
            step.resources = tuple(resources)
            trace(step)

    # Rule 4: operations whose only forbidden latency is 0 in F[X][X].
    for op in matrix.operations:
        self_latencies = matrix.latencies(op, op)
        if self_latencies != frozenset({0}):
            continue
        others = any(
            (matrix.latencies(op, other) or matrix.latencies(other, op))
            for other in matrix.operations
            if other != op
        )
        if others:
            continue
        singleton = frozenset({(op, 0)})
        if not any(any(u[0] == op for u in resource) for resource in resources):
            resources.append(singleton)
            if tracer is not None:
                tracer.count("reduce.algorithm1.rule4")
            if trace is not None:
                trace(
                    TraceStep(
                        pair=singleton,
                        applications=[RuleApplication(4, None, singleton)],
                        resources=tuple(resources),
                    )
                )

    return _prune_subset_resources(resources)
