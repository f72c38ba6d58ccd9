"""Elementary usage pairs and the compatibility relation (paper Section 4).

A synthesized resource is a set of *usages* ``(operation, cycle)``: every
operation listed reserves the resource at the given cycle relative to its own
issue time.  Two usages ``(A, a)`` and ``(B, b)`` placed in one resource
*generate* the forbidden latency ``(b - a) in F[A][B]`` — A may not issue
``b - a`` cycles after B, because both would claim the resource in the same
machine cycle.

The *elementary pair* associated with a forbidden latency ``f in F[X][Y]``
is the two-usage resource ``{(X, 0), (Y, f)}``; it generates exactly that
latency (plus the implied self-contentions).  Algorithm 1 grows maximal
resources by repeatedly merging elementary pairs with existing resources,
guarded by the compatibility relation below.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Set, Tuple

from repro.core.forbidden import ForbiddenLatencyMatrix, Instance, canonical_instance

#: A usage: operation name and cycle relative to the resource's origin.
Usage = Tuple[str, int]

#: A synthesized resource: a frozenset of usages.
Resource = FrozenSet[Usage]


def normalize_resource(usages: Iterable[Usage]) -> Resource:
    """Shift a usage set so its earliest usage sits in cycle 0.

    Shifting all usages of a resource by a constant leaves its generated
    forbidden latencies unchanged, so normalized form is canonical.
    """
    usages = list(usages)
    if not usages:
        return frozenset()
    earliest = min(cycle for _, cycle in usages)
    return frozenset((op, cycle - earliest) for op, cycle in usages)


def usages_compatible(u: Usage, v: Usage, matrix: ForbiddenLatencyMatrix) -> bool:
    """True when placing ``u`` and ``v`` in one resource only generates a
    latency already forbidden by the target machine."""
    op_u, cycle_u = u
    op_v, cycle_v = v
    return matrix.is_forbidden(op_u, op_v, cycle_v - cycle_u)


def elementary_pair(instance: Instance) -> Resource:
    """The two-usage resource for a canonical instance ``(X, Y, f)``.

    For ``f == 0`` with ``X == Y`` (a self-contention) the pair degenerates
    to the single usage ``{(X, 0)}``.
    """
    op_x, op_y, latency = instance
    return frozenset({(op_x, 0), (op_y, latency)})


def elementary_pairs(matrix: ForbiddenLatencyMatrix) -> List[Resource]:
    """The worklist of Algorithm 1: one pair per canonical instance.

    Negative latencies are redundant (symmetry) and zero self-contention
    latencies are deferred to Rule 4, exactly as the paper prescribes.
    Pairs are ordered by increasing latency, then operation names, which
    reproduces the processing order of the paper's worked example (Fig. 3).
    """
    pairs = []
    for op_x, op_y, latency in matrix.instances():
        if latency == 0 and op_x == op_y:
            continue
        pairs.append((latency, op_x, op_y))
    pairs.sort()
    return [elementary_pair((op_x, op_y, f)) for f, op_x, op_y in pairs]


def pair_usages(pair: Resource) -> Tuple[Usage, Usage]:
    """The two usages of an elementary pair, anchor (cycle 0) first."""
    ordered = sorted(pair, key=lambda u: (u[1], u[0]))
    if len(ordered) == 1:
        return ordered[0], ordered[0]
    return ordered[0], ordered[1]


def resource_is_valid(resource: Resource, matrix: ForbiddenLatencyMatrix) -> bool:
    """True when every latency generated by ``resource`` is forbidden in the
    target machine — the invariant maintained by Rules 1–4 (Theorem 1)."""
    usages = sorted(resource)
    for i, u in enumerate(usages):
        for v in usages[i + 1 :]:
            if not usages_compatible(u, v, matrix):
                return False
    return True


def generated_instances(resource: Resource) -> Set[Instance]:
    """All canonical instances a resource generates.

    Each usage generates the self-contention of its operation; each pair of
    distinct usages generates one cross (or same-operation) latency.
    """
    usages = sorted(resource)
    instances: Set[Instance] = set()
    for i, (op_u, cycle_u) in enumerate(usages):
        instances.add((op_u, op_u, 0))
        for op_v, cycle_v in usages[i + 1 :]:
            instances.add(canonical_instance(op_u, op_v, cycle_v - cycle_u))
    return instances


def is_maximal(resource: Resource, matrix: ForbiddenLatencyMatrix) -> bool:
    """True when no usage can be added to ``resource`` without generating a
    latency the target machine allows (definition of a maximal resource).

    Candidate usages range over every operation and every cycle from
    ``-max_latency`` to ``max(resource cycles) + max_latency``; beyond that
    range a new usage could only generate latencies larger than any
    forbidden one.
    """
    if not resource:
        return False
    if not resource_is_valid(resource, matrix):
        return False
    span = max(cycle for _, cycle in resource)
    reach = matrix.max_latency
    for op in matrix.operations:
        if not matrix.uses_resources(op):
            continue
        for cycle in range(-reach, span + reach + 1):
            candidate = (op, cycle)
            if candidate in resource:
                continue
            if all(usages_compatible(candidate, u, matrix) for u in resource):
                return False
    return True
