"""Minimum initiation interval bounds for modulo scheduling (Rau '94).

``MII = max(ResMII, RecMII)``:

* **ResMII** — resource-constrained bound.  Every usage of a physical
  resource lands in one of the II slots of the modulo reservation table, so
  II must be at least the total per-iteration usage count of the most
  heavily used resource.  A second, subtler bound comes from
  self-contention: operation X cannot issue every II cycles when some
  positive multiple of II is a self-forbidden latency of X (its own usages
  would wrap onto one MRT slot).
* **RecMII** — recurrence-constrained bound.  For every dependence cycle C,
  ``II >= ceil(sum latency / sum distance)``.  Computed exactly by binary
  search over II with positive-cycle detection on edge weights
  ``latency - II * distance``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.forbidden import ForbiddenLatencyMatrix
from repro.core.machine import MachineDescription
from repro.errors import ScheduleError
from repro.scheduler.ddg import DependenceGraph

#: ``(src index, dst index, latency, distance)``.
Edge = Tuple[int, int, int, int]


def min_feasible_ii_for_op(
    matrix: ForbiddenLatencyMatrix, opcode: str
) -> int:
    """Smallest II at which ``opcode`` does not collide with itself.

    An operation issued every II cycles conflicts with its own later
    instances exactly when ``k * II`` (k >= 1) is one of its self-forbidden
    latencies (see :meth:`ForbiddenLatencyMatrix.min_self_feasible_ii`,
    which keeps the answer per matrix).
    """
    return matrix.min_self_feasible_ii(opcode)


def res_mii(
    machine: MachineDescription,
    opcodes: Iterable[str],
    matrix: Optional[ForbiddenLatencyMatrix] = None,
) -> int:
    """Resource-constrained minimum II for one iteration's opcodes.

    ``opcodes`` lists every operation of the loop body with multiplicity.
    The usage-count bound is exact for single-usage-per-cycle resources and
    a valid lower bound in general; the self-contention bound guards
    against IIs at which some opcode could never legally issue.
    """
    if matrix is None:
        matrix = ForbiddenLatencyMatrix.from_machine(machine)
    usage_totals, counts = _usage_totals(machine, opcodes)
    bound = max(usage_totals.values(), default=1)
    for opcode in counts:
        bound = max(bound, _self_feasible_ii(machine, matrix, opcode))
    return max(1, bound)


def _usage_totals(
    machine: MachineDescription, opcodes: Iterable[str]
) -> Tuple[Dict[str, int], Dict[str, int]]:
    """``(usages per resource, occurrences per opcode)`` of one iteration.

    Opcodes may be alternative-group base names; successive occurrences
    spread round-robin over the variants (the best case a scheduler can
    do for replicated units, hence still a valid lower bound).
    """
    usage_totals: Dict[str, int] = {}
    counts: Dict[str, int] = {}
    for opcode in opcodes:
        variants = machine.alternatives_of(opcode)
        variant = variants[counts.get(opcode, 0) % len(variants)]
        counts[opcode] = counts.get(opcode, 0) + 1
        for resource, _cycle in machine.table(variant).iter_usages():
            usage_totals[resource] = usage_totals.get(resource, 0) + 1
    return usage_totals, counts


def _self_feasible_ii(
    machine: MachineDescription, matrix: ForbiddenLatencyMatrix, opcode: str
) -> int:
    """Smallest self-feasible II over ``opcode``'s variants: with
    alternatives the scheduler may pick whichever variant is."""
    return min(
        matrix.min_self_feasible_ii(variant)
        for variant in machine.alternatives_of(opcode)
    )


def _indexed_edges(graph: DependenceGraph) -> Tuple[int, List[Edge]]:
    """``(nodes, edges)`` with every edge as ``(src, dst, latency,
    distance)`` over node indices."""
    index = {op.name: i for i, op in enumerate(graph.operations())}
    return len(index), [
        (index[e.src], index[e.dst], e.latency, e.distance)
        for e in graph.edges()
    ]


def _has_positive_cycle(nodes: int, edges: List[Edge], ii: int) -> bool:
    """Bellman-Ford longest-path relaxation detecting a positive cycle of
    ``latency - ii * distance`` edge weights."""
    weighted = [
        (src, dst, latency - ii * distance)
        for src, dst, latency, distance in edges
    ]
    dist = [0] * nodes
    for _ in range(nodes):
        changed = False
        for src, dst, weight in weighted:
            candidate = dist[src] + weight
            if candidate > dist[dst]:
                dist[dst] = candidate
                changed = True
        if not changed:
            return False
    return True


def _least_ii(nodes: int, edges: List[Edge], low: int, high: int) -> int:
    """Smallest II in ``[low, high]`` without a positive cycle, given that
    ``high`` has none and that the test is monotone (distance-0 edges
    acyclic)."""
    while low < high:
        mid = (low + high) // 2
        if _has_positive_cycle(nodes, edges, mid):
            low = mid + 1
        else:
            high = mid
    return low


def _require_acyclic(graph: DependenceGraph) -> None:
    if not graph.is_acyclic():
        raise ScheduleError(
            "graph %r has a zero-distance dependence cycle" % graph.name
        )


def _latency_cap(edges: List[Edge]) -> int:
    """An II no simple cycle of positive distance can make positive."""
    return max(1, sum(max(0, latency) for _s, _d, latency, _n in edges))


def rec_mii(graph: DependenceGraph, upper_bound: Optional[int] = None) -> int:
    """Recurrence-constrained minimum II (exact).

    Raises :class:`ScheduleError` when the graph has a dependence cycle of
    zero total distance (which no II can satisfy if its latency sum is
    positive) — :meth:`DependenceGraph.validate` catches these earlier.
    """
    if graph.num_operations == 0:
        return 1
    _require_acyclic(graph)
    nodes, edges = _indexed_edges(graph)
    high = _latency_cap(edges) if upper_bound is None else upper_bound
    if _has_positive_cycle(nodes, edges, high):
        raise ScheduleError(
            "no feasible II up to %d for graph %r" % (high, graph.name)
        )
    return _least_ii(nodes, edges, 1, high)


def min_ii(
    machine: MachineDescription,
    graph: DependenceGraph,
    matrix: Optional[ForbiddenLatencyMatrix] = None,
) -> int:
    """``MII = max(ResMII, RecMII)`` — the scheduler's starting II.

    Raises like :func:`rec_mii` on a zero-distance cycle.  Once the
    distance-0 edges are acyclic, every cycle has positive distance, so
    its weight ``sum latency - II * sum distance`` strictly decreases in
    II: RecMII <= ResMII exactly when ResMII leaves no positive cycle.
    One Bellman-Ford test decides that, and the binary search for
    RecMII runs only above ResMII.
    """
    _require_acyclic(graph)
    bound = res_mii(machine, graph.opcodes(), matrix=matrix)
    nodes, edges = _indexed_edges(graph)
    if not _has_positive_cycle(nodes, edges, bound):
        return bound
    return _least_ii(nodes, edges, bound + 1, _latency_cap(edges))


def mii_attribution(
    machine: MachineDescription,
    graph: DependenceGraph,
    matrix: Optional[ForbiddenLatencyMatrix] = None,
) -> Dict[str, object]:
    """Which constraint pins MII — the blame plane of :func:`min_ii`.

    Recomputes the bound's ingredients and names the binding one:

    * ``mii`` / ``res_mii`` / ``rec_mii`` — the bound and both terms;
    * ``usage_totals`` — per-resource usage counts of one iteration (the
      ResMII numerator), sorted most-used first;
    * ``self_contention`` — per-opcode min-over-variants self-feasible
      II, for opcodes where that exceeds 1;
    * ``pinned_by`` — one dict naming the binding constraint:
      ``{"kind": "recurrence"}`` when RecMII dominates, else
      ``{"kind": "resource", "resource": ..., "usages": ...}`` for the
      argmax resource, or ``{"kind": "self-contention", "opcode": ...,
      "min_ii": ...}`` when an opcode's self-forbidden latencies exceed
      every usage total.  Ties go to recurrence, then resource (the
      scheduler cannot relax either by adding hardware of the other
      kind).
    """
    if matrix is None:
        matrix = ForbiddenLatencyMatrix.from_machine(machine)
    opcodes = list(graph.opcodes())
    usage_totals, counts = _usage_totals(machine, opcodes)
    usage_bound = max(usage_totals.values(), default=1)
    self_contention: Dict[str, int] = {}
    for opcode in sorted(counts):
        feasible = _self_feasible_ii(machine, matrix, opcode)
        if feasible > 1:
            self_contention[opcode] = feasible
    resource_bound = res_mii(machine, opcodes, matrix=matrix)
    recurrence_bound = rec_mii(graph)
    mii = max(resource_bound, recurrence_bound)

    pinned: Dict[str, object]
    if recurrence_bound >= resource_bound:
        pinned = {"kind": "recurrence", "rec_mii": recurrence_bound}
    elif usage_bound >= resource_bound:
        resource = min(
            (r for r, n in usage_totals.items() if n == usage_bound)
        )
        pinned = {
            "kind": "resource",
            "resource": resource,
            "usages": usage_bound,
        }
    else:
        opcode, feasible = min(
            (
                (op, ii) for op, ii in self_contention.items()
                if ii == resource_bound
            ),
            key=lambda item: item[0],
        )
        pinned = {
            "kind": "self-contention",
            "opcode": opcode,
            "min_ii": feasible,
        }
    ordered_totals = dict(
        sorted(usage_totals.items(), key=lambda item: (-item[1], item[0]))
    )
    return {
        "mii": mii,
        "res_mii": resource_bound,
        "rec_mii": recurrence_bound,
        "usage_totals": ordered_totals,
        "self_contention": self_contention,
        "pinned_by": pinned,
    }
