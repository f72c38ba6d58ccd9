"""Synthetic loop benchmark generator (substitute for the paper's 1327
Fortran loops from the Perfect Club, SPEC-89 and the Livermore Kernels).

The generator produces innermost-loop dependence graphs over the Cydra 5
benchmark subset's operation repertoire, calibrated to the published
population statistics (paper Table 5):

* operations per loop: min 2, mean ~17.5, max 161 (log-normal size draw);
* a minority of loops carry recurrences (accumulators / linear
  recurrences) with distance 1 or 2;
* address arithmetic feeds memory traffic; expression trees of FP
  adds/multiplies connect loads to stores; every loop ends in a ``brtop``
  loop-control operation.

Graphs are generated from a seeded RNG, so ``loop_suite(1327)`` is fully
reproducible.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.scheduler.ddg import Dependence, DependenceGraph, Operation

#: Result latency of each producer opcode (base names; alternatives share
#: their base's latency).  Loads carry the Cydra's long memory latency.
RESULT_LATENCY: Dict[str, int] = {
    "load_s": 18,
    "store_s": 1,
    "addr_gen": 2,
    "iadd": 2,
    "icmp": 2,
    "fadd_s": 5,
    "fmul_s": 5,
    "mov": 2,
    "brtop": 1,
}

#: Relative frequency of computational opcodes in loop bodies.
_COMPUTE_MIX = (
    ("fadd_s", 28),
    ("fmul_s", 22),
    ("iadd", 18),
    ("icmp", 6),
    ("mov", 8),
    ("load_s", 0),  # memory traffic is sized separately below
)

_SIZE_MEAN_LOG = 2.45  # exp(2.45) ~ 11.6 body ops before memory/control
_SIZE_SIGMA_LOG = 0.72
MIN_OPS = 2
MAX_OPS = 161


def _draw_size(rng: random.Random) -> int:
    size = int(round(math.exp(rng.gauss(_SIZE_MEAN_LOG, _SIZE_SIGMA_LOG))))
    return max(MIN_OPS, min(MAX_OPS, size))


def _weighted_choice(rng: random.Random, mix: Sequence) -> str:
    total = sum(weight for _name, weight in mix)
    pick = rng.uniform(0, total)
    for name, weight in mix:
        pick -= weight
        if pick <= 0:
            return name
    return mix[-1][0]


def generate_loop(seed: int, name: Optional[str] = None) -> DependenceGraph:
    """Generate one innermost-loop dependence graph.

    The loop has the shape: address ops feed loads, loads feed an
    expression DAG of FP/integer ops, results feed stores, and a ``brtop``
    closes the iteration control recurrence.  With ~35% probability one
    value chain is turned into a loop-carried recurrence.
    """
    return _generate_loop(seed, name, {}, {})


def _generate_loop(
    seed: int,
    name: Optional[str],
    operations: Dict[Tuple[str, int], Operation],
    dependences: Dict[Tuple[str, str, int, int], Dependence],
) -> DependenceGraph:
    """:func:`generate_loop`, taking each node from ``operations`` (keyed
    by opcode and index) and each edge from ``dependences`` (keyed by
    endpoints, latency and distance), and adding the ones missing there.
    Graphs built from the same two tables share equal nodes and edges.
    """
    rng = random.Random(0x5EED ^ seed)
    size = _draw_size(rng)
    nodes: List[Operation] = []
    edges: List[Dependence] = []

    def fresh(opcode: str) -> Operation:
        key = (opcode, len(nodes))
        node = operations.get(key)
        if node is None:
            node = operations[key] = Operation("%s_%d" % key, opcode)
        nodes.append(node)
        return node

    def depend(
        src: Operation, dst: Operation, latency: int, distance: int = 0
    ) -> None:
        key = (src.name, dst.name, latency, distance)
        edge = dependences.get(key)
        if edge is None:
            edge = dependences[key] = Dependence(*key)
        edges.append(edge)

    if size <= 4:
        # Tiny loops: a short compute chain closed by the loop control op.
        previous = None
        for _ in range(size - 1):
            node = fresh(_weighted_choice(rng, _COMPUTE_MIX[:4]))
            if previous is not None:
                depend(previous, node, RESULT_LATENCY[previous.opcode])
            previous = node
        brtop = fresh("brtop")
        depend(brtop, brtop, RESULT_LATENCY["brtop"], distance=1)
        if previous is not None:
            depend(previous, brtop, 1)
        return DependenceGraph.from_parts(
            name or ("loop%04d" % seed), nodes, edges
        )

    # Partition the body: memory traffic scales with size.
    n_loads = max(1, int(round(size * rng.uniform(0.15, 0.3))))
    n_stores = max(1, int(round(size * rng.uniform(0.05, 0.15))))
    n_addr = max(1, (n_loads + n_stores + 1) // 2)
    n_compute = max(1, size - n_loads - n_stores - n_addr - 1)

    addr_nodes = [fresh("addr_gen") for _ in range(n_addr)]
    load_nodes = []
    for _ in range(n_loads):
        node = fresh("load_s")
        depend(rng.choice(addr_nodes), node, RESULT_LATENCY["addr_gen"])
        load_nodes.append(node)

    # Expression DAG: every compute op consumes 1-2 earlier values.
    values = list(load_nodes)
    compute_nodes = []
    for _ in range(n_compute):
        node = fresh(_weighted_choice(rng, _COMPUTE_MIX))
        for _input in range(rng.choice((1, 2, 2))):
            producer = rng.choice(values)
            depend(producer, node, RESULT_LATENCY[producer.opcode])
        values.append(node)
        compute_nodes.append(node)

    store_nodes = []
    for _ in range(n_stores):
        node = fresh("store_s")
        producer = rng.choice(values)
        depend(producer, node, RESULT_LATENCY[producer.opcode])
        depend(rng.choice(addr_nodes), node, RESULT_LATENCY["addr_gen"])
        store_nodes.append(node)

    # Loop control: brtop closes the iteration counter recurrence.
    brtop = fresh("brtop")
    depend(brtop, brtop, RESULT_LATENCY["brtop"], distance=1)
    anchor = rng.choice(store_nodes + compute_nodes[-1:] or load_nodes)
    depend(anchor, brtop, 1)

    # Optional data recurrence: an accumulator chain of FP adds, or a
    # first-order linear recurrence through a multiply-add.
    if compute_nodes and rng.random() < 0.35:
        head = rng.choice(compute_nodes)
        tail = rng.choice(compute_nodes)
        # Orient the pair so head (transitively) feeds tail before closing
        # the cycle with a loop-carried back edge tail -> head.
        if head != tail and _reaches(edges, tail.name, head.name):
            head, tail = tail, head
        if head != tail and not _reaches(edges, head.name, tail.name):
            depend(head, tail, RESULT_LATENCY[head.opcode])
        distance = rng.choice((1, 1, 1, 2))
        depend(tail, head, RESULT_LATENCY[tail.opcode], distance=distance)
    return DependenceGraph.from_parts(
        name or ("loop%04d" % seed), nodes, edges
    )


def _reaches(edges: Sequence[Dependence], src: str, dst: str) -> bool:
    """True when ``dst`` is reachable from ``src`` over the distance-0
    edges of ``edges``."""
    targets: Dict[str, List[str]] = {}
    for edge in edges:
        if edge.distance == 0:
            targets.setdefault(edge.src, []).append(edge.dst)
    stack = [src]
    seen = {src}
    while stack:
        node = stack.pop()
        if node == dst:
            return True
        for target in targets.get(node, ()):
            if target not in seen:
                seen.add(target)
                stack.append(target)
    return False


#: Memoized suites keyed by ``(count, seed)``.  Generating the full
#: 1327-loop population is pure but not free, and benchmarks ask for
#: the identical suite several times per process (one pass per
#: representation, differential cross-checks); the memo makes repeat
#: calls O(1).
#: Bounded so pathological sweeps over many sizes cannot hoard memory.
_SUITE_MEMO: Dict[Tuple[int, int], List[DependenceGraph]] = {}
_SUITE_MEMO_MAX = 8


def loop_suite(count: int = 1327, seed: int = 0) -> List[DependenceGraph]:
    """The benchmark suite: ``count`` seeded loops (default 1327).

    Pure and memoized: repeat calls with the same ``(count, seed)``
    return the *same graph objects* in a fresh list (callers may reorder
    or slice freely; graphs themselves are treated as immutable by every
    scheduler).  The suite's graphs share each distinct node and edge
    object.  Cross-process determinism is guaranteed by the seeded
    RNG, not the memo — see ``tests/test_workloads.py``.
    """
    key = (count, seed)
    suite = _SUITE_MEMO.get(key)
    if suite is None:
        if len(_SUITE_MEMO) >= _SUITE_MEMO_MAX:
            _SUITE_MEMO.clear()
        operations: Dict[Tuple[str, int], Operation] = {}
        dependences: Dict[Tuple[str, str, int, int], Dependence] = {}
        suite = [
            _generate_loop(
                seed * 100003 + index, None, operations, dependences
            )
            for index in range(count)
        ]
        _SUITE_MEMO[key] = suite
    return list(suite)


def graph_signature(graph: DependenceGraph) -> str:
    """Stable structural fingerprint of one dependence graph.

    Hashes the sorted operation and edge sets, so two graphs compare
    equal iff they have identical names, opcodes, and dependences —
    the currency of the suite-determinism tests and of corpus sharding
    audits.
    """
    ops = sorted(
        (op.name, op.opcode) for op in graph.operations()
    )
    edges = sorted(
        (edge.src, edge.dst, edge.latency, edge.distance)
        for edge in graph.edges()
    )
    payload = repr((graph.name, ops, edges))
    import hashlib

    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
