"""Data dependence graphs for loop and basic-block scheduling.

Nodes are operation instances; each carries the *opcode* naming its
reservation table in the machine description.  Edges carry a ``latency``
(cycles the consumer must wait after the producer issues) and a
``distance`` (iteration distance for loop-carried dependences; 0 for
intra-iteration edges).  A modulo schedule with initiation interval II is
valid when for every edge ``time(dst) - time(src) >= latency - II *
distance``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import ScheduleError

# Operations and edges are slotted frozen values: a suite of 1327 loops
# holds tens of thousands of them, and graphs share equal ones.  Python
# 3.9 has no ``dataclass(slots=True)``, and a slot cannot carry a class
# default, so ``Dependence`` spells out its ``__init__``.  ``__reduce__``
# rebuilds through the constructor: the default slot pickling restores
# state with ``setattr``, which a frozen class refuses.


@dataclass(frozen=True)
class Operation:
    """A scheduled entity: a named instance of a machine opcode."""

    __slots__ = ("name", "opcode")

    name: str
    opcode: str

    def __reduce__(self):
        return self.__class__, (self.name, self.opcode)


@dataclass(frozen=True, init=False)
class Dependence:
    """A dependence edge ``src -> dst``.

    ``latency`` may be zero or even negative (as produced e.g. by
    IF-conversion bookkeeping); ``distance`` must be non-negative and is
    positive only for loop-carried dependences.
    """

    __slots__ = ("src", "dst", "latency", "distance", "kind")

    src: str
    dst: str
    latency: int
    distance: int
    kind: str

    def __init__(
        self,
        src: str,
        dst: str,
        latency: int,
        distance: int = 0,
        kind: str = "flow",
    ):
        setattr_ = object.__setattr__
        setattr_(self, "src", src)
        setattr_(self, "dst", dst)
        setattr_(self, "latency", latency)
        setattr_(self, "distance", distance)
        setattr_(self, "kind", kind)

    def __reduce__(self):
        return self.__class__, (
            self.src, self.dst, self.latency, self.distance, self.kind,
        )


_Adjacency = Tuple[Dict[str, List[Dependence]], Dict[str, List[Dependence]]]


class DependenceGraph:
    """A dependence graph with loop-carried distances.

    The graph stores its operation table and its edge list, nothing
    else.  Operations and edges are immutable values, so graphs may
    share them (:func:`~repro.workloads.loopgen.loop_suite` does).
    Successor and predecessor lists are built on the first call that
    needs them and dropped by the next add.

    Examples
    --------
    >>> g = DependenceGraph("dot-product")
    >>> g.add_operation("load1", "mem")
    Operation(name='load1', opcode='mem')
    >>> _ = g.add_operation("mac", "fmul")
    >>> g.add_dependence("load1", "mac", latency=2)
    Dependence(src='load1', dst='mac', latency=2, distance=0, kind='flow')
    >>> _ = g.add_dependence("mac", "mac", latency=3, distance=1)  # recurrence
    >>> g.num_operations
    2
    """

    def __init__(self, name: str = "loop"):
        self.name = name
        self._operations: Dict[str, Operation] = {}
        self._edges: List[Dependence] = []
        self._adjacency: Optional[_Adjacency] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_parts(
        cls,
        name: str,
        operations: Iterable[Operation],
        dependences: Iterable[Dependence],
    ) -> "DependenceGraph":
        """A graph of the given operations and edges, in order.

        The objects are stored, not copied, so graphs built from one
        pool share them.  Checks and errors are those of
        :meth:`add_operation` and :meth:`add_dependence`.
        """
        graph = cls(name)
        for op in operations:
            graph._insert_operation(op)
        for edge in dependences:
            graph._insert_dependence(edge)
        return graph

    def add_operation(self, name: str, opcode: str) -> Operation:
        """Add a node; raises on duplicate names."""
        return self._insert_operation(Operation(name, opcode))

    def add_dependence(
        self,
        src: str,
        dst: str,
        latency: int,
        distance: int = 0,
        kind: str = "flow",
    ) -> Dependence:
        """Add an edge; endpoints must already exist."""
        return self._insert_dependence(
            Dependence(src, dst, latency, distance, kind)
        )

    def _insert_operation(self, op: Operation) -> Operation:
        if op.name in self._operations:
            raise ScheduleError("duplicate operation %r" % op.name)
        self._operations[op.name] = op
        self._adjacency = None
        return op

    def _insert_dependence(self, edge: Dependence) -> Dependence:
        for endpoint in (edge.src, edge.dst):
            if endpoint not in self._operations:
                raise ScheduleError("unknown operation %r" % endpoint)
        if edge.distance < 0:
            raise ScheduleError("dependence distance must be >= 0")
        self._edges.append(edge)
        self._adjacency = None
        return edge

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_operations(self) -> int:
        return len(self._operations)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def operations(self) -> List[Operation]:
        """All operations in insertion order."""
        return list(self._operations.values())

    def operation(self, name: str) -> Operation:
        try:
            return self._operations[name]
        except KeyError:
            raise ScheduleError("unknown operation %r" % name) from None

    def edges(self) -> Iterator[Dependence]:
        return iter(self._edges)

    def successors(self, name: str) -> List[Dependence]:
        """Outgoing edges of ``name``."""
        return list(self._adjacent()[0][name])

    def predecessors(self, name: str) -> List[Dependence]:
        """Incoming edges of ``name``."""
        return list(self._adjacent()[1][name])

    def _adjacent(self) -> _Adjacency:
        """``(successors, predecessors)`` of every operation, built from
        the edge list on first use."""
        if self._adjacency is None:
            succs: Dict[str, List[Dependence]] = {
                name: [] for name in self._operations
            }
            preds: Dict[str, List[Dependence]] = {
                name: [] for name in self._operations
            }
            for edge in self._edges:
                succs[edge.src].append(edge)
                preds[edge.dst].append(edge)
            self._adjacency = (succs, preds)
        return self._adjacency

    def opcodes(self) -> List[str]:
        """Opcode of every operation (with multiplicity)."""
        return [op.opcode for op in self._operations.values()]

    # ------------------------------------------------------------------
    # Analysis helpers
    # ------------------------------------------------------------------
    def is_acyclic(self) -> bool:
        """True when ignoring distances the intra-iteration edges (distance
        0) form a DAG — required of any real dependence graph."""
        return self.topological_order() is not None

    def topological_order(self) -> Optional[List[str]]:
        """Topological order over distance-0 edges, or None on a cycle.

        Every IMS loop runs this as MII's acyclicity test, so it works
        from the edge list and keeps no adjacency.
        """
        indegree = dict.fromkeys(self._operations, 0)
        targets: Dict[str, List[str]] = {}
        for edge in self._edges:
            if edge.distance == 0:
                indegree[edge.dst] += 1
                if edge.src in targets:
                    targets[edge.src].append(edge.dst)
                else:
                    targets[edge.src] = [edge.dst]
        ready = [name for name, deg in indegree.items() if deg == 0]
        order: List[str] = []
        while ready:
            name = ready.pop()
            order.append(name)
            for dst in targets.get(name, ()):
                indegree[dst] -= 1
                if indegree[dst] == 0:
                    ready.append(dst)
        if len(order) != len(self._operations):
            return None
        return order

    def validate(self) -> None:
        """Raise :class:`ScheduleError` on structural problems."""
        if not self._operations:
            raise ScheduleError("graph %r has no operations" % self.name)
        if not self.is_acyclic():
            raise ScheduleError(
                "graph %r has a zero-distance dependence cycle" % self.name
            )

    def critical_path_length(self) -> int:
        """Longest latency path over distance-0 edges (acyclic height)."""
        order = self.topological_order()
        if order is None:
            raise ScheduleError("graph %r is cyclic at distance 0" % self.name)
        preds = self._adjacent()[1]
        finish: Dict[str, int] = {}
        for name in order:
            start = 0
            for edge in preds[name]:
                if edge.distance == 0:
                    start = max(start, finish.get(edge.src, 0) + edge.latency)
            finish[name] = start
        return max(finish.values(), default=0)

    def verify_schedule(self, times: Dict[str, int], ii: Optional[int] = None) -> None:
        """Check that placement times satisfy every dependence.

        ``ii`` enables the modulo form ``t(dst) - t(src) >= latency - II *
        distance``; without it, loop-carried edges (distance > 0) are
        ignored, which is the acyclic (basic block) interpretation.
        """
        missing = [n for n in self._operations if n not in times]
        if missing:
            raise ScheduleError("unscheduled operations: %s" % missing[:5])
        for edge in self._edges:
            if ii is None:
                if edge.distance > 0:
                    continue
                slack = times[edge.dst] - times[edge.src] - edge.latency
            else:
                slack = (
                    times[edge.dst]
                    - times[edge.src]
                    - edge.latency
                    + ii * edge.distance
                )
            if slack < 0:
                raise ScheduleError(
                    "dependence %s->%s violated by %d cycles"
                    % (edge.src, edge.dst, -slack)
                )

    def __repr__(self) -> str:
        return "DependenceGraph(%r, %d ops, %d edges)" % (
            self.name,
            self.num_operations,
            self.num_edges,
        )


def chain(name: str, opcodes: Iterable[str], latency: int = 1) -> DependenceGraph:
    """Convenience: a straight-line chain of operations (tests/examples)."""
    graph = DependenceGraph(name)
    previous: Optional[str] = None
    for index, opcode in enumerate(opcodes):
        node = "n%d" % index
        graph.add_operation(node, opcode)
        if previous is not None:
            graph.add_dependence(previous, node, latency)
        previous = node
    return graph
