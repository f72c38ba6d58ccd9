"""Forbidden latency matrices and operation classes (paper Step 1).

Two operations X and Y scheduled at times ``tX`` and ``tY`` conflict iff
there is a resource ``i`` and usage cycles ``z`` in the usage set ``X_i`` and
``y`` in ``Y_i`` with ``tX + z == tY + y``.  The conflict happens exactly
when X issues ``y - z`` cycles after Y, so the *forbidden latency set* is::

    F[X][Y] = { y - z : resource i, z in X_i, y in Y_i }

The matrix of these sets is the complete characterization of the scheduling
constraints of a machine: two descriptions are interchangeable for any
scheduler iff they induce the same matrix (paper, Section 3).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Tuple

from repro.core.machine import MachineDescription

_EMPTY: FrozenSet[int] = frozenset()

#: A coverage instance: operation X may not issue f >= 0 cycles after Y.
Instance = Tuple[str, str, int]


def canonical_instance(op_x: str, op_y: str, latency: int) -> Instance:
    """Normalize a forbidden latency to its canonical non-negative instance.

    ``f in F[X][Y]`` and ``-f in F[Y][X]`` describe the same constraint, so
    negative latencies map to the mirrored pair and zero latencies are keyed
    on the lexicographically ordered pair.
    """
    if latency < 0:
        return (op_y, op_x, -latency)
    if latency == 0 and op_y < op_x:
        return (op_y, op_x, 0)
    return (op_x, op_y, latency)


class ForbiddenLatencyMatrix:
    """The forbidden latency sets of every ordered operation pair.

    Built with :meth:`from_machine`; equality compares the full matrices
    (operations and sets), which is the paper's notion of two machine
    descriptions *preserving scheduling constraints*.
    """

    __slots__ = ("operations", "_sets", "_self_feasible")

    def __init__(self, operations: Tuple[str, ...], sets: Dict[Tuple[str, str], FrozenSet[int]]):
        self.operations = tuple(operations)
        self._sets = {pair: latencies for pair, latencies in sets.items() if latencies}
        self._self_feasible: Dict[str, int] = {}

    @classmethod
    def from_machine(
        cls, machine: MachineDescription, budget=None
    ) -> "ForbiddenLatencyMatrix":
        """Compute the matrix of a machine description (paper Step 1).

        ``budget`` is an optional :class:`repro.resilience.budget.Budget`
        checked once per resource row (one unit per row's usage
        cross-product); exceeding it raises
        :class:`~repro.errors.BudgetExceeded` with phase
        ``"forbidden_matrix"``.
        """
        ops = machine.operation_names
        # Index usages by resource once: resource -> list of (op, cycles).
        by_resource: Dict[str, List[Tuple[str, FrozenSet[int]]]] = {}
        for op in ops:
            table = machine.table(op)
            for resource in table.resources:
                by_resource.setdefault(resource, []).append(
                    (op, table.usage_set(resource))
                )
        sets: Dict[Tuple[str, str], set] = {}
        for users in by_resource.values():
            if budget is not None:
                budget.checkpoint(
                    "forbidden_matrix", units=len(users),
                    progress=len(sets),
                )
            for op_x, cycles_x in users:
                for op_y, cycles_y in users:
                    bucket = sets.setdefault((op_x, op_y), set())
                    for z in cycles_x:
                        for y in cycles_y:
                            bucket.add(y - z)
        frozen = {pair: frozenset(v) for pair, v in sets.items()}
        return cls(ops, frozen)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def latencies(self, op_x: str, op_y: str) -> FrozenSet[int]:
        """F[X][Y]: distances at which X may not issue after Y."""
        return self._sets.get((op_x, op_y), _EMPTY)

    def is_forbidden(self, op_x: str, op_y: str, latency: int) -> bool:
        """True when X issuing ``latency`` cycles after Y is forbidden."""
        return latency in self._sets.get((op_x, op_y), _EMPTY)

    def pairs(self) -> Iterator[Tuple[str, str, FrozenSet[int]]]:
        """Iterate all ``(X, Y, F[X][Y])`` entries with non-empty sets."""
        for (op_x, op_y) in sorted(self._sets):
            yield op_x, op_y, self._sets[(op_x, op_y)]

    def instances(self) -> List[Instance]:
        """All canonical non-negative instances, sorted.

        By the symmetry ``f in F[X][Y]  <=>  -f in F[Y][X]`` this list
        carries the full information of the matrix; it is the coverage
        universe of the reduction's selection step.
        """
        result = set()
        for (op_x, op_y), latencies in self._sets.items():
            for f in latencies:
                result.add(canonical_instance(op_x, op_y, f))
        return sorted(result)

    @property
    def instance_count(self) -> int:
        """Number of canonical non-negative forbidden latencies."""
        return len(self.instances())

    @property
    def max_latency(self) -> int:
        """Largest forbidden latency magnitude (0 for an empty matrix)."""
        best = 0
        for latencies in self._sets.values():
            for f in latencies:
                if abs(f) > best:
                    best = abs(f)
        return best

    def min_self_feasible_ii(self, op: str) -> int:
        """Smallest II at which ``op`` issued every II cycles does not
        collide with itself, computed once per operation and kept.

        It collides exactly when some ``k * II`` (k >= 1) is one of its
        self-forbidden latencies; any II above the largest one is free.
        """
        feasible = self._self_feasible.get(op)
        if feasible is None:
            latencies = [f for f in self.latencies(op, op) if f > 0]
            feasible = 1
            while any(f % feasible == 0 for f in latencies):
                feasible += 1
            self._self_feasible[op] = feasible
        return feasible

    def uses_resources(self, op: str) -> bool:
        """True when ``op`` has any forbidden latency (i.e. uses resources)."""
        return bool(self._sets.get((op, op)))

    # ------------------------------------------------------------------
    # Operation classes
    # ------------------------------------------------------------------
    def same_class(self, op_x: str, op_y: str) -> bool:
        """Paper definition: F[X][Z] == F[Y][Z] and F[Z][X] == F[Z][Y]
        for every operation Z of the machine."""
        for op_z in self.operations:
            if self.latencies(op_x, op_z) != self.latencies(op_y, op_z):
                return False
            if self.latencies(op_z, op_x) != self.latencies(op_z, op_y):
                return False
        return True

    def operation_classes(self) -> List[Tuple[str, ...]]:
        """Partition operations into classes of interchangeable operations.

        Returns sorted tuples; the first member of each tuple is the class
        representative by convention.
        """
        classes: List[List[str]] = []
        for op in self.operations:
            for members in classes:
                if self.same_class(op, members[0]):
                    members.append(op)
                    break
            else:
                classes.append([op])
        return sorted(tuple(sorted(c)) for c in classes)

    # ------------------------------------------------------------------
    # Comparison
    # ------------------------------------------------------------------
    def differences(self, other: "ForbiddenLatencyMatrix") -> List[Tuple[str, str, FrozenSet[int], FrozenSet[int]]]:
        """Operation pairs whose forbidden sets differ between two matrices.

        Returns ``(X, Y, only_in_self, only_in_other)`` tuples; empty means
        the matrices are equivalent.  Operations present in only one matrix
        are reported with the other side empty.
        """
        result = []
        all_pairs = set(self._sets) | set(other._sets)
        for pair in sorted(all_pairs):
            mine = self._sets.get(pair, _EMPTY)
            theirs = other._sets.get(pair, _EMPTY)
            if mine != theirs:
                result.append((pair[0], pair[1], mine - theirs, theirs - mine))
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, ForbiddenLatencyMatrix):
            return NotImplemented
        return self._sets == other._sets

    def __hash__(self) -> int:  # pragma: no cover - matrices are not dict keys
        return hash(frozenset(self._sets.items()))

    def __repr__(self) -> str:
        return "ForbiddenLatencyMatrix(%d ops, %d instances, max latency %d)" % (
            len(self.operations),
            self.instance_count,
            self.max_latency,
        )


def collapse_to_classes(machine: MachineDescription) -> Tuple[MachineDescription, Dict[str, str]]:
    """Collapse a machine to one representative operation per class.

    Returns the collapsed description plus the ``operation -> representative``
    mapping.  Queries against the collapsed machine are exact because class
    members have identical forbidden latency rows and columns by definition.
    """
    matrix = ForbiddenLatencyMatrix.from_machine(machine)
    mapping: Dict[str, str] = {}
    representatives = []
    for members in matrix.operation_classes():
        rep = members[0]
        representatives.append(rep)
        for op in members:
            mapping[op] = rep
    collapsed = machine.with_operations(representatives, machine.name + "-classes")
    return collapsed, mapping
