"""Machine descriptions: named collections of reservation tables.

A :class:`MachineDescription` maps every operation (or operation class) of a
target machine to its :class:`~repro.core.reservation.ReservationTable`.  It
also records *alternative operation* groups: the paper (Section 3) removes
alternative resource usages up front by splitting an operation ``X`` that may
use either of two datapaths into two operations ``X.0`` and ``X.1``, each
with fixed usages; the group mapping lets the contention query module's
``check_with_alternatives`` try each variant in turn.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.reservation import ReservationTable
from repro.errors import MachineDescriptionError

ALTERNATIVE_SEPARATOR = "."


def _as_table(value) -> ReservationTable:
    if isinstance(value, ReservationTable):
        return value
    if isinstance(value, Mapping):
        return ReservationTable(value)
    raise MachineDescriptionError(
        "operation tables must be ReservationTable or mapping, got %r" % (value,)
    )


class MachineDescription:
    """An immutable machine description.

    Parameters
    ----------
    name:
        Human-readable machine name (e.g. ``"cydra5"``).
    operations:
        Mapping from operation name to reservation table (either a
        :class:`ReservationTable` or a ``{resource: cycles}`` mapping).
    resources:
        Optional explicit resource ordering.  Resources referenced by
        operations but absent from this list are an error; resources listed
        but never used are kept (they model physical rows that impose no
        constraint).  When omitted, the sorted set of used resources is used.
    alternatives:
        Optional mapping from a base operation name to the list of
        alternative operation names implementing it.  Every listed name must
        be an operation of this machine.
    latencies:
        Optional result-latency metadata: operation (or alternative-group
        base) name to producer latency in cycles.  Purely informational —
        resource semantics live in the reservation tables — but carried,
        compared, and serialized with the description, as real machine
        description files do.

    Examples
    --------
    >>> md = MachineDescription(
    ...     "toy", {"A": {"alu": [0]}, "B": {"alu": [0], "mul": [0, 1]}}
    ... )
    >>> md.operation_names
    ('A', 'B')
    """

    __slots__ = (
        "name",
        "_operations",
        "_resources",
        "_alternatives",
        "_latencies",
        "_hash",
    )

    def __init__(
        self,
        name: str,
        operations: Mapping[str, object],
        resources: Optional[Sequence[str]] = None,
        alternatives: Optional[Mapping[str, Sequence[str]]] = None,
        latencies: Optional[Mapping[str, int]] = None,
    ):
        if not operations:
            raise MachineDescriptionError("a machine needs at least one operation")
        self.name = str(name)
        self._operations: Dict[str, ReservationTable] = {
            str(op): _as_table(table) for op, table in operations.items()
        }

        used = set()
        for table in self._operations.values():
            used.update(table.resources)
        if resources is None:
            self._resources: Tuple[str, ...] = tuple(sorted(used))
        else:
            declared = tuple(str(r) for r in resources)
            if len(set(declared)) != len(declared):
                raise MachineDescriptionError("duplicate resource names")
            missing = used - set(declared)
            if missing:
                raise MachineDescriptionError(
                    "operations use undeclared resources: %s" % sorted(missing)
                )
            self._resources = declared

        alt: Dict[str, Tuple[str, ...]] = {}
        for base, variants in (alternatives or {}).items():
            names = tuple(str(v) for v in variants)
            if not names:
                raise MachineDescriptionError(
                    "alternative group %r is empty" % (base,)
                )
            for v in names:
                if v not in self._operations:
                    raise MachineDescriptionError(
                        "alternative %r of %r is not an operation" % (v, base)
                    )
            alt[str(base)] = names
        self._alternatives = alt

        lat: Dict[str, int] = {}
        for op, value in (latencies or {}).items():
            op = str(op)
            if op not in self._operations and op not in alt:
                raise MachineDescriptionError(
                    "latency given for unknown operation %r" % op
                )
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise MachineDescriptionError(
                    "latency of %r must be a non-negative int" % op
                )
            lat[op] = value
        self._latencies = lat
        self._hash = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def operation_names(self) -> Tuple[str, ...]:
        """All operation names in sorted order."""
        return tuple(sorted(self._operations))

    @property
    def resources(self) -> Tuple[str, ...]:
        """Resource rows, in declaration (or sorted) order."""
        return self._resources

    @property
    def alternatives(self) -> Dict[str, Tuple[str, ...]]:
        """Copy of the alternative-operation group mapping."""
        return dict(self._alternatives)

    @property
    def latencies(self) -> Dict[str, int]:
        """Copy of the result-latency metadata."""
        return dict(self._latencies)

    def latency_of(
        self, operation: str, default: Optional[int] = None
    ) -> Optional[int]:
        """Result latency of an operation, resolving alternative groups.

        Exact entries win; a variant like ``mov.1`` falls back to its
        base group's entry; otherwise ``default``.
        """
        if operation in self._latencies:
            return self._latencies[operation]
        for base, variants in self._alternatives.items():
            if operation in variants and base in self._latencies:
                return self._latencies[base]
        if operation not in self._operations and not any(
            operation == base for base in self._alternatives
        ):
            raise MachineDescriptionError(
                "unknown operation %r on machine %r" % (operation, self.name)
            )
        return default

    @property
    def num_operations(self) -> int:
        return len(self._operations)

    @property
    def num_resources(self) -> int:
        return len(self._resources)

    @property
    def total_usages(self) -> int:
        """Total (resource, cycle) usages across all operations."""
        return sum(t.usage_count for t in self._operations.values())

    @property
    def max_table_length(self) -> int:
        """Longest reservation table, in cycles."""
        return max(t.length for t in self._operations.values())

    def table(self, operation: str) -> ReservationTable:
        """Reservation table of ``operation`` (raises on unknown names)."""
        try:
            return self._operations[operation]
        except KeyError:
            raise MachineDescriptionError(
                "unknown operation %r on machine %r" % (operation, self.name)
            ) from None

    def __contains__(self, operation: str) -> bool:
        return operation in self._operations

    def items(self) -> Iterable[Tuple[str, ReservationTable]]:
        """Iterate ``(operation, table)`` pairs in sorted name order."""
        for op in sorted(self._operations):
            yield op, self._operations[op]

    def alternatives_of(self, operation: str) -> Tuple[str, ...]:
        """Alternative operations implementing ``operation``.

        For an operation with no registered alternatives this is the
        singleton of the operation itself.
        """
        if operation in self._alternatives:
            return self._alternatives[operation]
        if operation in self._operations:
            return (operation,)
        raise MachineDescriptionError(
            "unknown operation %r on machine %r" % (operation, self.name)
        )

    # ------------------------------------------------------------------
    # Derived descriptions
    # ------------------------------------------------------------------
    def with_operations(
        self, names: Iterable[str], name: str = None
    ) -> "MachineDescription":
        """Sub-machine restricted to the given operations.

        Resource ordering is preserved; alternative groups are restricted to
        surviving variants and dropped when empty.
        """
        wanted = set(names)
        unknown = wanted - set(self._operations)
        if unknown:
            raise MachineDescriptionError("unknown operations: %s" % sorted(unknown))
        ops = {op: self._operations[op] for op in wanted}
        alt = {}
        for base, variants in self._alternatives.items():
            kept = tuple(v for v in variants if v in wanted)
            if kept:
                alt[base] = kept
        lat = {
            op: value
            for op, value in self._latencies.items()
            if op in wanted or op in alt
        }
        return MachineDescription(
            name or (self.name + "-subset"), ops, self._resources, alt, lat
        )

    def renamed(self, name: str) -> "MachineDescription":
        """Copy of this description under a new machine name."""
        return MachineDescription(
            name,
            self._operations,
            self._resources,
            self._alternatives,
            self._latencies,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, MachineDescription):
            return NotImplemented
        return (
            self._operations == other._operations
            and self._resources == other._resources
            and self._alternatives == other._alternatives
            and self._latencies == other._latencies
        )

    def __hash__(self) -> int:
        # Exactly what ``__eq__`` compares (never the name), computed once.
        if self._hash is None:
            self._hash = hash((
                frozenset(self._operations.items()),
                self._resources,
                frozenset(self._alternatives.items()),
                frozenset(self._latencies.items()),
            ))
        return self._hash

    def __reduce__(self):
        # Pickle through the constructor, never the cached hash (string
        # hashes differ between processes).
        return MachineDescription, (
            self.name,
            self._operations,
            self._resources,
            self._alternatives,
            self._latencies,
        )

    def __repr__(self) -> str:
        return "MachineDescription(%r, %d ops, %d resources, %d usages)" % (
            self.name,
            self.num_operations,
            self.num_resources,
            self.total_usages,
        )


class MachineBuilder:
    """Incremental builder for :class:`MachineDescription`.

    Supports the paper's *alternative usage* preprocessing: an operation
    declared with several usage variants is expanded into one operation per
    variant (named ``base.0``, ``base.1``, ...) and registered as an
    alternative group.

    Examples
    --------
    Each declaring method returns the builder, so calls chain:

    >>> md = (
    ...     MachineBuilder("toy")
    ...     .operation("add", {"alu": [0]})
    ...     .operation_with_alternatives("move", [{"alu": [0]}, {"mul": [0]}])
    ...     .build()
    ... )
    >>> md.alternatives_of("move")
    ('move.0', 'move.1')
    """

    def __init__(self, name: str):
        self.name = name
        self._resources: List[str] = []
        self._seen_resources = set()
        self._operations: Dict[str, object] = {}
        self._alternatives: Dict[str, List[str]] = {}
        self._latencies: Dict[str, int] = {}

    def resource(self, *names: str) -> "MachineBuilder":
        """Declare resources in order (idempotent per name)."""
        for n in names:
            if n not in self._seen_resources:
                self._seen_resources.add(n)
                self._resources.append(n)
        return self

    def operation(
        self,
        name: str,
        usages: Mapping[str, Iterable[int]],
        latency: Optional[int] = None,
    ) -> "MachineBuilder":
        """Declare an operation with fixed resource usages."""
        if name in self._operations:
            raise MachineDescriptionError("duplicate operation %r" % name)
        table = _as_table(usages)
        self.resource(*table.resources)
        self._operations[name] = table
        if latency is not None:
            self._latencies[name] = latency
        return self

    def latency(self, name: str, value: int) -> "MachineBuilder":
        """Attach result-latency metadata to an operation or group."""
        self._latencies[name] = value
        return self

    def operation_with_alternatives(
        self,
        base: str,
        variants: Sequence[Mapping[str, Iterable[int]]],
        latency: Optional[int] = None,
    ) -> "MachineBuilder":
        """Declare an operation with alternative resource usages.

        One operation per variant is created (``base.i``) and the group is
        recorded so schedulers can use ``check_with_alternatives``.
        """
        if not variants:
            raise MachineDescriptionError("operation %r has no variants" % base)
        if len(variants) == 1:
            self.operation(base, variants[0], latency=latency)
            return self
        names = []
        for i, usages in enumerate(variants):
            name = "%s%s%d" % (base, ALTERNATIVE_SEPARATOR, i)
            self.operation(name, usages)
            names.append(name)
        self._alternatives[base] = names
        if latency is not None:
            self._latencies[base] = latency
        return self

    def build(self) -> MachineDescription:
        """Finalize into an immutable :class:`MachineDescription`."""
        return MachineDescription(
            self.name,
            self._operations,
            self._resources,
            self._alternatives,
            self._latencies,
        )
