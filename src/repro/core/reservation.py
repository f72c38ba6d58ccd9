"""Reservation tables and usage sets.

A *reservation table* describes the resource requirements of one operation:
its rows are machine resources and its columns are cycles relative to the
operation's issue time.  An entry at (resource ``r``, cycle ``c``) means the
operation reserves ``r`` for exclusive use during its ``c``-th cycle.

Following the paper (Section 3), the table is stored as *usage sets*: for
each resource, the set of cycles in which the operation uses it.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Tuple

from repro.errors import MachineDescriptionError


class ReservationTable:
    """Immutable per-operation reservation table.

    Parameters
    ----------
    usages:
        Mapping from resource name to an iterable of cycle indices.
        Cycles must be non-negative integers.  Resources mapped to an
        empty cycle set are dropped.

    Examples
    --------
    >>> rt = ReservationTable({"alu": [0], "bus": [0, 3]})
    >>> rt.usage_count
    3
    >>> sorted(rt.usage_set("bus"))
    [0, 3]
    """

    __slots__ = ("_usages", "_hash", "_usage_list", "_folds")

    def __init__(self, usages: Mapping[str, Iterable[int]]):
        table: Dict[str, frozenset] = {}
        for resource, cycles in usages.items():
            cycle_set = frozenset(cycles)
            if not cycle_set:
                continue
            for cycle in cycle_set:
                if not isinstance(cycle, int) or isinstance(cycle, bool):
                    raise MachineDescriptionError(
                        "cycle %r of resource %r is not an int" % (cycle, resource)
                    )
                if cycle < 0:
                    raise MachineDescriptionError(
                        "cycle %d of resource %r is negative" % (cycle, resource)
                    )
            table[str(resource)] = cycle_set
        self._usages = table
        self._hash = None
        self._usage_list = None
        self._folds = None

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[str, int]]) -> "ReservationTable":
        """Build a table from an iterable of ``(resource, cycle)`` pairs."""
        accum: Dict[str, set] = {}
        for resource, cycle in pairs:
            accum.setdefault(resource, set()).add(cycle)
        return cls(accum)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def resources(self) -> Tuple[str, ...]:
        """Resources used by this operation, in sorted order."""
        return tuple(sorted(self._usages))

    @property
    def usage_count(self) -> int:
        """Total number of (resource, cycle) usages in the table."""
        return sum(len(cycles) for cycles in self._usages.values())

    @property
    def length(self) -> int:
        """Number of columns: one past the latest cycle used (0 if empty)."""
        if not self._usages:
            return 0
        return 1 + max(max(cycles) for cycles in self._usages.values())

    @property
    def is_empty(self) -> bool:
        """True when the operation uses no resources at all."""
        return not self._usages

    def usage_set(self, resource: str) -> frozenset:
        """Set of cycles in which ``resource`` is used (empty if unused)."""
        return self._usages.get(resource, frozenset())

    def uses(self, resource: str, cycle: int) -> bool:
        """True when ``resource`` is reserved at ``cycle``."""
        return cycle in self._usages.get(resource, frozenset())

    def iter_usages(self) -> Iterator[Tuple[str, int]]:
        """Iterate every ``(resource, cycle)`` usage in deterministic order.

        The sorted usage tuple is built on first use and kept: the table
        is immutable, and schedulers walk the same tables many times.
        """
        usages = self._usage_list
        if usages is None:
            usages = self._usage_list = tuple(
                (resource, cycle)
                for resource in sorted(self._usages)
                for cycle in sorted(self._usages[resource])
            )
        return iter(usages)

    def folded(
        self, ii: int, alignment: int
    ) -> Tuple[Tuple[Tuple[str, int], ...], int]:
        """The usages folded onto an MRT of ``ii`` slots for an issue at
        slot ``alignment`` (``0 <= alignment < ii``).

        Returns ``(slots, first_repeat)``: the ``(resource, (alignment +
        cycle) % ii)`` tuple in :meth:`iter_usages` order, and the index
        of its first slot equal to an earlier one (``len(slots)`` when
        none is).  Built on first use per ``(ii, alignment)`` and kept.
        """
        folds = self._folds
        if folds is None:
            folds = self._folds = {}
        by_alignment = folds.get(ii)
        if by_alignment is None:
            by_alignment = folds[ii] = [None] * ii
        fold = by_alignment[alignment]
        if fold is None:
            slots = tuple(
                (resource, (alignment + cycle) % ii)
                for resource, cycle in self.iter_usages()
            )
            first_repeat = len(slots)
            seen = set()
            for index, slot in enumerate(slots):
                if slot in seen:
                    first_repeat = index
                    break
                seen.add(slot)
            fold = by_alignment[alignment] = (slots, first_repeat)
        return fold

    def cycles_used(self) -> frozenset:
        """Set of cycles in which at least one resource is used."""
        result = set()
        for cycles in self._usages.values():
            result.update(cycles)
        return frozenset(result)

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def shifted(self, offset: int) -> "ReservationTable":
        """Return a copy with every usage moved ``offset`` cycles later."""
        return ReservationTable(
            {r: [c + offset for c in cycles] for r, cycles in self._usages.items()}
        )

    def reversed(self) -> "ReservationTable":
        """Time-reverse the table (used to build reverse automata).

        The usage at cycle ``c`` moves to cycle ``length - 1 - c``.
        """
        last = self.length - 1
        return ReservationTable(
            {r: [last - c for c in cycles] for r, cycles in self._usages.items()}
        )

    def merged(self, other: "ReservationTable") -> "ReservationTable":
        """Union of two tables (used when composing usage patterns)."""
        accum = {r: set(cycles) for r, cycles in self._usages.items()}
        for resource, cycles in other._usages.items():
            accum.setdefault(resource, set()).update(cycles)
        return ReservationTable(accum)

    def restricted(self, resources: Iterable[str]) -> "ReservationTable":
        """Keep only usages of the given resources."""
        wanted = set(resources)
        return ReservationTable(
            {r: cycles for r, cycles in self._usages.items() if r in wanted}
        )

    def conflicts_at(self, other: "ReservationTable", distance: int) -> bool:
        """True when ``other`` issued ``distance`` cycles after ``self``
        collides with ``self`` on some shared resource.

        ``distance`` may be negative (``other`` issues earlier).
        """
        for resource, cycles in self._usages.items():
            other_cycles = other._usages.get(resource)
            if not other_cycles:
                continue
            for c in cycles:
                if (c - distance) in other_cycles:
                    return True
        return False

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, ReservationTable):
            return NotImplemented
        return self._usages == other._usages

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._usages.items()))
        return self._hash

    def __reduce__(self):
        # Pickle the usages only; the hash, the usage tuple and the folds
        # are rebuilt lazily (string hashes differ between processes).
        return ReservationTable, (self._usages,)

    def __repr__(self) -> str:
        body = ", ".join(
            "%s: %s" % (r, sorted(self._usages[r])) for r in sorted(self._usages)
        )
        return "ReservationTable({%s})" % body

    def render(self, resources: Iterable[str] = None, mark: str = "X") -> str:
        """ASCII-render the table, one row per resource.

        Parameters
        ----------
        resources:
            Row order; defaults to the table's own (sorted) resources.
        mark:
            Character used for a reserved entry.
        """
        rows = list(resources) if resources is not None else list(self.resources)
        width = self.length
        name_width = max((len(r) for r in rows), default=0)
        lines = []
        header = " " * name_width + " |" + "".join(
            str(c % 10) for c in range(width)
        )
        lines.append(header)
        for resource in rows:
            cells = "".join(
                mark if self.uses(resource, c) else "." for c in range(width)
            )
            lines.append(resource.ljust(name_width) + " |" + cells)
        return "\n".join(lines)
