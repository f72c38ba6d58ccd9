"""A small machine description language (MDL).

The paper motivates expressing resource requirements "in terms close to
the actual hardware structure of the target machine" and generating the
compiler's internal description automatically.  This module provides the
textual interchange format for that workflow::

    # comment
    machine mips-r3000

    resources iu.if iu.rd iu.ex iu.multdiv

    operation int_alu
        iu.if: 0
        iu.rd: 1
        iu.ex: 2

    operation div
        iu.if: 0
        iu.rd: 1
        iu.multdiv: 2-35        # ranges expand to every cycle

    alternatives mov = mov.0 mov.1
    latency div 35          # optional result-latency metadata

Cycle lists accept integers, comma/space separation, and ``a-b`` ranges.
``loads`` / ``dumps`` round-trip every :class:`MachineDescription`.

Parsing happens in two layers so that static analysis can see *where*
every construct came from:

* :func:`parse` performs the lenient syntactic scan and returns a
  :class:`RawMachine` — the parsed structure annotated with 1-based
  source line numbers.  Only outright syntax errors raise here.
* :meth:`RawMachine.build` validates the structure semantically and
  produces the immutable :class:`MachineDescription`.  Semantic errors
  (negative cycles, undeclared resources, ...) raise :class:`ParseError`
  carrying the offending line and token.

``repro lint`` uses the raw layer to attach real source locations to its
diagnostics and to audit files that are syntactically fine but fail
semantic validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro._atomic import atomic_write_text
from repro.core.machine import MachineDescription
from repro.errors import MachineDescriptionError, ParseError


def _parse_cycles(
    text: str, line_no: int, source: Optional[str]
) -> List[int]:
    cycles: List[int] = []
    for chunk in text.replace(",", " ").split():
        if "-" in chunk[1:]:  # allow a leading minus only as an error path
            first_text, _, last_text = chunk.partition("-")
            try:
                first, last = int(first_text), int(last_text)
            except ValueError:
                raise ParseError(
                    "bad cycle range %r" % chunk,
                    line_no,
                    token=chunk,
                    source=source,
                )
            if last < first:
                raise ParseError(
                    "descending cycle range %r" % chunk,
                    line_no,
                    token=chunk,
                    source=source,
                )
            cycles.extend(range(first, last + 1))
        else:
            try:
                cycles.append(int(chunk))
            except ValueError:
                raise ParseError(
                    "bad cycle %r" % chunk,
                    line_no,
                    token=chunk,
                    source=source,
                )
    if not cycles:
        raise ParseError("empty cycle list", line_no, source=source)
    return cycles


@dataclass(frozen=True)
class RawUsage:
    """One ``(resource, cycle)`` usage with its source line."""

    resource: str
    cycle: int
    line: int


@dataclass
class RawOperation:
    """A parsed ``operation`` block with source locations."""

    name: str
    line: int
    usages: List[RawUsage] = field(default_factory=list)

    def usage_map(self) -> Dict[str, List[int]]:
        """The ``{resource: cycles}`` mapping used to build tables."""
        mapping: Dict[str, List[int]] = {}
        for usage in self.usages:
            mapping.setdefault(usage.resource, []).append(usage.cycle)
        return mapping


@dataclass
class RawMachine:
    """The lenient parse of one MDL document.

    Everything the text declared, in order, with 1-based line numbers.
    :meth:`build` turns it into a validated :class:`MachineDescription`;
    the lookup helpers (:meth:`operation_line`, :meth:`resource_line`,
    :meth:`usage_line`) let diagnostics point back into the source.
    """

    name: Optional[str] = None
    name_line: Optional[int] = None
    source: Optional[str] = None
    #: (resource name, declaration line) in declaration order; empty when
    #: the document has no ``resources`` directive.
    resource_decls: List[Tuple[str, int]] = field(default_factory=list)
    operations: Dict[str, RawOperation] = field(default_factory=dict)
    #: base -> (variant names, directive line)
    alternatives: Dict[str, Tuple[List[str], int]] = field(
        default_factory=dict
    )
    #: operation -> (latency value, directive line)
    latencies: Dict[str, Tuple[int, int]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Source-location lookups (used by ``repro lint``)
    # ------------------------------------------------------------------
    def operation_line(self, operation: str) -> Optional[int]:
        """Line of an ``operation`` header, or ``None`` if unknown."""
        raw = self.operations.get(operation)
        return raw.line if raw is not None else None

    def resource_line(self, resource: str) -> Optional[int]:
        """Line where a resource was declared or first used."""
        for name, line in self.resource_decls:
            if name == resource:
                return line
        for raw in self.operations.values():
            for usage in raw.usages:
                if usage.resource == resource:
                    return usage.line
        return None

    def usage_line(
        self, operation: str, resource: str, cycle: int
    ) -> Optional[int]:
        """Line of the usage declaring ``resource: cycle``, if any."""
        raw = self.operations.get(operation)
        if raw is None:
            return None
        for usage in raw.usages:
            if usage.resource == resource and usage.cycle == cycle:
                return usage.line
        return None

    def iter_usages(self):
        """Yield every ``(operation, resource, cycle, line)`` quadruple."""
        for op in sorted(self.operations):
            for usage in self.operations[op].usages:
                yield op, usage.resource, usage.cycle, usage.line

    # ------------------------------------------------------------------
    # Semantic validation
    # ------------------------------------------------------------------
    def build(self) -> MachineDescription:
        """Validate and materialize the :class:`MachineDescription`.

        Raises :class:`ParseError` with the offending line and token on
        any semantic defect.
        """
        if self.name is None:
            raise ParseError(
                "missing 'machine <name>' header", source=self.source
            )
        if not self.operations:
            raise ParseError("no operations defined", source=self.source)

        seen_decls: Dict[str, int] = {}
        for resource, line in self.resource_decls:
            if resource in seen_decls:
                raise ParseError(
                    "duplicate resource %r (first declared on line %d)"
                    % (resource, seen_decls[resource]),
                    line,
                    token=resource,
                    source=self.source,
                )
            seen_decls[resource] = line

        declared = set(seen_decls)
        for op, resource, cycle, line in self.iter_usages():
            if cycle < 0:
                raise ParseError(
                    "negative cycle %d for resource %r of operation %r"
                    % (cycle, resource, op),
                    line,
                    token=str(cycle),
                    source=self.source,
                )
            if declared and resource not in declared:
                raise ParseError(
                    "operation %r uses undeclared resource %r"
                    % (op, resource),
                    line,
                    token=resource,
                    source=self.source,
                )

        for base, (variants, line) in self.alternatives.items():
            for variant in variants:
                if variant not in self.operations:
                    raise ParseError(
                        "alternative %r of %r is not an operation"
                        % (variant, base),
                        line,
                        token=variant,
                        source=self.source,
                    )

        for op, (value, line) in self.latencies.items():
            if op not in self.operations and op not in self.alternatives:
                raise ParseError(
                    "latency given for unknown operation %r" % op,
                    line,
                    token=op,
                    source=self.source,
                )
            if value < 0:
                raise ParseError(
                    "latency of %r must be non-negative" % op,
                    line,
                    token=str(value),
                    source=self.source,
                )

        try:
            return MachineDescription(
                self.name,
                {op: raw.usage_map() for op, raw in self.operations.items()},
                resources=(
                    [name for name, _ in self.resource_decls]
                    if self.resource_decls
                    else None
                ),
                alternatives={
                    base: variants
                    for base, (variants, _) in self.alternatives.items()
                },
                latencies={
                    op: value for op, (value, _) in self.latencies.items()
                },
            )
        except MachineDescriptionError as exc:
            raise ParseError(
                "invalid machine: %s" % exc, source=self.source
            ) from exc


def parse(text: str, source: Optional[str] = None) -> RawMachine:
    """Scan MDL text into a :class:`RawMachine` (lenient, syntax only).

    ``source`` names the originating file for error messages and is
    recorded on the result.  Semantic validation is deferred to
    :meth:`RawMachine.build`.
    """
    raw = RawMachine(source=source)
    current_op: Optional[RawOperation] = None

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        keyword = words[0]
        if keyword == "machine":
            if len(words) != 2:
                raise ParseError(
                    "machine takes one name", line_no, source=source
                )
            raw.name = words[1]
            raw.name_line = line_no
            current_op = None
        elif keyword == "resources":
            if len(words) < 2:
                raise ParseError(
                    "resources needs at least one name",
                    line_no,
                    source=source,
                )
            raw.resource_decls.extend(
                (name, line_no) for name in words[1:]
            )
            current_op = None
        elif keyword == "operation":
            if len(words) != 2:
                raise ParseError(
                    "operation takes one name", line_no, source=source
                )
            op = words[1]
            if op in raw.operations:
                raise ParseError(
                    "duplicate operation %r (first defined on line %d)"
                    % (op, raw.operations[op].line),
                    line_no,
                    token=op,
                    source=source,
                )
            current_op = RawOperation(op, line_no)
            raw.operations[op] = current_op
        elif keyword == "latency":
            if len(words) != 3:
                raise ParseError(
                    "latency takes 'latency <op> <n>'", line_no,
                    source=source,
                )
            try:
                value = int(words[2])
            except ValueError:
                raise ParseError(
                    "bad latency %r" % words[2],
                    line_no,
                    token=words[2],
                    source=source,
                )
            raw.latencies[words[1]] = (value, line_no)
            current_op = None
        elif keyword == "alternatives":
            rest = line[len("alternatives"):].strip()
            base, eq, variants = rest.partition("=")
            if not eq:
                raise ParseError(
                    "alternatives needs 'base = v1 v2 ...'",
                    line_no,
                    source=source,
                )
            base = base.strip()
            names = variants.split()
            if not base or not names:
                raise ParseError(
                    "alternatives needs a base and variants",
                    line_no,
                    source=source,
                )
            raw.alternatives[base] = (names, line_no)
            current_op = None
        elif ":" in line:
            if current_op is None:
                raise ParseError(
                    "usage line outside an operation", line_no,
                    source=source,
                )
            resource, _, cycles_text = line.partition(":")
            resource = resource.strip()
            if not resource:
                raise ParseError(
                    "missing resource name", line_no, source=source
                )
            for cycle in _parse_cycles(cycles_text, line_no, source):
                current_op.usages.append(
                    RawUsage(resource, cycle, line_no)
                )
        else:
            raise ParseError(
                "unrecognized line %r" % line,
                line_no,
                token=keyword,
                source=source,
            )

    return raw


def parse_file(path: str) -> RawMachine:
    """Scan an MDL file from disk into a :class:`RawMachine`."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse(handle.read(), source=path)


def loads(text: str) -> MachineDescription:
    """Parse MDL text into a :class:`MachineDescription`."""
    return parse(text).build()


def _format_cycles(cycles: Tuple[int, ...]) -> str:
    """Render a sorted cycle tuple compactly, collapsing runs to ranges."""
    parts: List[str] = []
    run_start = run_end = None
    for cycle in cycles:
        if run_start is None:
            run_start = run_end = cycle
        elif cycle == run_end + 1:
            run_end = cycle
        else:
            parts.append(
                str(run_start)
                if run_start == run_end
                else "%d-%d" % (run_start, run_end)
            )
            run_start = run_end = cycle
    if run_start is not None:
        parts.append(
            str(run_start)
            if run_start == run_end
            else "%d-%d" % (run_start, run_end)
        )
    return " ".join(parts)


def dumps(machine: MachineDescription) -> str:
    """Serialize a machine description to MDL text (parse round-trips)."""
    lines = ["machine %s" % machine.name, ""]
    if machine.resources:
        lines.append("resources " + " ".join(machine.resources))
    for op, table in machine.items():
        lines.append("")
        lines.append("operation %s" % op)
        for resource in table.resources:
            cycles = tuple(sorted(table.usage_set(resource)))
            lines.append("    %s: %s" % (resource, _format_cycles(cycles)))
    groups = machine.alternatives
    if groups:
        lines.append("")
        for base in sorted(groups):
            lines.append(
                "alternatives %s = %s" % (base, " ".join(groups[base]))
            )
    latencies = machine.latencies
    if latencies:
        lines.append("")
        for op in sorted(latencies):
            lines.append("latency %s %d" % (op, latencies[op]))
    return "\n".join(lines) + "\n"


def machine_digest(machine: MachineDescription) -> str:
    """SHA-256 of the canonical MDL serialization of a description.

    The same recipe the reduction cache keys on: canonical MDL text, so
    structurally identical descriptions share a digest regardless of how
    they were built.
    """
    import hashlib

    return hashlib.sha256(dumps(machine).encode("utf-8")).hexdigest()


def load_file(path: str) -> MachineDescription:
    """Parse an MDL file from disk."""
    return parse_file(path).build()


def dump_file(machine: MachineDescription, path: str) -> None:
    """Write a machine description to an MDL file (atomically)."""
    atomic_write_text(path, dumps(machine))
