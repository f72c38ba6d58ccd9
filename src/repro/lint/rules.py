"""The built-in lint rules.

Each rule enforces one consequence of the paper's theory (the docstring
of every check names the section it is grounded in; ``docs/lint.md``
carries the full citations).  Default severities follow intent:

``error``
    The description is wrong — it cannot mean what its author intended
    (broken equivalence, ill-formed cycles).
``warning``
    Almost certainly a defect of the description itself (rows that
    constrain nothing, operations that constrain nothing, alternatives
    that can never help).
``info``
    The description is correct but not minimal — exactly the kind of
    redundancy the paper's reduction exists to remove.  A *physical*
    description is expected to trigger these; they become actionable
    when auditing a description meant to be reduced.
"""

from __future__ import annotations

import re

from repro.analysis.redundancy import redundant_resources
from repro.core.elementary import usages_compatible
from repro.core.witness import find_witness
from repro.lint.registry import finding, rule

#: Synthesized resource rows follow the ``q<N>`` naming convention of
#: :func:`repro.core.reduce.machine_from_selection`.
_SYNTHESIZED_ROW = re.compile(r"^q\d+$")

#: Default bound for the ``cycle-overflow`` rule (option ``max_cycle``).
DEFAULT_MAX_CYCLE = 512

#: Default cap on reported equivalence mismatches (option
#: ``mismatch_limit``).
DEFAULT_MISMATCH_LIMIT = 20


@rule(
    "unused-resource",
    severity="warning",
    summary="a declared resource row is used by no operation",
)
def _check_unused_resource(ctx):
    """A row with an empty usage set generates no forbidden latency
    (Section 3): it cannot affect any scheduling decision."""
    machine = ctx.machine
    used = set()
    for op in machine.operation_names:
        used.update(machine.table(op).resources)
    for resource in machine.resources:
        if resource not in used:
            yield finding(
                "resource %r is declared but used by no operation; it"
                " imposes no scheduling constraint" % resource,
                location=ctx.locate(resource=resource),
                hint="delete the row, or add the missing usages",
            )


@rule(
    "empty-operation",
    severity="warning",
    summary="an operation reserves no resources at all",
)
def _check_empty_operation(ctx):
    """Any operation that uses at least one resource forbids latency 0
    against itself (z = y gives y - z = 0 in Section 3's formula).  An
    operation missing that self-conflict reserves nothing: a scheduler
    may issue unboundedly many copies of it in one cycle."""
    machine = ctx.machine
    for op in machine.operation_names:
        if machine.table(op).is_empty:
            yield finding(
                "operation %r uses no resources, so it does not even"
                " forbid latency 0 against itself; unboundedly many"
                " copies can issue in one cycle" % op,
                location=ctx.locate(operation=op),
                hint="reserve at least an issue slot, or drop the"
                " operation",
            )


@rule(
    "negative-cycle",
    severity="error",
    summary="a usage has a negative cycle index",
    scope="usages",
)
def _check_negative_cycle(ctx):
    """Reservation tables index cycles relative to issue time; a
    negative index is meaningless (and rejected by
    :class:`~repro.core.reservation.ReservationTable`)."""
    for op, resource, cycle, line in ctx.usage_items():
        if cycle < 0:
            yield finding(
                "operation %r uses resource %r at negative cycle %d"
                % (op, resource, cycle),
                location=ctx.locate(
                    operation=op, resource=resource, cycle=cycle, line=line
                ),
                hint="cycles are offsets from the issue cycle and must"
                " be >= 0",
            )


@rule(
    "cycle-overflow",
    severity="warning",
    summary="a usage cycle is implausibly large",
    scope="usages",
)
def _check_cycle_overflow(ctx):
    """Every extra table column costs state in any query representation
    (bitvectors, automata); a cycle orders of magnitude beyond real
    pipeline depths is almost always a typo."""
    limit = int(ctx.option("max_cycle", DEFAULT_MAX_CYCLE))
    for op, resource, cycle, line in ctx.usage_items():
        if cycle > limit:
            yield finding(
                "operation %r uses resource %r at cycle %d, beyond the"
                " plausibility bound %d" % (op, resource, cycle, limit),
                location=ctx.locate(
                    operation=op, resource=resource, cycle=cycle, line=line
                ),
                hint="likely a typo; raise --max-cycle if the depth is"
                " intentional",
            )


@rule(
    "duplicate-alternative",
    severity="warning",
    summary="two alternatives of one group have identical tables",
)
def _check_duplicate_alternative(ctx):
    """Alternative variants exist to offer *different* resource usages
    (Section 3's preprocessing).  Identical variants only enlarge the
    scheduler's search space."""
    machine = ctx.machine
    for base, variants in sorted(machine.alternatives.items()):
        tables = [machine.table(v) for v in variants]
        for j in range(1, len(variants)):
            for i in range(j):
                if tables[i] == tables[j]:
                    yield finding(
                        "alternatives %r and %r of group %r have"
                        " identical reservation tables"
                        % (variants[i], variants[j], base),
                        location=ctx.locate(operation=variants[j]),
                        hint="remove one variant; duplicates double the"
                        " alternatives search for no benefit",
                        evidence={"group": base, "duplicates": variants[i]},
                    )
                    break


@rule(
    "dominated-alternative",
    severity="warning",
    summary="an alternative strictly contains another's usages",
)
def _check_dominated_alternative(ctx):
    """A variant whose usage set is a strict superset of a sibling's can
    never be the better choice: wherever it fits, the smaller variant
    fits too.  Schedulers trying it only waste decisions."""
    machine = ctx.machine
    for base, variants in sorted(machine.alternatives.items()):
        usage_sets = {
            v: frozenset(machine.table(v).iter_usages()) for v in variants
        }
        for loser in variants:
            for winner in variants:
                if loser == winner:
                    continue
                if usage_sets[winner] < usage_sets[loser]:
                    yield finding(
                        "alternative %r of group %r is dominated by %r:"
                        " its usages strictly contain the other's"
                        % (loser, base, winner),
                        location=ctx.locate(operation=loser),
                        hint="remove the dominated variant; %r is always"
                        " at least as schedulable" % winner,
                        evidence={"group": base, "dominated_by": winner},
                    )
                    break


@rule(
    "redundant-resource",
    severity="info",
    summary="a resource row is implied by the remaining rows",
)
def _check_redundant_resource(ctx):
    """Every forbidden latency the row generates is also generated by
    the other rows (Section 6's 'manual optimization', automated by
    :mod:`repro.analysis.redundancy`).  Expected in physical
    descriptions — it is what the reduction removes — but worth knowing
    about, and suspicious in an already-reduced description."""
    for resource in redundant_resources(ctx.machine):
        yield finding(
            "resource %r introduces no forbidden latency beyond those of"
            " the other rows" % resource,
            location=ctx.locate(resource=resource),
            hint="drop it with analysis.redundancy.drop_resources, or"
            " run the full reduction",
        )


@rule(
    "collapsible-operations",
    severity="info",
    summary="operations with identical forbidden rows and columns",
)
def _check_collapsible_operations(ctx):
    """Operations whose forbidden-latency rows *and* columns coincide
    for every third operation form one operation class (Section 3) and
    are interchangeable for any scheduler."""
    for members in ctx.matrix.operation_classes():
        if len(members) < 2:
            continue
        yield finding(
            "operations %s are mutually interchangeable (one operation"
            " class); the description repeats their constraints"
            % ", ".join(repr(m) for m in members),
            location=ctx.locate(operation=members[0]),
            hint="keep one member per class with"
            " MachineDescription.with_operations and map the other"
            " members to the representative %r" % members[0],
            evidence={"class": list(members)},
        )


@rule(
    "non-maximal-resource",
    severity="warning",
    summary="a synthesized row is not part of any maximal resource of"
    " the reference",
    requires_reference=True,
)
def _check_non_maximal_resource(ctx):
    """Every row the reduction emits is carved out of a *maximal*
    resource of the original machine's matrix (Algorithm 1, Section 4;
    the selection of Section 5 only ever takes subsets).  Equivalently —
    Theorem 1's invariant — every pair of usages in a synthesized row
    must generate a latency the reference already forbids.  A ``q<N>``
    row violating this was edited by hand or produced by a broken tool:
    it forbids schedules the reference machine allows."""
    machine = ctx.machine
    reference = ctx.reference_matrix
    for resource in machine.resources:
        if not _SYNTHESIZED_ROW.match(resource):
            continue
        usages = sorted(
            (op, cycle)
            for op in machine.operation_names
            for cycle in machine.table(op).usage_set(resource)
        )
        for index, (op_u, cycle_u) in enumerate(usages):
            for op_v, cycle_v in usages[index + 1:]:
                if not usages_compatible(
                    (op_u, cycle_u), (op_v, cycle_v), reference
                ):
                    yield finding(
                        "synthesized resource %r is not part of any"
                        " maximal resource of reference %r: usages"
                        " (%s, %d) and (%s, %d) generate a latency the"
                        " reference allows"
                        % (
                            resource,
                            ctx.reference.name,
                            op_u,
                            cycle_u,
                            op_v,
                            cycle_v,
                        ),
                        location=ctx.locate(resource=resource),
                        hint="the row over-constrains the machine;"
                        " rebuild it with reduce_machine",
                        evidence={
                            "usages": [
                                [op_u, cycle_u],
                                [op_v, cycle_v],
                            ],
                            "latency": cycle_v - cycle_u,
                        },
                    )
                    break
            else:
                continue
            break


@rule(
    "unpipelined-operation",
    severity="info",
    summary="an operation conflicts with itself at positive latencies",
)
def _check_unpipelined_operation(ctx):
    """Positive self-latencies mean back-to-back issue of the operation
    is structurally impossible at those distances — an unpipelined (or
    partially pipelined) unit.  Correct for real hardware, but it raises
    the resource-constrained lower bound on the initiation interval."""
    matrix = ctx.matrix
    for op in matrix.operations:
        positive = sorted(
            latency for latency in matrix.latencies(op, op) if latency > 0
        )
        if positive:
            if len(positive) == 1:
                message = (
                    "operation %r conflicts with itself %d cycles after"
                    " issue: the unit is not fully pipelined"
                    % (op, positive[0])
                )
            else:
                message = (
                    "operation %r conflicts with itself at latencies %s:"
                    " the unit is not fully pipelined" % (op, positive)
                )
            yield finding(
                message,
                location=ctx.locate(operation=op),
                hint="expected for multi-cycle units; raises ResMII for"
                " loops issuing %r every iteration" % op,
                evidence={"self_latencies": positive},
            )


@rule(
    "equivalence-mismatch",
    severity="error",
    summary="forbidden latencies disagree with the reference",
    requires_reference=True,
)
def _check_equivalence_mismatch(ctx):
    """The audit of Section 3's equivalence criterion: the description
    preserves the reference's scheduling constraints iff both induce the
    same forbidden-latency matrix.  Each differing pair is reported; the
    first carries a concrete witness schedule — a two-operation placement
    legal on one description and colliding on the other — as evidence."""
    diffs = ctx.matrix.differences(ctx.reference_matrix)
    if not diffs:
        return
    limit = int(ctx.option("mismatch_limit", DEFAULT_MISMATCH_LIMIT))
    witness = find_witness(ctx.machine, ctx.reference)
    for index, (op_x, op_y, only_here, only_ref) in enumerate(diffs):
        if index >= limit:
            yield finding(
                "%d further differing operation pairs omitted"
                " (raise --mismatch-limit to list them)"
                % (len(diffs) - limit),
                evidence={"omitted": len(diffs) - limit},
            )
            break
        evidence = {
            "pair": [op_x, op_y],
            "only_machine": sorted(only_here),
            "only_reference": sorted(only_ref),
        }
        if index == 0 and witness is not None:
            evidence["witness"] = {
                "placements": [
                    [op, cycle] for op, cycle in witness.placements
                ],
                "legal_on": witness.legal_on,
                "conflicts_on": witness.conflicts_on,
                "description": witness.describe(),
            }
        yield finding(
            "forbidden latencies of %r after %r disagree with reference"
            " %r: only here %s, only in reference %s"
            % (
                op_x,
                op_y,
                ctx.reference.name,
                sorted(only_here),
                sorted(only_ref),
            ),
            location=ctx.locate(operation=op_x),
            hint="the two descriptions admit different schedules; one of"
            " them is wrong",
            evidence=evidence,
        )
