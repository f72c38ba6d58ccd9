"""End-to-end machine-description reduction (paper Steps 1–3).

:func:`reduce_machine` chains the three steps — forbidden latency matrix,
generating set of maximal resources, usage selection — and re-verifies the
result against the original description, so a returned
:class:`Reduction` is *guaranteed* exact (Theorem 1 enforced at runtime).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.elementary import Resource
from repro.core.forbidden import ForbiddenLatencyMatrix
from repro.obs import trace as obs
from repro.core.generating import build_generating_set
from repro.core.machine import MachineDescription
from repro.core.pruning import prune_covered_resources
from repro.core.selection import (
    RES_USES,
    WORD_USES,
    SelectionResult,
    select_resources,
)
from repro.errors import EquivalenceError, ReductionError


def machine_from_selection(
    original: MachineDescription,
    selection: SelectionResult,
    name: Optional[str] = None,
) -> MachineDescription:
    """Materialize selected usages as a reduced machine description.

    Synthesized resources are named ``q0, q1, ...`` in selection order.
    Operations of the original machine that use no resources keep empty
    reservation tables; alternative groups are preserved verbatim.
    """
    per_op: Dict[str, Dict[str, List[int]]] = {
        op: {} for op in original.operation_names
    }
    row_names = []
    for row, usages in enumerate(selection.resources):
        row_name = "q%d" % row
        row_names.append(row_name)
        for op, cycle in sorted(usages):
            per_op[op].setdefault(row_name, []).append(cycle)
    operations = {op: rows for op, rows in per_op.items()}
    return MachineDescription(
        name or (original.name + "-reduced"),
        operations,
        resources=row_names,
        alternatives=original.alternatives,
        latencies=original.latencies,
    )


@dataclass
class Reduction:
    """A verified reduction of one machine description.

    Attributes
    ----------
    original / reduced:
        The input machine and its reduced equivalent.
    matrix:
        Forbidden latency matrix both descriptions induce.
    generating_set / pruned_set:
        Algorithm 1 output and its covered-resource pruning.
    selection:
        The usage selection the reduced machine was built from.
    """

    original: MachineDescription
    reduced: MachineDescription
    matrix: ForbiddenLatencyMatrix
    generating_set: List[Resource]
    pruned_set: List[Resource]
    selection: SelectionResult

    @property
    def objective(self) -> str:
        return self.selection.objective

    @property
    def word_cycles(self) -> int:
        return self.selection.word_cycles

    @property
    def resource_ratio(self) -> float:
        """Reduced resource count over original resource count."""
        return self.reduced.num_resources / max(1, self.original.num_resources)

    @property
    def usage_ratio(self) -> float:
        """Reduced usage count over original usage count."""
        return self.reduced.total_usages / max(1, self.original.total_usages)

    def summary(self) -> str:
        """One-line human-readable description of the reduction."""
        return (
            "%s: %d -> %d resources, %d -> %d usages (%s, k=%d)"
            % (
                self.original.name,
                self.original.num_resources,
                self.reduced.num_resources,
                self.original.total_usages,
                self.reduced.total_usages,
                self.objective,
                self.word_cycles,
            )
        )


def reduce_machine(
    machine: MachineDescription,
    objective: str = RES_USES,
    word_cycles: int = 1,
    prune_subsets_every: Optional[int] = 64,
    verify: bool = True,
    collapse_classes: bool = False,
    budget=None,
) -> Reduction:
    """Reduce a machine description, preserving its scheduling constraints.

    Parameters
    ----------
    machine:
        The target machine description.
    objective:
        ``"res-uses"`` for the discrete representation or ``"word-uses"``
        for a bitvector representation with ``word_cycles`` cycles per word.
    word_cycles:
        Number of cycle-bitvectors packed per memory word (``k``).
    prune_subsets_every:
        Forwarded to :func:`~repro.core.generating.build_generating_set`.
    verify:
        Re-derive the forbidden latency matrix of the reduced machine and
        compare; raises :class:`~repro.errors.EquivalenceError` on mismatch.
        On by default — reductions are meant to be provably exact.
    collapse_classes:
        Run the reduction on one representative per operation class and
        give every class member the representative's reduced table
        (Proebsting & Fraser's class merging).  Exact because members of
        one class have identical forbidden latency rows and columns:
        ``F[X][X] = F[X][Y] = F[Y][X] = F[Y][Y]`` whenever X and Y share a
        class, so identical tables reproduce every entry.  A large
        speedup for machines with many interchangeable operations.
    budget:
        Optional :class:`repro.resilience.budget.Budget` (deadline and/or
        work-unit cap) checked at every phase boundary and inside each
        phase's main loop; :class:`~repro.errors.BudgetExceeded` records
        which phase ran out and its best partial result.  Use
        :func:`repro.resilience.fallback.reduce_with_fallback` for a
        version that degrades verifiably instead of raising.
    """
    with obs.span("forbidden_matrix", obs.CAT_REDUCE, machine=machine.name):
        matrix = ForbiddenLatencyMatrix.from_machine(machine, budget=budget)
    if collapse_classes:
        classes = matrix.operation_classes()
        if any(len(members) > 1 for members in classes):
            representative = {}
            for members in classes:
                for op in members:
                    representative[op] = members[0]
            collapsed = machine.with_operations(
                sorted({members[0] for members in classes}),
                machine.name + "-classes",
            )
            inner = reduce_machine(
                collapsed,
                objective=objective,
                word_cycles=word_cycles,
                prune_subsets_every=prune_subsets_every,
                verify=False,
                budget=budget,
            )
            expanded = MachineDescription(
                machine.name + "-reduced",
                {
                    op: inner.reduced.table(representative[op])
                    for op in machine.operation_names
                },
                resources=inner.reduced.resources,
                alternatives=machine.alternatives,
                latencies=machine.latencies,
            )
            if verify:
                expanded_matrix = ForbiddenLatencyMatrix.from_machine(
                    expanded
                )
                mismatches = matrix.differences(expanded_matrix)
                if mismatches:
                    raise EquivalenceError(
                        "class-collapsed reduction of %r is not exact"
                        % machine.name,
                        mismatches,
                    )
            return Reduction(
                original=machine,
                reduced=expanded,
                matrix=matrix,
                generating_set=inner.generating_set,
                pruned_set=inner.pruned_set,
                selection=inner.selection,
            )
    with obs.span("generating_set", obs.CAT_REDUCE, machine=machine.name):
        generating_set = build_generating_set(
            matrix, prune_subsets_every=prune_subsets_every, budget=budget
        )
    with obs.span("prune_covered", obs.CAT_REDUCE):
        pruned = prune_covered_resources(generating_set)
    with obs.span(
        "selection", obs.CAT_REDUCE,
        objective=objective, word_cycles=word_cycles,
    ):
        selection = select_resources(
            matrix, pruned, objective=objective, word_cycles=word_cycles,
            budget=budget,
        )
    reduced = machine_from_selection(machine, selection)
    if verify:
        with obs.span("verify", obs.CAT_REDUCE, machine=machine.name):
            reduced_matrix = ForbiddenLatencyMatrix.from_machine(
                reduced, budget=budget
            )
            mismatches = matrix.differences(reduced_matrix)
        if mismatches:
            raise EquivalenceError(
                "reduction of %r is not exact (%d mismatching pairs)"
                % (machine.name, len(mismatches)),
                mismatches,
            )
    return Reduction(
        original=machine,
        reduced=reduced,
        matrix=matrix,
        generating_set=generating_set,
        pruned_set=pruned,
        selection=selection,
    )


def reduce_for_word_size(
    machine: MachineDescription,
    word_bits: int = 64,
    max_rounds: int = 4,
    **kwargs,
) -> Reduction:
    """Reduce for a target memory word, choosing ``k`` automatically.

    The paper's tables pack as many cycle-bitvectors per word as fit:
    ``k = word_bits // reduced_resources``.  But the resource count is
    itself an *output* of the reduction, so the packing is found by
    fixed point: reduce with ``res-uses`` to estimate the resource
    count, derive k, re-reduce with the ``k-cycle-word`` objective, and
    repeat until k stabilizes (in practice immediately — the paper notes
    the resource count is the same across objectives).

    Extra keyword arguments are forwarded to :func:`reduce_machine`.
    """
    if word_bits < 1:
        raise ReductionError("word_bits must be >= 1")
    reduction = reduce_machine(machine, objective=RES_USES, **kwargs)
    k = max(1, word_bits // max(1, reduction.reduced.num_resources))
    for _round in range(max_rounds):
        reduction = reduce_machine(
            machine, objective=WORD_USES, word_cycles=k, **kwargs
        )
        next_k = max(
            1, word_bits // max(1, reduction.reduced.num_resources)
        )
        if next_k == k:
            break
        k = next_k
    return reduction


__all__ = [
    "RES_USES",
    "WORD_USES",
    "Reduction",
    "machine_from_selection",
    "reduce_for_word_size",
    "reduce_machine",
]
