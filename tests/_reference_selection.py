"""Rescanning reference of the paper's Step 3 selection (test-only).

This is :func:`repro.core.selection.select_resources` as it was before
it took its targets from one sorted order with a cursor: every covering
iteration runs ``min(uncovered, ...)`` over the uncovered instances and
subtracts the covered set again.  ``tests/test_selection_reference.py``
requires the production implementation to return an equal
:class:`~repro.core.selection.SelectionResult` (order included) and to
stop at the same budget checkpoint with the same partial result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.elementary import Resource, Usage
from repro.core.forbidden import (
    ForbiddenLatencyMatrix,
    Instance,
    canonical_instance,
)
from repro.core.selection import (
    RES_USES,
    WORD_USES,
    Candidate,
    SelectionResult,
)
from repro.errors import ReductionError
from repro.obs import trace as obs


@dataclass
class _State:
    """Mutable selection state shared by the heuristic's helpers."""

    matrix: ForbiddenLatencyMatrix
    pool: Sequence[Resource]
    word_cycles: int
    use_words: bool
    selected: Dict[int, Set[Usage]] = field(default_factory=dict)
    covered: Set[Instance] = field(default_factory=set)
    nonempty_words: Set[Tuple[str, int]] = field(default_factory=set)

    def word_of(self, usage: Usage) -> Tuple[str, int]:
        op, cycle = usage
        return (op, cycle // self.word_cycles)

    def instances_between(self, usage: Usage, others: Set[Usage]) -> Set[Instance]:
        """Instances generated by ``usage`` against a co-resident usage set."""
        op_u, cycle_u = usage
        result = {(op_u, op_u, 0)}
        for op_v, cycle_v in others:
            if (op_v, cycle_v) == usage:
                continue
            result.add(canonical_instance(op_u, op_v, cycle_v - cycle_u))
        return result

    def new_coverage(self, index: int, usages: Sequence[Usage]) -> Set[Instance]:
        """Instances newly covered by adding ``usages`` to resource ``index``."""
        current = set(self.selected.get(index, ()))
        gained: Set[Instance] = set()
        for usage in usages:
            if usage in current:
                continue
            current.add(usage)
            gained |= self.instances_between(usage, current)
        return gained - self.covered

    def new_words(self, usages: Sequence[Usage]) -> int:
        """Words that would become non-empty by selecting ``usages``."""
        if not self.use_words:
            return 0
        opened = {
            self.word_of(u) for u in usages if self.word_of(u) not in self.nonempty_words
        }
        return len(opened)

    def apply(self, index: int, usages: Sequence[Usage]) -> None:
        current = self.selected.setdefault(index, set())
        for usage in usages:
            if usage in current:
                continue
            current.add(usage)
            self.covered |= self.instances_between(usage, current)
            self.nonempty_words.add(self.word_of(usage))

    def free_fill(self) -> None:
        """Word mode: select every unselected usage of a selected resource
        that lands in an already-non-empty word of its operation.

        Adding such a usage cannot increase the word count, strictly helps
        early-out detection, and may cover additional latencies, so the
        closure runs to fixpoint.
        """
        if not self.use_words:
            return
        changed = True
        while changed:
            changed = False
            for index in list(self.selected):
                origin = self.pool[index]
                current = self.selected[index]
                for usage in sorted(origin - current):
                    if self.word_of(usage) in self.nonempty_words:
                        self.apply(index, [usage])
                        changed = True


def _build_candidates(
    matrix: ForbiddenLatencyMatrix, pool: Sequence[Resource]
) -> Dict[Instance, List[Candidate]]:
    """For every canonical instance, the usage pairs that generate it."""
    universe = matrix.instances()
    candidates: Dict[Instance, List[Candidate]] = {inst: [] for inst in universe}
    for index, resource in enumerate(pool):
        usages = sorted(resource)
        for i, usage_u in enumerate(usages):
            op_u, cycle_u = usage_u
            self_inst = (op_u, op_u, 0)
            if self_inst in candidates:
                candidates[self_inst].append((index, usage_u, usage_u))
            for usage_v in usages[i + 1 :]:
                op_v, cycle_v = usage_v
                inst = canonical_instance(op_u, op_v, cycle_v - cycle_u)
                if inst in candidates:
                    candidates[inst].append((index, usage_u, usage_v))
    missing = [inst for inst, lst in candidates.items() if not lst]
    if missing:
        raise ReductionError(
            "generating set cannot cover instances: %s" % missing[:5]
        )
    return candidates


def reference_select_resources(
    matrix: ForbiddenLatencyMatrix,
    pool: Sequence[Resource],
    objective: str = RES_USES,
    word_cycles: int = 1,
    budget=None,
) -> SelectionResult:
    """Run the selection heuristic over a pruned generating set.

    Parameters
    ----------
    matrix:
        Forbidden latency matrix of the target machine.
    pool:
        Pruned generating set (order defines resource indices).
    objective:
        :data:`RES_USES` or :data:`WORD_USES`.
    word_cycles:
        ``k`` for the ``k-cycle-word uses`` objective; ignored for
        :data:`RES_USES`.
    budget:
        Optional :class:`repro.resilience.budget.Budget` checked once per
        covering iteration.  :class:`~repro.errors.BudgetExceeded` carries
        phase ``"selection"`` and a partial result holding the pool, the
        usages selected so far, and the coverage count — the fallback
        ladder builds its partially-selected rung from the pool.
    """
    if objective not in (RES_USES, WORD_USES):
        raise ReductionError("unknown objective %r" % objective)
    use_words = objective == WORD_USES
    if use_words and word_cycles < 1:
        raise ReductionError("word_cycles must be >= 1")
    pool = list(pool)
    state = _State(
        matrix=matrix,
        pool=pool,
        word_cycles=word_cycles if use_words else 1,
        use_words=use_words,
    )
    candidates = _build_candidates(matrix, pool)
    uncovered = set(candidates)

    tracer = obs.current()
    if tracer is not None:
        tracer.count("reduce.selection.instances", len(uncovered))
    total_instances = len(uncovered)
    while uncovered:
        if budget is not None:
            budget.checkpoint(
                "selection",
                units=1,
                progress="%d/%d instances covered"
                % (total_instances - len(uncovered), total_instances),
                partial={
                    "pool": pool,
                    "selected": {
                        i: set(u) for i, u in state.selected.items()
                    },
                    "covered": total_instances - len(uncovered),
                    "total": total_instances,
                },
            )
        if tracer is not None:
            tracer.count("reduce.selection.iterations")
        # Paper: pick an uncovered latency with the shortest candidate list.
        target = min(uncovered, key=lambda inst: (len(candidates[inst]), inst))
        best_key = None
        best: Optional[Candidate] = None
        for candidate in candidates[target]:
            index, usage_u, usage_v = candidate
            usages = [usage_u] if usage_u == usage_v else [usage_u, usage_v]
            gained = state.new_coverage(index, usages)
            already = state.selected.get(index, ())
            added = sum(1 for u in usages if u not in already)
            key = (
                -state.new_words(usages),
                len(gained),
                sum(inst[2] for inst in gained),
                -added,
                # Deterministic final tie-break.
                (-index, usage_u, usage_v),
            )
            if best_key is None or key > best_key:
                best_key = key
                best = candidate
        assert best is not None  # candidate lists are never empty
        index, usage_u, usage_v = best
        usages = [usage_u] if usage_u == usage_v else [usage_u, usage_v]
        state.apply(index, usages)
        state.free_fill()
        uncovered -= state.covered

    ordered_indices = sorted(state.selected)
    return SelectionResult(
        resources=[frozenset(state.selected[i]) for i in ordered_indices],
        origins=[pool[i] for i in ordered_indices],
        objective=objective,
        word_cycles=word_cycles if use_words else 1,
    )
