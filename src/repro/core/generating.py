"""Algorithm 1: building the generating set of maximal resources (Step 2).

The generating set is grown by processing one elementary pair at a time
against every resource accumulated so far:

* **Rule 1** — the pair is *fully compatible* with a resource (compatible
  with each of its usages): add the pair's usages to that resource.
* **Rule 2** — the pair is only *partially compatible*: leave the resource
  unchanged and add a new resource consisting of the pair plus every
  compatible usage of the old resource — unless that new resource is just
  the pair itself, in which case it is discarded.
* **Rule 3** — after Rules 1/2, if no current resource holds both usages of
  the pair together, add the pair itself as a new resource.
* **Rule 4** — finally, for each operation whose *only* forbidden latency is
  its zero self-contention, add a single-usage resource.

Theorem 1 (proved in the paper, re-checked by our test-suite) guarantees the
final set (a) never forbids a latency the target machine allows and (b)
contains every maximal resource of the target machine.

Resources are packed usage masks with one bit per usage that can appear
in a row.  Every resource is a union of pairs ``{(X, 0), (Y, f)}`` and
subsets of earlier resources, so its usages are among those the
elementary pairs hold; with each operation's ``(op, 0)`` for Rule 4,
these are numbered in sorted order and no other bit is ever set.
Rule 1 is then ``current & allowed == current``, where ``allowed`` is
the AND of two memoized anchor masks.  Masks are only ANDed, ORed,
compared, popcounted and decoded, so the numbering cannot change the
result.  They are decoded to ``frozenset`` resources only for the return
value, traces and a budget's partial result.

The generating set is a set, as in the paper: an insertion-ordered
``dict`` of masks rebuilt per pair, so a Rule-1 merge that lands on a
resource already present collapses into it.  Rules 1 and 2 depend only
on the mask, so keeping equal resources would return the same list.

``prune_subsets_every`` enables an optimization discussed in DESIGN.md:
dropping a resource that is a subset of another current resource is safe
because any future Rule-1/2 product grown from the subset is dominated by
the product grown from its superset, so no maximal resource is lost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.elementary import Resource, Usage, elementary_pairs, pair_usages
from repro.core.forbidden import ForbiddenLatencyMatrix
from repro.errors import BudgetExceeded
from repro.obs import trace as obs


@dataclass
class RuleApplication:
    """One rule firing while processing an elementary pair (for traces)."""

    rule: int
    target: Optional[Resource]
    result: Optional[Resource]


@dataclass
class TraceStep:
    """Snapshot of the generating set after processing one elementary pair."""

    pair: Resource
    applications: List[RuleApplication] = field(default_factory=list)
    resources: Tuple[Resource, ...] = ()


def _prune_subset_masks(masks: Dict[int, None]) -> Dict[int, None]:
    """Drop masks contained in another mask of the set, keeping the
    insertion order of the survivors."""
    kept: List[int] = []
    by_size = sorted(masks, key=lambda m: bin(m).count("1"), reverse=True)
    for candidate in by_size:
        if not any(candidate & existing == candidate for existing in kept):
            kept.append(candidate)
    survivors = set(kept)
    return {mask: None for mask in masks if mask in survivors}


def build_generating_set(
    matrix: ForbiddenLatencyMatrix,
    prune_subsets_every: Optional[int] = 64,
    trace: Optional[Callable[[TraceStep], None]] = None,
    budget=None,
) -> List[Resource]:
    """Run Algorithm 1 and return the generating set of maximal resources.

    Parameters
    ----------
    matrix:
        Forbidden latency matrix of the target machine.
    prune_subsets_every:
        Drop subset-dominated resources after every N elementary pairs
        (``None`` disables pruning, reproducing the textbook algorithm).
    trace:
        Optional callback receiving a :class:`TraceStep` after each pair —
        used to regenerate the paper's Figure 3.
    budget:
        Optional :class:`repro.resilience.budget.Budget` checked once per
        elementary pair (charged one unit plus one per resource the pair
        is matched against; equal resources count once).
        :class:`~repro.errors.BudgetExceeded` carries phase
        ``"generating_set"``, the number of pairs processed, and the
        resource list grown so far as its partial result.
    """
    worklist = elementary_pairs(matrix)
    operations = matrix.operations
    usages = sorted({usage for pair in worklist for usage in pair}
                    | {(op, 0) for op in operations})
    bits = {usage: 1 << index for index, usage in enumerate(usages)}
    # Per operation, the (cycle, bit) of each of its numbered usages.
    held: Dict[str, List[Tuple[int, int]]] = {op: [] for op in operations}
    for (op, cycle), bit in bits.items():
        held[op].append((cycle, bit))
    anchors: Dict[Usage, int] = {}

    def anchor(usage: Usage) -> int:
        """Mask of every numbered usage (B, b) compatible with usage
        (X, x), that is with x - b in F[B][X]."""
        if usage not in anchors:
            op_x, x = usage
            mask = 0
            for op in operations:
                forbidden = matrix.latencies(op, op_x)
                if forbidden:
                    for cycle, bit in held[op]:
                        if x - cycle in forbidden:
                            mask |= bit
            anchors[usage] = mask
        return anchors[usage]

    def decode(mask: Optional[int]) -> Optional[Resource]:
        if mask is None:
            return None
        found = []
        while mask:
            low = mask & -mask
            found.append(usages[low.bit_length() - 1])
            mask ^= low
        return frozenset(found)

    masks: Dict[int, None] = {}  # the generating set, insertion-ordered
    tracer = obs.current()
    if tracer is not None:
        tracer.count("reduce.algorithm1.pairs", len(worklist))
        tracer.count("reduce.algorithm1.usages", len(usages))
    for processed, pair in enumerate(worklist, start=1):
        if budget is not None:
            try:
                budget.checkpoint(
                    "generating_set",
                    units=1 + len(masks),
                    progress="%d/%d pairs" % (processed - 1, len(worklist)),
                )
            except BudgetExceeded as exc:
                exc.partial = list(map(decode, masks))
                raise
        u0, u1 = pair_usages(pair)
        pair_mask = bits[u0] | bits[u1]
        allowed = anchor(u0) & anchor(u1)
        fired = []  # (rule, target, result) masks for the trace
        rows: Dict[int, None] = {}
        additions: List[int] = []
        merges = 0
        for current in masks:
            compatible = current & allowed
            if compatible == current:
                # Rule 1: fully compatible -> merge the pair in.  The
                # merged row takes its source's place, or collapses into
                # an equal row already present.
                merged = current | pair_mask
                rows[merged] = None
                merges += 1
                if trace is not None:
                    fired.append((1, current, merged))
            else:
                # Rule 2: partially compatible -> candidate new resource,
                # discarded when it is just the pair itself.
                rows[current] = None
                candidate = pair_mask | compatible
                if candidate == pair_mask:
                    candidate = None
                else:
                    additions.append(candidate)
                if trace is not None:
                    fired.append((2, current, candidate))
        rows.update(dict.fromkeys(additions))
        alone = int(not merges and not additions)
        if alone:
            # Rule 3: the pair starts a resource of its own.
            rows[pair_mask] = None
            if trace is not None:
                fired.append((3, None, pair_mask))
        masks = rows
        if tracer is not None:
            for rule, hits in ((1, merges), (2, len(additions)), (3, alone)):
                if hits:
                    tracer.count("reduce.algorithm1.rule%d" % rule, hits)
        if prune_subsets_every and processed % prune_subsets_every == 0:
            before = len(masks)
            masks = _prune_subset_masks(masks)
            if tracer is not None:
                tracer.count("reduce.algorithm1.subset_pruned",
                             before - len(masks))
        if trace is not None:
            applications = [RuleApplication(rule, decode(target), decode(result))
                            for rule, target, result in fired]
            trace(TraceStep(pair, applications, tuple(map(decode, masks))))

    # Rule 4: operations whose only forbidden latency is 0 in F[X][X].
    for op in operations:
        if matrix.latencies(op, op) != frozenset({0}) or any(
            matrix.latencies(op, other) or matrix.latencies(other, op)
            for other in operations
            if other != op
        ):
            continue
        lane = sum(bit for _, bit in held[op])  # distinct bits: sum is OR
        if not any(mask & lane for mask in masks):
            masks[bits[op, 0]] = None
            if tracer is not None:
                tracer.count("reduce.algorithm1.rule4")
            if trace is not None:
                singleton = frozenset({(op, 0)})
                applications = [RuleApplication(4, None, singleton)]
                trace(TraceStep(singleton, applications, tuple(map(decode, masks))))

    return list(map(decode, _prune_subset_masks(masks)))
