"""Frozen copy of the discrete query path and ResMII (test-only).

The discrete module's modulo slot arithmetic, its ``check`` /
``assign`` / ``assign&free`` / ``free`` walks, the base class's
cycle-major window scan and ``res_mii`` exactly as they were before
reservation tables kept their folds per II, the probe order was taken
once per window and the forbidden matrix kept each operation's
self-feasible II: a fresh slot list and ``seen`` set per call, one
``order_variants`` per probed cycle and one self-feasibility search per
opcode and loop.  :class:`tests._reference_ims.ReferenceIMS` schedules
``representation="discrete"`` on :class:`ReferenceDiscreteQueryModule`
and bounds with :func:`res_mii`, so ``tests/test_ims_reference.py``
sees any change to the live discrete module, scan or ResMII.

:meth:`ReferenceDiscreteQueryModule._check_blame` is the discrete
module's blame scan as it was while each query backend attributed its
own failed checks; :func:`reference_blame` runs it over a module
holding given placements, the reference for
:func:`repro.query.base.find_blame`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.forbidden import ForbiddenLatencyMatrix
from repro.core.machine import MachineDescription
from repro.obs.trace import current as _current_tracer
from repro.query.alternatives import ROUND_ROBIN, order_variants
from repro.query.base import (
    BLAME_RESERVED,
    BLAME_SELF,
    Blame,
    ContentionQueryModule,
    ScheduledToken,
)
from repro.query.discrete import DiscreteQueryModule
from repro.query.modulo import DISCRETE, make_query_module, observed_class


class ReferenceDiscreteQueryModule(DiscreteQueryModule):
    """The discrete module with its frozen modulo path and window scan."""

    # ------------------------------------------------------------------
    # Slot arithmetic
    # ------------------------------------------------------------------
    def _slot(self, resource: str, cycle: int) -> Tuple[str, int]:
        if self.modulo is not None:
            cycle %= self.modulo
        return (resource, cycle)

    def _slots(self, op: str, cycle: int) -> List[Tuple[str, int]]:
        table = self.machine.table(op)
        return [self._slot(r, cycle + c) for r, c in table.iter_usages()]

    # ------------------------------------------------------------------
    # Representation hooks
    # ------------------------------------------------------------------
    def _check(self, op: str, cycle: int) -> Tuple[bool, int]:
        units = 0
        if self.modulo is None:
            for slot in self._slots(op, cycle):
                units += 1
                if slot in self._reserved:
                    return False, units
            return True, units
        # Modulo tables: the operation may collide with itself when its
        # usages of one resource wrap onto the same MRT slot (II smaller
        # than a self-forbidden latency) — such a placement is never legal.
        seen = set()
        for slot in self._slots(op, cycle):
            units += 1
            if slot in self._reserved or slot in seen:
                return False, units
            seen.add(slot)
        return True, units

    def _check_blame(
        self, op: str, cycle: int
    ) -> Tuple[bool, Optional[Blame], int]:
        # The reference semantics for blame: scan every usage (no early
        # abort) and name the canonical cell — the blocked slot with the
        # smallest (cycle, resource index), self-conflicts first.
        res_index = {r: i for i, r in enumerate(self.machine.resources)}
        units = 0
        counts: Dict[Tuple[str, int], int] = {}
        for slot in self._slots(op, cycle):
            units += 1
            counts[slot] = counts.get(slot, 0) + 1
        if self.modulo is not None:
            duplicated = [
                (slot_cycle, res_index[resource], resource)
                for (resource, slot_cycle), count in counts.items()
                if count > 1
            ]
            if duplicated:
                slot_cycle, _, resource = min(duplicated)
                return False, Blame(resource, slot_cycle, BLAME_SELF), units
        blocked = [
            (slot_cycle, res_index[resource], resource)
            for resource, slot_cycle in counts
            if (resource, slot_cycle) in self._reserved
        ]
        if not blocked:
            return True, None, units
        slot_cycle, _, resource = min(blocked)
        owner_op = owner_cycle = None
        owner = self._live.get(self._reserved[(resource, slot_cycle)])
        if owner is not None:
            owner_op, owner_cycle = owner.op, owner.cycle
        blame = Blame(
            resource, slot_cycle, BLAME_RESERVED, owner_op, owner_cycle
        )
        return False, blame, units

    def _assign(self, token: ScheduledToken, with_owners: bool) -> int:
        units = 0
        for slot in self._slots(token.op, token.cycle):
            units += 1
            self._reserved[slot] = token.ident
        return units

    def _free(self, token: ScheduledToken, with_owners: bool) -> int:
        units = 0
        for slot in self._slots(token.op, token.cycle):
            units += 1
            self._reserved.pop(slot, None)
        return units

    def _assign_free(self, token: ScheduledToken) -> Tuple[List[ScheduledToken], int]:
        units = 0
        evicted: List[ScheduledToken] = []
        evicted_idents = set()
        for slot in self._slots(token.op, token.cycle):
            units += 1
            owner = self._reserved.get(slot)
            if owner is not None and owner != token.ident and owner not in evicted_idents:
                victim = self._live[owner]
                evicted_idents.add(owner)
                evicted.append(victim)
                # Release every entry of the victim, not just the clash.
                for victim_slot in self._slots(victim.op, victim.cycle):
                    units += 1
                    self._reserved.pop(victim_slot, None)
            self._reserved[slot] = token.ident
        return evicted, units

    # ------------------------------------------------------------------
    # ContentionQueryModule's alternative scans
    # ------------------------------------------------------------------
    def first_free_with_alternatives(
        self, op: str, start: int, stop: int, direction: int = 1
    ) -> Tuple[Optional[int], Optional[str]]:
        """First ``(cycle, alternative)`` schedulable in the window.

        The window is scanned cycle-major (every alternative is probed at
        a cycle before the next cycle is considered), so the result is
        identical to looping :meth:`check_with_alternatives` over the
        window — which is exactly what this base implementation does.
        Returns ``(None, None)`` when the window is exhausted.
        """
        for cycle in self._window(start, stop, direction):
            alternative = self.check_with_alternatives(op, cycle)
            if alternative is not None:
                return cycle, alternative
        return None, None

    def check_with_alternatives(self, op: str, cycle: int) -> Optional[str]:
        """First alternative of ``op`` schedulable at ``cycle``, or ``None``.

        Implemented, as in the paper, by repeatedly calling ``check`` for
        each alternative operation until one succeeds.  The probe order is
        governed by :attr:`alternative_policy` — the paper's first-fit by
        default, with round-robin and least-used available (the "more
        efficient techniques" the paper leaves open).
        """
        variants = self.machine.alternatives_of(op)
        ordered = order_variants(
            self.alternative_policy,
            variants,
            self._alt_rotation.get(op, 0),
            self._live_op_counts,
        )
        for alternative in ordered:
            if self.check(alternative, cycle):
                if self.alternative_policy == ROUND_ROBIN and len(variants) > 1:
                    self._alt_rotation[op] = (
                        self._alt_rotation.get(op, 0) + 1
                    )
                return alternative
        return None


def reference_blame(
    machine: MachineDescription,
    op: str,
    cycles: Iterable[int],
    placements: Iterable[Tuple[str, int]],
    modulo: Optional[int] = None,
) -> List[Tuple[int, Blame]]:
    """``(cycle, blame)`` for each cycle of ``cycles`` that blocks ``op``,
    from :meth:`ReferenceDiscreteQueryModule._check_blame` over a fresh
    module holding ``placements`` (``(variant, cycle)`` pairs, assigned
    in order)."""
    module = ReferenceDiscreteQueryModule(machine, modulo=modulo)
    for variant, cycle in placements:
        module.assign(variant, cycle)
    found = []
    for cycle in cycles:
        _free, blame, _units = module._check_blame(op, cycle)
        if blame is not None:
            found.append((cycle, blame))
    return found


def make_reference_module(
    machine: MachineDescription,
    representation: str = DISCRETE,
    word_cycles: int = 1,
    modulo: Optional[int] = None,
) -> ContentionQueryModule:
    """:func:`make_query_module` with the frozen discrete module."""
    if representation != DISCRETE:
        return make_query_module(
            machine, representation, word_cycles=word_cycles, modulo=modulo
        )
    cls = ReferenceDiscreteQueryModule
    if _current_tracer() is not None:
        cls = observed_class(cls)
    return cls(machine, modulo=modulo)


# ----------------------------------------------------------------------
# ResMII
# ----------------------------------------------------------------------
def min_feasible_ii_for_op(
    matrix: ForbiddenLatencyMatrix, opcode: str
) -> int:
    """Smallest II at which ``opcode`` does not collide with itself.

    An operation issued every II cycles conflicts with its own later
    instances exactly when ``k * II`` (k >= 1) is one of its self-forbidden
    latencies.  Any II larger than the largest self-forbidden latency is
    feasible, so the search terminates.
    """
    self_latencies = {f for f in matrix.latencies(opcode, opcode) if f > 0}
    if not self_latencies:
        return 1
    limit = max(self_latencies)
    for ii in range(1, limit + 2):
        if not any(multiple % ii == 0 for multiple in self_latencies):
            return ii
    return limit + 1


def res_mii(
    machine: MachineDescription,
    opcodes: Iterable[str],
    matrix: Optional[ForbiddenLatencyMatrix] = None,
) -> int:
    """Resource-constrained minimum II for one iteration's opcodes.

    ``opcodes`` lists every operation of the loop body with multiplicity.
    The usage-count bound is exact for single-usage-per-cycle resources and
    a valid lower bound in general; the self-contention bound guards
    against IIs at which some opcode could never legally issue.
    """
    opcodes = list(opcodes)
    if matrix is None:
        matrix = ForbiddenLatencyMatrix.from_machine(machine)
    # Opcodes may be alternative-group base names; spread successive
    # occurrences round-robin over the variants (the best case a scheduler
    # can do for replicated units, hence still a valid lower bound).
    usage_totals: Dict[str, int] = {}
    seen: Dict[str, int] = {}
    for opcode in opcodes:
        variants = machine.alternatives_of(opcode)
        variant = variants[seen.get(opcode, 0) % len(variants)]
        seen[opcode] = seen.get(opcode, 0) + 1
        for resource, _cycle in machine.table(variant).iter_usages():
            usage_totals[resource] = usage_totals.get(resource, 0) + 1
    bound = max(usage_totals.values(), default=1)
    for opcode in sorted(set(opcodes)):
        # With alternatives the scheduler may pick whichever variant is
        # self-feasible, so the bound is the minimum over variants.
        bound = max(
            bound,
            min(
                min_feasible_ii_for_op(matrix, variant)
                for variant in machine.alternatives_of(opcode)
            ),
        )
    return max(1, bound)
