"""Discrete-representation contention query module (paper Sections 5 & 7).

The reserved table has one entry per (resource, schedule cycle).  Each entry
carries a flag (reserved or not) and an owner field identifying the
operation instance holding the reservation — the mapping that makes
backtracking (``assign&free``) cheap.  We store the table sparsely as a
dictionary keyed by ``(resource, cycle)`` with the owning token ident as the
value, which supports unbounded and negative schedule cycles (dangling
resource requirements across block boundaries).

Work accounting is the paper's: one unit per resource usage handled, with
``check`` aborting at the first detected contention.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.machine import MachineDescription
from repro.query.base import ContentionQueryModule, ScheduledToken


class DiscreteQueryModule(ContentionQueryModule):
    """Query module over per-(resource, cycle) flag/owner entries.

    Parameters
    ----------
    machine:
        Machine description (original or reduced — both work; reduced is
        faster because it has fewer usages per operation).
    modulo:
        When given, cycles wrap modulo this initiation interval, turning
        the reserved table into a Modulo Reservation Table for software
        pipelining.
    """

    def __init__(self, machine: MachineDescription, modulo: Optional[int] = None):
        super().__init__(machine)
        if modulo is not None and modulo < 1:
            raise ValueError("modulo initiation interval must be >= 1")
        self.modulo = modulo
        self._reserved: Dict[Tuple[str, int], int] = {}

    # ------------------------------------------------------------------
    # Slot arithmetic
    # ------------------------------------------------------------------
    def _slot(self, resource: str, cycle: int) -> Tuple[str, int]:
        if self.modulo is not None:
            cycle %= self.modulo
        return (resource, cycle)

    def _slots(self, op: str, cycle: int) -> Sequence[Tuple[str, int]]:
        # Modulo tables read the table's fold kept for this II and slot.
        table = self.machine.table(op)
        modulo = self.modulo
        if modulo is not None:
            return table.folded(modulo, cycle % modulo)[0]
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
        # The fold names the first such slot, so the walk stops there.
        modulo = self.modulo
        slots, first_repeat = self.machine.table(op).folded(
            modulo, cycle % modulo
        )
        reserved = self._reserved
        for slot in slots:
            units += 1
            if slot in reserved or units > first_repeat:
                return False, units
        return True, units

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
            if (
                owner is not None
                and owner != token.ident
                and owner not in evicted_idents
            ):
                victim = self._live[owner]
                evicted_idents.add(owner)
                evicted.append(victim)
                # Release every entry of the victim, not just the clash.
                for victim_slot in self._slots(victim.op, victim.cycle):
                    units += 1
                    self._reserved.pop(victim_slot, None)
            self._reserved[slot] = token.ident
        return evicted, units

    def _reset_state(self) -> None:
        self._reserved.clear()

    # ------------------------------------------------------------------
    # Introspection (tests / examples)
    # ------------------------------------------------------------------
    def owner_at(self, resource: str, cycle: int) -> Optional[int]:
        """Token ident reserving (resource, cycle), if any."""
        return self._reserved.get(self._slot(resource, cycle))

    @property
    def reserved_entries(self) -> int:
        """Number of currently reserved (resource, cycle) entries."""
        return len(self._reserved)

    def state_bits_per_cycle(self) -> int:
        """Flag bits required per schedule cycle: one per resource.

        The paper's memory metric — reduced machines need proportionally
        fewer bits per cycle of reserved-table state.
        """
        return self.machine.num_resources
