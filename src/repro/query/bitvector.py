"""Bitvector-representation contention query module (paper Sections 5 & 7).

The reserved table packs one bitvector per schedule cycle (bit = resource)
and ``k`` consecutive cycle-vectors per memory word.  A ``check`` then ANDs
each non-empty word of the operation's precompiled reservation-table mask
against the reserved word and tests for zero, detecting contentions for
``k`` cycles with one word operation; a word handled is one work unit.

``assign&free`` uses the paper's optimistic strategy: while no eviction has
ever been needed, owner fields are not maintained and the function runs on
pure word operations.  The first contention forces a one-time scan of the
scheduled-operation list to reconstruct owner fields (charged as work), and
the module stays in *update mode* thereafter, where ``assign&free`` iterates
over resource usages.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.machine import MachineDescription
from repro.query.base import ContentionQueryModule, ScheduledToken
from repro.query.work import CHECK_RANGE


class BitvectorQueryModule(ContentionQueryModule):
    """Query module over packed per-word reserved bitvectors.

    Parameters
    ----------
    machine:
        Machine description; its resource order defines bit positions.
    word_cycles:
        Number of cycle-bitvectors packed per memory word (``k``).  With R
        resources a word holds ``k * R`` bits; the paper's 32/64-bit studies
        correspond to the largest k with ``k * R <= word size``.
    modulo:
        Optional initiation interval: cycles wrap, making this a Modulo
        Reservation Table for software pipelining.
    """

    def __init__(
        self,
        machine: MachineDescription,
        word_cycles: int = 1,
        modulo: Optional[int] = None,
    ):
        super().__init__(machine)
        if word_cycles < 1:
            raise ValueError("word_cycles must be >= 1")
        if modulo is not None and modulo < 1:
            raise ValueError("modulo initiation interval must be >= 1")
        self.word_cycles = word_cycles
        self.modulo = modulo
        self._bit_of = {r: i for i, r in enumerate(machine.resources)}
        self._stride = max(1, machine.num_resources)
        self._words: Dict[int, int] = {}
        # Owner fields, maintained only in update mode (or for plain free).
        self._owners: Dict[Tuple[int, int], int] = {}
        self._update_mode = False
        # Word masks are built once per table and layout and kept on the
        # table (``ReservationTable.word_masks``), so the modules over a
        # machine, one per IMS attempt, share them.  ``_masks`` indexes
        # the ones this module uses by ``(op, cycle mod k)`` (relative
        # masks) or, under modulo, ``(op, cycle mod II)`` (placements).
        self._masks: Dict[Tuple[str, int], tuple] = {}

    # ------------------------------------------------------------------
    # Bit layout
    # ------------------------------------------------------------------
    def _cycle_key(self, cycle: int) -> int:
        """Schedule cycle normalized for the owner map (wraps for modulo)."""
        if self.modulo is not None:
            return cycle % self.modulo
        return cycle

    def _placement(
        self, op: str, cycle: int
    ) -> Tuple[Sequence[Tuple[int, int]], bool]:
        """``(masks, self_conflict)`` for ``op`` issued at ``cycle``.

        ``masks`` are the (absolute word index, mask) pairs in ascending
        word order; ``self_conflict`` says the op's own usages wrap onto
        one MRT slot (II below a self-forbidden latency), a placement
        that is never legal.
        """
        if self.modulo is None:
            base, alignment = divmod(cycle, self.word_cycles)
            key = (op, alignment)
            masks = self._masks.get(key)
            if masks is None:
                masks = self._masks[key] = self.machine.table(op).word_masks(
                    self.machine.resources, self.word_cycles, None, alignment
                )[0]
            return [(base + offset, mask) for offset, mask in masks], False
        key = (op, cycle % self.modulo)
        placement = self._masks.get(key)
        if placement is None:
            placement = self._masks[key] = self._modulo_placement(op, key[1])
        return placement

    def _modulo_placement(
        self, op: str, alignment: int
    ) -> Tuple[Sequence[Tuple[int, int]], bool]:
        """:meth:`_placement` under modulo, at MRT slot ``alignment``.

        Only a table that crosses the MRT end is folded per alignment;
        any other placement is the table's relative masks at in-word
        alignment ``alignment mod k`` moved by whole words, which every
        such alignment and II shares.
        """
        table = self.machine.table(op)
        rows, k = self.machine.resources, self.word_cycles
        if alignment + table.length > self.modulo:
            return table.word_masks(rows, k, self.modulo, alignment)
        base, offset = divmod(alignment, k)
        masks = table.word_masks(rows, k, None, offset)[0]
        return [(base + word, mask) for word, mask in masks], False

    def _usage_slots(self, op: str, cycle: int) -> List[Tuple[int, int]]:
        """(resource bit, cycle key) per usage — owner-map granularity."""
        table = self.machine.table(op)
        return [
            (self._bit_of[r], self._cycle_key(cycle + c))
            for r, c in table.iter_usages()
        ]

    # ------------------------------------------------------------------
    # Representation hooks
    # ------------------------------------------------------------------
    def _check(self, op: str, cycle: int) -> Tuple[bool, int]:
        masks, self_conflict = self._placement(op, cycle)
        if self_conflict:
            return False, 1
        units = 0
        for word, mask in masks:
            units += 1
            if self._words.get(word, 0) & mask:
                return False, units
        return True, units

    def _assign(self, token: ScheduledToken, with_owners: bool) -> int:
        units = 0
        for word, mask in self._placement(token.op, token.cycle)[0]:
            units += 1
            self._words[word] = self._words.get(word, 0) | mask
        if with_owners:
            for slot in self._usage_slots(token.op, token.cycle):
                self._owners[slot] = token.ident
        return units

    def _free(self, token: ScheduledToken, with_owners: bool) -> int:
        units = 0
        for word, mask in self._placement(token.op, token.cycle)[0]:
            units += 1
            remaining = self._words.get(word, 0) & ~mask
            if remaining:
                self._words[word] = remaining
            else:
                self._words.pop(word, None)
        if with_owners and self._update_mode:
            for slot in self._usage_slots(token.op, token.cycle):
                self._owners.pop(slot, None)
        return units

    def _assign_free(self, token: ScheduledToken) -> Tuple[List[ScheduledToken], int]:
        if not self._update_mode:
            # Optimistic mode: single word-level test-and-set pass.
            units = 0
            conflict = False
            placed = self._placement(token.op, token.cycle)[0]
            for word, mask in placed:
                units += 1
                if self._words.get(word, 0) & mask:
                    conflict = True
                    break
            if not conflict:
                for word, mask in placed:
                    self._words[word] = self._words.get(word, 0) | mask
                return [], units
            # Mode transition: rebuild owner fields by scanning the whole
            # scheduled-operation list (the paper's transition overhead).
            self._update_mode = True
            for scheduled in self._live.values():
                for slot in self._usage_slots(scheduled.op, scheduled.cycle):
                    units += 1
                    self._owners[slot] = scheduled.ident
            return self._assign_free_update(token, units)
        return self._assign_free_update(token, 0)

    def _assign_free_update(
        self, token: ScheduledToken, units: int
    ) -> Tuple[List[ScheduledToken], int]:
        """Update-mode assign&free: iterate usages, evicting owners.

        Work is one unit per usage of the incoming operation (the paper's
        update-mode cost) plus one per usage of each evicted operation
        (their entries must be cleared); the word-level bit updates ride
        along for free, as a word is handled together with its usages.
        """
        evicted: List[ScheduledToken] = []
        evicted_idents = set()
        for slot in self._usage_slots(token.op, token.cycle):
            units += 1
            owner = self._owners.get(slot)
            if (
                owner is not None
                and owner != token.ident
                and owner not in evicted_idents
            ):
                victim = self._live[owner]
                evicted_idents.add(owner)
                evicted.append(victim)
                for victim_slot in self._usage_slots(victim.op, victim.cycle):
                    units += 1
                    self._owners.pop(victim_slot, None)
                self._free(victim, with_owners=False)
            self._owners[slot] = token.ident
        self._assign(token, with_owners=False)
        return evicted, units

    def _reset_state(self) -> None:
        self._words.clear()
        self._owners.clear()
        self._update_mode = False

    # ------------------------------------------------------------------
    # Batched window scans
    # ------------------------------------------------------------------
    def check_range(self, op: str, start: int, stop: int) -> List[bool]:
        """Word-scan fast path: one charge for the whole window.

        Each reserved word is fetched once per scan no matter how many
        window cycles its masks test against it, so the scan costs one
        work unit per *distinct* word handled — the batched analogue of
        the per-``check`` word currency — instead of one per word per
        probed cycle.
        """
        fetched: Dict[int, int] = {}
        flags = [
            self._probe(op, cycle, fetched)
            for cycle in range(start, stop)
        ]
        self.work.charge(CHECK_RANGE, len(fetched))
        return flags

    def first_free(
        self, op: str, start: int, stop: int, direction: int = 1
    ) -> Optional[int]:
        """Word-scan fast path of the window scan (see :meth:`check_range`)."""
        fetched: Dict[int, int] = {}
        result = None
        for cycle in self._window(start, stop, direction):
            if self._probe(op, cycle, fetched):
                result = cycle
                break
        self.work.charge(CHECK_RANGE, len(fetched))
        return result

    def first_free_with_alternatives(
        self, op: str, start: int, stop: int, direction: int = 1
    ) -> Tuple[Optional[int], Optional[str]]:
        return self._first_free_by_variant(op, start, stop, direction)

    def _probe(self, op: str, cycle: int, fetched: Dict[int, int]) -> bool:
        """One contention test against the scan's word-fetch cache."""
        masks, self_conflict = self._placement(op, cycle)
        if self_conflict:
            return False
        for word, mask in masks:
            value = fetched.get(word)
            if value is None:
                value = self._words.get(word, 0)
                fetched[word] = value
            if value & mask:
                return False
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def in_update_mode(self) -> bool:
        """True after the first eviction forced owner-field maintenance."""
        return self._update_mode

    def word_at(self, index: int) -> int:
        """Raw reserved word at ``index`` (0 when untouched)."""
        return self._words.get(index, 0)

    def state_bits_per_cycle(self) -> int:
        """Reserved-table bits per schedule cycle: one per resource."""
        return self.machine.num_resources

    def bits_per_word(self) -> int:
        """Bits used in each packed word (``k`` cycles x resources)."""
        return self.word_cycles * self._stride
