"""Compiled-representation contention query module (query compilation).

Where the discrete and bitvector representations interpret reservation
tables at query time, this module *compiles* the machine description once
and answers queries with arbitrary-precision integer arithmetic:

* **Packed reservation masks** — each operation's reservation table is
  packed into one big integer (bit = ``cycle * stride + resource``), and
  the reserved table is one integer too, so a ``check`` is a single
  shift-AND no matter how many usages the table has.
* **Pairwise collision bitsets** — from the Step-1 forbidden latency
  matrix ``F[X][Y] = {y - z}``, one bitset per (operation class x
  operation class) pair records every forbidden issue distance.  A
  contention test against an already-placed operation is then one
  integer AND of the shifted bitset, and the batched ``first_free`` /
  ``check_range`` kernels OR one shifted bitset per *distinct* live
  (class, cycle) pair to clear a whole candidate window at once —
  instead of one table walk per window cycle.

The machine-level artifacts (masks, matrix, collision bitsets) are
memoized per machine description in a small LRU, and their construction
cost is charged to the ``compile`` work function on *every* module
construction — deterministically, whether the kernel was memoized or
freshly built — so benchmark work counters never depend on cache warmth.
Per-II folded masks for modulo reservation tables are built lazily per
module and charged the same way.

Work currency: ``check`` costs one unit (one AND); a batched scan costs
one unit per collision bitset handled plus one for the window itself,
charged as ``check_range``; ``assign&free`` follows the paper's
optimistic/update-mode protocol with the same per-usage units as the
other representations.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.core.forbidden import ForbiddenLatencyMatrix
from repro.core.machine import MachineDescription
from repro.obs import trace as obs
from repro.query.base import ContentionQueryModule, ScheduledToken
from repro.query.work import CHECK_RANGE, COMPILE


class CompiledKernel:
    """The II-independent compiled artifacts of one machine description.

    Built once per machine (see :func:`compiled_kernel`) and shared by
    every :class:`CompiledQueryModule` over that machine.  All fields
    are immutable after construction.
    """

    __slots__ = (
        "bit_of",
        "stride",
        "masks",
        "spans",
        "matrix",
        "offset",
        "rep_of",
        "pair_bits",
        "build_units",
    )

    def __init__(self, machine: MachineDescription):
        self.bit_of = {r: i for i, r in enumerate(machine.resources)}
        self.stride = max(1, machine.num_resources)
        units = 0
        self.masks: Dict[str, int] = {}
        self.spans: Dict[str, int] = {}
        for op in machine.operation_names:
            table = machine.table(op)
            mask = 0
            for resource, cycle in table.iter_usages():
                mask |= 1 << (cycle * self.stride + self.bit_of[resource])
                units += 1
            self.masks[op] = mask
            self.spans[op] = table.length
        matrix = ForbiddenLatencyMatrix.from_machine(machine)
        self.matrix = matrix
        #: Bias added to a forbidden latency so bitset indices are >= 0.
        self.offset = matrix.max_latency
        rep_of: Dict[str, str] = {}
        for members in matrix.operation_classes():
            for op in members:
                rep_of[op] = members[0]
        self.rep_of = rep_of
        # One collision bitset per (class representative, class
        # representative) pair with a non-empty forbidden set: bit
        # ``f + offset`` is set iff issuing X ``f`` cycles after Y
        # conflicts.  Class members share rows/columns by definition, so
        # compiling per class is exact and smaller than per operation.
        pair_bits: Dict[Tuple[str, str], int] = {}
        representatives = sorted(set(rep_of.values()))
        for rep_x in representatives:
            for rep_y in representatives:
                latencies = matrix.latencies(rep_x, rep_y)
                if not latencies:
                    continue
                bits = 0
                for latency in latencies:
                    bits |= 1 << (latency + self.offset)
                    units += 1
                pair_bits[(rep_x, rep_y)] = bits
        self.pair_bits = pair_bits
        #: Deterministic construction cost (usages packed + forbidden
        #: latencies folded), charged per module construction.
        self.build_units = units


#: Per-machine kernel memo (LRU): keyed by the description itself, whose
#: equality compares operations/resources/alternatives/latencies.
_KERNEL_CACHE: "OrderedDict[MachineDescription, CompiledKernel]" = (
    OrderedDict()
)
_KERNEL_CACHE_LIMIT = 32


def compiled_kernel(machine: MachineDescription) -> CompiledKernel:
    """The compiled kernel of ``machine`` (memoized, LRU-bounded)."""
    kernel = _KERNEL_CACHE.get(machine)
    if kernel is not None:
        _KERNEL_CACHE.move_to_end(machine)
        return kernel
    with obs.span("kernel.compile", obs.CAT_QUERY, machine=machine.name):
        kernel = CompiledKernel(machine)
    _KERNEL_CACHE[machine] = kernel
    while len(_KERNEL_CACHE) > _KERNEL_CACHE_LIMIT:
        _KERNEL_CACHE.popitem(last=False)
    return kernel


def clear_kernel_cache() -> None:
    """Drop all memoized kernels (tests / memory pressure)."""
    _KERNEL_CACHE.clear()


class CompiledQueryModule(ContentionQueryModule):
    """Query module over packed big-int masks and collision bitsets.

    Parameters
    ----------
    machine:
        Machine description; its resource order defines bit positions.
    modulo:
        Optional initiation interval: cycles wrap, making this a Modulo
        Reservation Table for software pipelining.
    """

    def __init__(
        self, machine: MachineDescription, modulo: Optional[int] = None
    ):
        super().__init__(machine)
        if modulo is not None and modulo < 1:
            raise ValueError("modulo initiation interval must be >= 1")
        self.modulo = modulo
        self._kernel = compiled_kernel(machine)
        # The reserved table: one big integer.  Scalar tables bias the
        # cycle axis so negative cycles (dangling block-boundary
        # requirements) stay at non-negative bit positions; modulo
        # tables are a ring of ``II * stride`` bits.
        self._reserved = 0
        self._bias = 0
        # Owner fields, maintained only in update mode (or plain free).
        self._owners: Dict[Tuple[int, int], int] = {}
        self._update_mode = False
        # Per-II lazy folds (modulo only): operation masks folded onto
        # the MRT ring, and collision bitsets folded mod II.
        self._fold_cache: Dict[Tuple[str, int], Tuple[int, bool]] = {}
        self._pair_fold: Dict[Tuple[str, str], int] = {}
        # Modulo only: live count per distinct (class, MRT slot) source,
        # kept by _set_bits/_clear_bits, and per scanning class the
        # folded collision ring rotated to each source slot.
        self._sources: Dict[Tuple[str, int], int] = {}
        self._rings: Dict[str, Dict[Tuple[str, int], int]] = {}
        self._charge_compile(self._kernel.build_units)

    def _charge_compile(self, units: int) -> None:
        """Charge compilation work (deterministic per construction)."""
        self.work.charge(COMPILE, units)
        obs.count("query.compile.units", max(1, units))

    # ------------------------------------------------------------------
    # Packed-mask arithmetic
    # ------------------------------------------------------------------
    def _mask_of(self, op: str) -> int:
        mask = self._kernel.masks.get(op)
        if mask is None:
            # Raise the canonical unknown-operation error.
            self.machine.table(op)
        return mask

    def _bit_shift(self, cycle: int) -> int:
        """Bit shift of ``cycle`` in the scalar reserved int (grows bias)."""
        position = cycle + self._bias
        if position < 0:
            grow = -position
            self._reserved <<= grow * self._kernel.stride
            self._bias += grow
            position = 0
        return position * self._kernel.stride

    def _placed_mask(self, op: str, cycle: int) -> int:
        """The op's packed mask, positioned for ``cycle`` (scalar tables)."""
        mask = self._mask_of(op)
        shift = (cycle + self._bias) * self._kernel.stride
        if shift >= 0:
            return mask << shift
        # The table head hangs below the biased origin; reserved bits
        # only exist at non-negative positions, so dropping the low
        # cycles is exact for contention tests.
        return mask >> -shift

    def _fold(self, op: str, alignment: int) -> Tuple[int, bool]:
        """The op's mask folded onto the MRT ring at ``alignment``.

        Returns ``(mask, self_conflict)``; a fold that puts two usages
        of one resource onto the same MRT slot (II below a
        self-forbidden latency) makes every placement at this II
        illegal.  Built lazily per (op, alignment), charged to
        ``compile``.
        """
        key = (op, alignment)
        entry = self._fold_cache.get(key)
        if entry is None:
            modulo = self.modulo
            stride = self._kernel.stride
            bit_of = self._kernel.bit_of
            self._mask_of(op)  # canonical unknown-operation error
            mask = 0
            self_conflict = False
            units = 0
            for resource, use_cycle in self.machine.table(op).iter_usages():
                bit = 1 << (
                    ((alignment + use_cycle) % modulo) * stride
                    + bit_of[resource]
                )
                if mask & bit:
                    self_conflict = True
                mask |= bit
                units += 1
            entry = (mask, self_conflict)
            self._fold_cache[key] = entry
            self._charge_compile(units)
        return entry

    def _pair_ring(self, rep_x: str, rep_y: str) -> int:
        """Collision bitset of (X class, Y class) folded mod II (lazy)."""
        key = (rep_x, rep_y)
        bits = self._pair_fold.get(key)
        if bits is None:
            latencies = self._kernel.matrix.latencies(rep_x, rep_y)
            bits = 0
            for latency in latencies:
                bits |= 1 << (latency % self.modulo)
            self._pair_fold[key] = bits
            self._charge_compile(len(latencies))
        return bits

    def _rotated_ring(self, rep_x: str, rep_y: str, rotation: int) -> int:
        """:meth:`_pair_ring` rotated left by ``rotation`` MRT slots."""
        bits = self._pair_ring(rep_x, rep_y)
        if rotation:
            modulo = self.modulo
            bits = (
                (bits << rotation) | (bits >> (modulo - rotation))
            ) & ((1 << modulo) - 1)
        return bits

    def _cycle_key(self, cycle: int) -> int:
        if self.modulo is not None:
            return cycle % self.modulo
        return cycle

    def _usage_slots(self, op: str, cycle: int) -> List[Tuple[int, int]]:
        """(resource bit, cycle key) per usage — owner-map granularity."""
        bit_of = self._kernel.bit_of
        return [
            (bit_of[resource], self._cycle_key(cycle + use_cycle))
            for resource, use_cycle in self.machine.table(op).iter_usages()
        ]

    # ------------------------------------------------------------------
    # Representation hooks
    # ------------------------------------------------------------------
    def _check(self, op: str, cycle: int) -> Tuple[bool, int]:
        if self.modulo is None:
            return not (self._reserved & self._placed_mask(op, cycle)), 1
        mask, self_conflict = self._fold(op, cycle % self.modulo)
        if self_conflict:
            return False, 1
        return not (self._reserved & mask), 1

    def _set_bits(self, op: str, cycle: int) -> None:
        if self.modulo is None:
            shift = self._bit_shift(cycle)
            self._reserved |= self._mask_of(op) << shift
        else:
            slot = cycle % self.modulo
            mask, _self_conflict = self._fold(op, slot)
            self._reserved |= mask
            source = (self._kernel.rep_of[op], slot)
            self._sources[source] = self._sources.get(source, 0) + 1

    def _clear_bits(self, op: str, cycle: int) -> None:
        if self.modulo is None:
            shift = self._bit_shift(cycle)
            self._reserved &= ~(self._mask_of(op) << shift)
        else:
            slot = cycle % self.modulo
            mask, _self_conflict = self._fold(op, slot)
            self._reserved &= ~mask
            source = (self._kernel.rep_of[op], slot)
            count = self._sources[source] - 1
            if count:
                self._sources[source] = count
            else:
                del self._sources[source]

    def _assign(self, token: ScheduledToken, with_owners: bool) -> int:
        self._set_bits(token.op, token.cycle)
        if with_owners:
            for slot in self._usage_slots(token.op, token.cycle):
                self._owners[slot] = token.ident
        return 1

    def _free(self, token: ScheduledToken, with_owners: bool) -> int:
        self._clear_bits(token.op, token.cycle)
        if with_owners and self._update_mode:
            for slot in self._usage_slots(token.op, token.cycle):
                self._owners.pop(slot, None)
        return 1

    def _assign_free(
        self, token: ScheduledToken
    ) -> Tuple[List[ScheduledToken], int]:
        if not self._update_mode:
            # Optimistic mode: one AND decides, one OR commits.
            units = 1
            if self.modulo is None:
                placed = self._placed_mask(token.op, token.cycle)
            else:
                placed, _ = self._fold(token.op, token.cycle % self.modulo)
            if not (self._reserved & placed):
                self._set_bits(token.op, token.cycle)
                return [], units
            # Mode transition: rebuild owner fields by scanning the
            # whole scheduled-operation list (the paper's transition
            # overhead), then stay in update mode.
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
        """Update-mode assign&free: iterate usages, evicting owners."""
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
                for victim_slot in self._usage_slots(
                    victim.op, victim.cycle
                ):
                    units += 1
                    self._owners.pop(victim_slot, None)
                self._free(victim, with_owners=False)
            self._owners[slot] = token.ident
        self._assign(token, with_owners=False)
        return evicted, units

    def _reset_state(self) -> None:
        self._reserved = 0
        self._bias = 0
        self._owners.clear()
        self._sources.clear()
        self._update_mode = False

    # ------------------------------------------------------------------
    # Batched window scans (the collision-bitset kernels)
    # ------------------------------------------------------------------
    def _blocked_window(
        self, op: str, start: int, width: int
    ) -> Tuple[int, int]:
        """Blocked-cycle bitset of the window, plus its work units.

        Bit ``i`` set means ``start + i`` is contended for ``op``.  For
        modulo tables the result has ``min(width, II)`` meaningful bits
        (positions repeat mod II); scalar tables get ``width`` bits.
        One unit per distinct live (class, cycle) collision bitset
        handled, plus one for the window itself.  Modulo scans walk the
        kept distinct sources and OR their cached rotated rings.
        """
        kernel = self._kernel
        rep_x = kernel.rep_of.get(op)
        if rep_x is None:
            self.machine.table(op)  # canonical unknown-operation error
        units = 1
        blocked = 0
        if self.modulo is None:
            offset = kernel.offset
            pair_bits = kernel.pair_bits
            seen = set()
            for token in self._live.values():
                source = (kernel.rep_of[token.op], token.cycle)
                if source in seen:
                    continue
                seen.add(source)
                bits = pair_bits.get((rep_x, source[0]))
                if not bits:
                    continue
                units += 1
                distance = start - token.cycle + offset
                if distance >= 0:
                    blocked |= bits >> distance
                else:
                    blocked |= bits << -distance
            return blocked & ((1 << width) - 1), units

        modulo = self.modulo
        effective = min(width, modulo)
        window_mask = (1 << effective) - 1
        _mask, self_conflict = self._fold(op, start % modulo)
        if self_conflict:
            # A self-wrapping fold is alignment-independent: every slot
            # of this II is illegal for the operation.
            return window_mask, units
        rings = self._rings.get(rep_x)
        if rings is None:
            rings = self._rings[rep_x] = {}
        ring = 0
        for source in self._sources:
            bits = rings.get(source)
            if bits is None:
                bits = rings[source] = self._rotated_ring(rep_x, *source)
            if bits:
                units += 1
                ring |= bits
        shift = start % modulo
        if shift:
            ring = (
                (ring >> shift) | (ring << (modulo - shift))
            ) & ((1 << modulo) - 1)
        return ring & window_mask, units

    def check_range(self, op: str, start: int, stop: int) -> List[bool]:
        """Batched contention test: one collision-bitset scan per window."""
        width = stop - start
        if width <= 0:
            self.work.charge(CHECK_RANGE, 1)
            return []
        blocked, units = self._blocked_window(op, start, width)
        self.work.charge(CHECK_RANGE, units)
        effective = width
        if self.modulo is not None:
            effective = min(width, self.modulo)
        return [
            not (blocked >> (i % effective)) & 1 for i in range(width)
        ]

    def first_free(
        self, op: str, start: int, stop: int, direction: int = 1
    ) -> Optional[int]:
        """Batched window scan: find the first clear bit of the window."""
        width = stop - start
        if width <= 0:
            self.work.charge(CHECK_RANGE, 1)
            return None
        blocked, units = self._blocked_window(op, start, width)
        self.work.charge(CHECK_RANGE, units)
        effective = width
        if self.modulo is not None:
            effective = min(width, self.modulo)
        offset = self._pick_free(blocked, width, effective, direction)
        if offset is None:
            return None
        return start + offset

    @staticmethod
    def _pick_free(
        blocked: int, width: int, effective: int, direction: int
    ) -> Optional[int]:
        """Window-relative position of the first clear bit, or ``None``."""
        free_bits = ~blocked & ((1 << effective) - 1)
        if not free_bits:
            return None
        if direction >= 0:
            return (free_bits & -free_bits).bit_length() - 1
        if width <= effective:
            return free_bits.bit_length() - 1
        # Downward scan over a window wider than the ring: the best
        # position of each free residue is its last repetition below
        # the window end.
        best = -1
        bits = free_bits
        while bits:
            low = bits & -bits
            residue = low.bit_length() - 1
            bits ^= low
            position = residue + effective * (
                (width - 1 - residue) // effective
            )
            if position > best:
                best = position
        return best

    def first_free_with_alternatives(
        self, op: str, start: int, stop: int, direction: int = 1
    ) -> Tuple[Optional[int], Optional[str]]:
        return self._first_free_by_variant(op, start, stop, direction)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def in_update_mode(self) -> bool:
        """True after the first eviction forced owner-field maintenance."""
        return self._update_mode

    def state_bits_per_cycle(self) -> int:
        """Reserved-table bits per schedule cycle: one per resource."""
        return self.machine.num_resources

    @property
    def kernel(self) -> CompiledKernel:
        """The memoized machine-level compiled kernel."""
        return self._kernel


__all__ = [
    "CompiledKernel",
    "CompiledQueryModule",
    "clear_kernel_cache",
    "compiled_kernel",
]
