"""Abstract contention query module (paper Section 7).

A contention query module answers, for a target machine and a partial
schedule: *can this operation be placed in this cycle without resource
contention?*  It supports the paper's four basic functions plus the
alternative-aware variant:

* ``check(op, cycle)`` — contention test, no state change;
* ``assign(op, cycle)`` — reserve the operation's resources;
* ``assign_free(op, cycle)`` — reserve, evicting conflicting operations
  (the backtracking primitive of Rau's Iterative Modulo Scheduler);
* ``free(token)`` — release a previously assigned operation;
* ``check_with_alternatives(op, cycle)`` — try each alternative operation
  and return the first contention-free one.

All implementations support *unrestricted scheduling*: operations may be
placed in arbitrary cycle order (including negative cycles, which model
resource requirements dangling across basic-block boundaries) and any
placement may later be reversed.

As in the paper, ``assign`` and ``assign_free`` must not be mixed within
one partial schedule: ``assign_free`` relies on owner bookkeeping that
plain ``assign`` does not maintain.  Mixing raises
:class:`~repro.errors.QueryError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.machine import MachineDescription
from repro.errors import QueryError
from repro.query.alternatives import FIRST_FIT, ROUND_ROBIN, order_variants
from repro.query.work import ASSIGN, ASSIGN_FREE, CHECK, FREE, WorkCounters

#: Blame kinds: a reserved-table collision with another scheduled
#: operation, or a self-conflict (two usages of the same operation folding
#: onto one MRT slot under modulo scheduling).
BLAME_RESERVED = "reserved"
BLAME_SELF = "self"


@dataclass(frozen=True)
class Blame:
    """Attribution for one failed contention check.

    The *canonical* blocked cell: among all blocked (resource, cycle)
    cells of the failed check, the one with the lexicographically
    smallest ``(cycle key, resource index)`` — where the cycle key is the
    absolute cycle for scalar scheduling and the MRT slot under modulo
    scheduling, and the resource index is the resource's position in
    ``machine.resources`` (the cell a packed ``reserved & mask`` test's
    lowest set bit decodes to).  A modulo self-conflict (the operation's
    own usages folding onto one MRT slot) takes precedence over
    reserved-table collisions.

    ``owner_op``/``owner_cycle`` name the placement holding the blamed
    cell: the variant it was placed as and its issue cycle.  A
    self-conflict has no owner.  See
    :func:`repro.scheduler.modulo.find_blame`.
    """

    resource: str
    cycle: int
    kind: str = BLAME_RESERVED
    owner_op: Optional[str] = None
    owner_cycle: Optional[int] = None

    @property
    def key(self) -> Tuple[str, int, str]:
        """The representation-independent identity ``(resource, cycle, kind)``."""
        return (self.resource, self.cycle, self.kind)

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form for decision events and JSON reports."""
        doc: Dict[str, object] = {
            "resource": self.resource,
            "cycle": self.cycle,
            "kind": self.kind,
        }
        if self.owner_op is not None:
            doc["owner_op"] = self.owner_op
        if self.owner_cycle is not None:
            doc["owner_cycle"] = self.owner_cycle
        return doc

    def describe(self) -> str:
        """One-line human rendering."""
        if self.kind == BLAME_SELF:
            return "%s self-conflict at slot %d" % (self.resource, self.cycle)
        text = "%s busy at cycle %d" % (self.resource, self.cycle)
        if self.owner_op is not None:
            text += " (held by %s" % self.owner_op
            if self.owner_cycle is not None:
                text += " @%d" % self.owner_cycle
            text += ")"
        return text


@dataclass(frozen=True)
class ScheduledToken:
    """Handle for one scheduled operation instance.

    Returned by ``assign``/``assign_free``; passed to ``free``.  Tokens are
    unique per assignment, so the same operation placed, freed, and placed
    again yields distinct tokens.
    """

    ident: int
    op: str
    cycle: int


class ContentionQueryModule:
    """Shared bookkeeping for all query-module representations."""

    def __init__(self, machine: MachineDescription):
        self.machine = machine
        self.work = WorkCounters()
        #: Probe-order policy for ``check_with_alternatives`` (see
        #: :mod:`repro.query.alternatives`).
        self.alternative_policy = FIRST_FIT
        self._next_ident = 0
        self._live: Dict[int, ScheduledToken] = {}
        self._used_assign = False
        self._used_assign_free = False
        self._alt_rotation: Dict[str, int] = {}
        self._live_op_counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Representation hooks (implemented by subclasses)
    # ------------------------------------------------------------------
    def _check(self, op: str, cycle: int) -> Tuple[bool, int]:
        """Return ``(is_free, work_units)``."""
        raise NotImplementedError

    def _assign(self, token: ScheduledToken, with_owners: bool) -> int:
        """Reserve resources; return work units."""
        raise NotImplementedError

    def _free(self, token: ScheduledToken, with_owners: bool) -> int:
        """Release resources; return work units."""
        raise NotImplementedError

    def _assign_free(self, token: ScheduledToken) -> Tuple[List[ScheduledToken], int]:
        """Reserve, evicting owners of conflicting resources.

        Returns ``(evicted tokens, work units)``.
        """
        raise NotImplementedError

    def _reset_state(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    def check(self, op: str, cycle: int) -> bool:
        """True when ``op`` can issue at ``cycle`` without contention."""
        free, units = self._check(op, cycle)
        self.work.charge(CHECK, units)
        return free

    def assign(self, op: str, cycle: int) -> ScheduledToken:
        """Reserve the resources of ``op`` issued at ``cycle``.

        The caller is responsible for having checked first; assigning over
        a conflict corrupts the reserved table (as in the paper's modules,
        which do no double bookkeeping for speed).
        """
        if self._used_assign_free:
            raise QueryError("cannot mix assign with assign_free")
        self._used_assign = True
        token = self._make_token(op, cycle)
        units = self._assign(token, with_owners=False)
        self.work.charge(ASSIGN, units)
        self._live[token.ident] = token
        self._count_op(op, +1)
        return token

    def assign_free(
        self, op: str, cycle: int
    ) -> Tuple[ScheduledToken, List[ScheduledToken]]:
        """Reserve resources, evicting any conflicting scheduled operations.

        Returns the new token and the (possibly empty) list of evicted
        tokens, which the scheduler must re-schedule.
        """
        if self._used_assign:
            raise QueryError("cannot mix assign_free with assign")
        self._used_assign_free = True
        token = self._make_token(op, cycle)
        evicted, units = self._assign_free(token)
        self.work.charge(ASSIGN_FREE, units)
        for gone in evicted:
            self._live.pop(gone.ident, None)
            self._count_op(gone.op, -1)
        self._live[token.ident] = token
        self._count_op(op, +1)
        return token, evicted

    def free(self, token: ScheduledToken) -> None:
        """Release the resources held by ``token``."""
        if token.ident not in self._live:
            raise QueryError("token %r is not scheduled" % (token,))
        units = self._free(token, with_owners=self._used_assign_free)
        self.work.charge(FREE, units)
        del self._live[token.ident]
        self._count_op(token.op, -1)

    def check_range(self, op: str, start: int, stop: int) -> List[bool]:
        """Batched contention test over ``range(start, stop)``.

        Returns one boolean per cycle of the window, in window order.
        The base implementation is a loop of :meth:`check` calls (one
        ``check`` charge per probed cycle, exactly as if the caller had
        looped); representations with word-level or compiled kernels
        override this with a single scan charged in the ``check_range``
        currency.
        """
        return [self.check(op, cycle) for cycle in range(start, stop)]

    def first_free(
        self, op: str, start: int, stop: int, direction: int = 1
    ) -> Optional[int]:
        """First contention-free cycle for ``op`` in ``range(start, stop)``.

        ``direction=1`` scans the window upward from ``start``;
        ``direction=-1`` scans downward from ``stop - 1`` (the
        lifetime-sensitive placement order).  Returns ``None`` when every
        cycle of the window is contended.  The base implementation loops
        :meth:`check`; fast backends override it with a batched kernel.
        """
        for cycle in self._window(start, stop, direction):
            if self.check(op, cycle):
                return cycle
        return None

    def first_free_with_alternatives(
        self, op: str, start: int, stop: int, direction: int = 1
    ) -> Tuple[Optional[int], Optional[str]]:
        """First ``(cycle, alternative)`` schedulable in the window.

        The window is scanned cycle-major (every alternative is probed at
        a cycle before the next cycle is considered), so the result is
        identical to looping :meth:`check_with_alternatives` over the
        window: the same answer, rotation and :meth:`check` calls.  A
        scan never assigns, so the probe order cannot change mid-scan
        and is computed once per window.  Returns ``(None, None)`` when
        the window is exhausted; an empty window resolves nothing.
        """
        window = self._window(start, stop, direction)
        if not window:
            return None, None
        variants, ordered = self._probe_order(op)
        check = self.check
        for cycle in window:
            for alternative in ordered:
                if check(alternative, cycle):
                    self._rotate(op, variants)
                    return cycle, alternative
        return None, None

    def _first_free_by_variant(
        self, op: str, start: int, stop: int, direction: int = 1
    ) -> Tuple[Optional[int], Optional[str]]:
        """Variant-major window scan for batched backends.

        Runs one :meth:`first_free` kernel per ordered alternative,
        shrinking the window after every hit so later variants must
        strictly improve on the best cycle found so far.  Ties therefore
        go to the earlier variant in probe order — the same answer the
        cycle-major scan produces, at one batched kernel per variant.
        Backends that override :meth:`first_free` use this as their
        :meth:`first_free_with_alternatives`.
        """
        variants, ordered = self._probe_order(op)
        best_cycle: Optional[int] = None
        best_variant: Optional[str] = None
        lo, hi = start, stop
        for alternative in ordered:
            if lo >= hi:
                break
            cycle = self.first_free(alternative, lo, hi, direction)
            if cycle is None:
                continue
            best_cycle = cycle
            best_variant = alternative
            # Later variants must find a strictly better cycle.
            if direction >= 0:
                hi = cycle
            else:
                lo = cycle + 1
        if best_variant is not None:
            self._rotate(op, variants)
        return best_cycle, best_variant

    @staticmethod
    def _window(start: int, stop: int, direction: int) -> range:
        """Window cycles in scan order (upward or downward)."""
        if direction >= 0:
            return range(start, stop)
        return range(stop - 1, start - 1, -1)

    def check_with_alternatives(self, op: str, cycle: int) -> Optional[str]:
        """First alternative of ``op`` schedulable at ``cycle``, or ``None``.

        Implemented, as in the paper, by repeatedly calling ``check`` for
        each alternative operation until one succeeds.  The probe order is
        governed by :attr:`alternative_policy` — the paper's first-fit by
        default, with round-robin and least-used available (the "more
        efficient techniques" the paper leaves open).
        """
        variants, ordered = self._probe_order(op)
        for alternative in ordered:
            if self.check(alternative, cycle):
                self._rotate(op, variants)
                return alternative
        return None

    def _probe_order(self, op: str) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        """``(declared variants, probe order)`` of ``op`` under the policy."""
        variants = self.machine.alternatives_of(op)
        return variants, order_variants(
            self.alternative_policy,
            variants,
            self._alt_rotation.get(op, 0),
            self._live_op_counts,
        )

    def _rotate(self, op: str, variants: Tuple[str, ...]) -> None:
        """Advance the round-robin start after ``op`` found a variant."""
        if self.alternative_policy == ROUND_ROBIN and len(variants) > 1:
            self._alt_rotation[op] = self._alt_rotation.get(op, 0) + 1

    def scheduled(self) -> List[ScheduledToken]:
        """Currently scheduled tokens, in assignment order."""
        return [self._live[ident] for ident in sorted(self._live)]

    def reset(self) -> None:
        """Clear the partial schedule (work counters are kept)."""
        self._live.clear()
        self._used_assign = False
        self._used_assign_free = False
        self._alt_rotation.clear()
        self._live_op_counts.clear()
        self._reset_state()

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _count_op(self, op: str, delta: int) -> None:
        count = self._live_op_counts.get(op, 0) + delta
        if count:
            self._live_op_counts[op] = count
        else:
            self._live_op_counts.pop(op, None)

    def _make_token(self, op: str, cycle: int) -> ScheduledToken:
        if op not in self.machine:
            raise QueryError("unknown operation %r" % op)
        token = ScheduledToken(self._next_ident, op, cycle)
        self._next_ident += 1
        return token

    def __repr__(self) -> str:
        return "%s(%r, %d scheduled)" % (
            type(self).__name__,
            self.machine.name,
            len(self._live),
        )
