"""The scheduling decision ledger: a bounded ring of placement records.

Where the :mod:`repro.obs.trace` plane answers *where did the time go*,
the ledger answers *why does the schedule look like this*: every
placement, forced placement, eviction and attempt of a scheduler run
appends one structured record — operation, candidate window, chosen
cycle, blocking blame, budget state — to a bounded
``collections.deque``.  The ring is cheap enough to leave on for whole
runs (one dict append per scheduler decision, no wall-clock reads, no
formatting); full per-call spans stay behind the existing
:class:`~repro.obs.trace.Tracer`.

The activation pattern mirrors the tracer exactly:

* schedulers capture the ledger once per run (``ledger =
  obs_ledger.current()``) and guard each emission with a plain
  ``is not None`` test, so the disabled path costs one module-global
  read per scheduler call;
* :func:`recording` activates a ledger for a block, restoring the
  previous one on exit (nesting-safe);
* like tracing, ledger state is process-global and not thread-safe by
  design (the schedulers are single-threaded).

``repro.obs`` stays a leaf package: blame and window payloads arrive as
plain dicts (see :meth:`repro.query.base.Blame.to_dict`), never as query
or scheduler objects.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

#: Record kinds emitted by the built-in schedulers.
PLACE = "place"
FORCE = "force"
EVICT = "evict"
ATTEMPT = "attempt"
GIVE_UP = "give_up"


class LedgerRecord:
    """One scheduler decision: a kind plus a flat payload dict."""

    __slots__ = ("seq", "kind", "data")

    def __init__(self, seq: int, kind: str, data: Dict[str, object]):
        self.seq = seq
        self.kind = kind
        self.data = data

    def to_dict(self) -> Dict[str, object]:
        doc: Dict[str, object] = {"seq": self.seq, "kind": self.kind}
        doc.update(self.data)
        return doc

    def __repr__(self) -> str:
        return "LedgerRecord(%d, %r, %r)" % (self.seq, self.kind, self.data)


class DecisionLedger:
    """Bounded ring buffer of scheduler decision records.

    Parameters
    ----------
    capacity:
        Maximum records retained; older records are dropped silently by
        the deque (the drop count stays observable as ``emitted -
        len(ledger)``).  The default comfortably holds every decision of
        the study-machine workloads while bounding memory for adversarial
        loops.
    """

    def __init__(self, capacity: int = 65536):
        if capacity < 1:
            raise ValueError("ledger capacity must be >= 1")
        self.capacity = capacity
        self.records: "deque[LedgerRecord]" = deque(maxlen=capacity)
        #: Total records emitted, including any the ring has dropped.
        self.emitted = 0
        #: Free-form run metadata (machine, representation, ...).
        self.meta: Dict[str, object] = {}

    # -- recording (the hot path) --------------------------------------
    def record(self, kind: str, data: Dict[str, object]) -> None:
        """Append one decision record (``data`` is stored, not copied)."""
        self.records.append(LedgerRecord(self.emitted, kind, data))
        self.emitted += 1

    # -- introspection -------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[LedgerRecord]:
        return iter(self.records)

    @property
    def dropped(self) -> int:
        """Records the ring has discarded to stay within capacity."""
        return self.emitted - len(self.records)

    def tail(self, count: int = 20) -> List[Dict[str, object]]:
        """The last ``count`` records as plain dicts (newest last)."""
        if count <= 0:
            return []
        window = list(self.records)[-count:]
        return [record.to_dict() for record in window]

    def clear(self) -> None:
        self.records.clear()
        self.emitted = 0

    def __repr__(self) -> str:
        return "DecisionLedger(%d/%d records, %d dropped)" % (
            len(self.records), self.capacity, self.dropped,
        )


# ----------------------------------------------------------------------
# The process-global active ledger (same switch pattern as the tracer).
# ----------------------------------------------------------------------
_current: Optional[DecisionLedger] = None


def current() -> Optional[DecisionLedger]:
    """The active ledger, or ``None`` when decision logging is off."""
    return _current


def enabled() -> bool:
    return _current is not None


def start(ledger: Optional[DecisionLedger] = None, **kwargs) -> DecisionLedger:
    """Activate ``ledger`` (or a fresh one built with ``kwargs``)."""
    global _current
    if ledger is None:
        ledger = DecisionLedger(**kwargs)
    _current = ledger
    return ledger


def stop() -> Optional[DecisionLedger]:
    """Deactivate decision logging and return the active ledger."""
    global _current
    ledger, _current = _current, None
    return ledger


@contextmanager
def recording(ledger: Optional[DecisionLedger] = None, **kwargs):
    """``with recording() as ledger:`` — activate for the block.

    Nesting restores the previously active ledger on exit.
    """
    global _current
    previous = _current
    active = ledger if ledger is not None else DecisionLedger(**kwargs)
    _current = active
    try:
        yield active
    finally:
        _current = previous


def active_tail(count: int = 20) -> Optional[List[Dict[str, object]]]:
    """Tail of the active ledger, or ``None`` when logging is off.

    The shape error paths attach to :class:`~repro.errors.ScheduleError`
    — callers never need to guard for an inactive ledger themselves.
    """
    ledger = _current
    if ledger is None:
        return None
    return ledger.tail(count)


__all__ = [
    "ATTEMPT",
    "DecisionLedger",
    "EVICT",
    "FORCE",
    "GIVE_UP",
    "LedgerRecord",
    "PLACE",
    "active_tail",
    "current",
    "enabled",
    "recording",
    "start",
    "stop",
]
