"""Modulo reservation tables for software pipelining (paper Section 8).

A modulo schedule issues one loop iteration every II cycles, so an
operation placed at schedule cycle ``t`` occupies resources at cycles
``(t + c) mod II`` of the *Modulo Reservation Table* (Patel & Davidson;
Rau's Iterative Modulo Scheduler).  Every query-module representation
supports a ``modulo=`` initiation interval natively; this module provides
the factory the scheduler uses to build them uniformly.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Type

from repro.core.machine import MachineDescription
from repro.obs.instrument import observed_class
from repro.obs.trace import current as _current_tracer
from repro.query.base import ContentionQueryModule
from repro.query.bitvector import BitvectorQueryModule
from repro.query.compiled import CompiledQueryModule
from repro.query.discrete import DiscreteQueryModule

DISCRETE = "discrete"
BITVECTOR = "bitvector"
COMPILED = "compiled"

#: Every representation :func:`make_query_module` builds: name ->
#: ``(class, takes word_cycles)``.  The paper's discrete and bitvector
#: pair plus the compiled kernel; every differential cross-check drives
#: all of them, and every CLI choice list reads this table.
_CLASSES: Dict[str, Tuple[Type[ContentionQueryModule], bool]] = {
    DISCRETE: (DiscreteQueryModule, False),
    BITVECTOR: (BitvectorQueryModule, True),
    COMPILED: (CompiledQueryModule, False),
}

REPRESENTATIONS = tuple(_CLASSES)


def make_query_module(
    machine: MachineDescription,
    representation: str = DISCRETE,
    word_cycles: int = 1,
    modulo: Optional[int] = None,
) -> ContentionQueryModule:
    """Build a contention query module.

    Parameters
    ----------
    machine:
        Machine description (original or reduced).
    representation:
        ``"discrete"``, ``"bitvector"`` or ``"compiled"`` (packed big-int
        masks plus pairwise collision bitsets; see
        :mod:`repro.query.compiled`).
    word_cycles:
        Cycle-bitvectors per word (bitvector representation only;
        ignored by the other representations).
    modulo:
        Initiation interval for a modulo reservation table; ``None`` gives
        an ordinary (scalar) reserved table.

    While an observability tracer is active (:func:`repro.obs.tracing`)
    the *observed* subclass is constructed instead, so every basic
    function call is timed and accounted (see
    :mod:`repro.obs.instrument`).  With tracing disabled the plain class
    is returned — the untraced hot path is untouched.
    """
    try:
        cls, takes_word_cycles = _CLASSES[representation]
    except KeyError:
        raise ValueError(
            "unknown representation %r (expected one of %s)"
            % (representation, REPRESENTATIONS)
        ) from None
    if _current_tracer() is not None:
        cls = observed_class(cls)
    if takes_word_cycles:
        return cls(machine, word_cycles=word_cycles, modulo=modulo)
    return cls(machine, modulo=modulo)
