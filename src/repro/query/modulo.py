"""Modulo reservation tables for software pipelining (paper Section 8).

A modulo schedule issues one loop iteration every II cycles, so an
operation placed at schedule cycle ``t`` occupies resources at cycles
``(t + c) mod II`` of the *Modulo Reservation Table* (Patel & Davidson;
Rau's Iterative Modulo Scheduler).  Every query-module representation
supports a ``modulo=`` initiation interval natively; this module provides
the factory the scheduler uses to build them uniformly, and the observed
subclasses the factory builds while a tracer is active.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Optional, Tuple, Type

from repro.core.machine import MachineDescription
from repro.obs.trace import current as _current_tracer
from repro.query.base import ContentionQueryModule
from repro.query.bitvector import BitvectorQueryModule
from repro.query.compiled import CompiledQueryModule
from repro.query.discrete import DiscreteQueryModule
from repro.query.work import ASSIGN, ASSIGN_FREE, CHECK, CHECK_RANGE, FREE

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

#: Timer name for ``first_free`` — its kernel work is charged in the
#: ``check_range`` unit currency, but wall time gets its own key so the
#: scan kernels are distinguishable in exports.
FIRST_FREE = "first_free"

_OBSERVED: Dict[type, type] = {}


def _timed(method_name: str, function: str, units_function: str = None):
    """Build an observed override for one basic function.

    ``units_function`` names the :class:`~repro.query.work.WorkCounters`
    key whose delta is attributed to the call; it defaults to
    ``function`` (the timer key) and only differs for the batched scan
    kernels, whose work is charged in the ``check_range`` currency while
    ``check_range`` and ``first_free`` keep separate timers.
    """
    if units_function is None:
        units_function = function

    def observed(self, *args, **kwargs):
        tracer = _current_tracer()
        inner = getattr(super(type(self), self), method_name)
        if tracer is None:
            return inner(*args, **kwargs)
        units_before = self.work.units[units_function]
        start = perf_counter()
        result = inner(*args, **kwargs)
        duration = perf_counter() - start
        op = args[0] if args and isinstance(args[0], str) else None
        cycle = args[1] if op is not None and len(args) > 1 else None
        tracer.record_query(
            function,
            start,
            duration,
            self.work.units[units_function] - units_before,
            op=op,
            cycle=cycle,
        )
        return result

    observed.__name__ = method_name
    observed.__qualname__ = "observed_" + method_name
    return observed


def observed_class(cls: Type) -> Type:
    """The observed subclass of a query-module class (cached).

    Its four basic functions (``check`` / ``assign`` / ``assign&free`` /
    ``free``) and the batched scan entry points are timed and accounted
    against the active tracer: each call reads its work-unit delta out
    of the module's own :class:`~repro.query.work.WorkCounters`, so wall
    time, call counts and work units land in one registry under
    ``query.<fn>`` keys.
    ``check_with_alternatives`` and ``first_free_with_alternatives`` are
    *not* wrapped because they are loops of ``check`` / ``first_free``
    calls — wrapping them too would double-count.

    :func:`make_query_module` selects the observed subclass only while
    a tracer is active, so an untraced run constructs the plain class
    and executes the exact original method bytecode (tested by
    ``tests/test_obs_overhead.py``).
    """
    try:
        return _OBSERVED[cls]
    except KeyError:
        pass
    namespace = {
        "__doc__": "Observed %s (see repro.query.modulo)." % cls.__name__,
        "check": _timed("check", CHECK),
        "assign": _timed("assign", ASSIGN),
        "assign_free": _timed("assign_free", ASSIGN_FREE),
        "free": _timed("free", FREE),
        "check_range": _timed("check_range", CHECK_RANGE),
        "first_free": _timed(
            "first_free", FIRST_FREE, units_function=CHECK_RANGE
        ),
    }
    derived = type("Observed" + cls.__name__, (cls,), namespace)
    _OBSERVED[cls] = derived
    return derived


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

    While an observability tracer is active
    (:func:`repro.obs.trace.tracing`) the *observed* subclass is
    constructed instead, so every basic function call is timed and
    accounted (see :func:`observed_class`).  With tracing disabled the
    plain class is returned — the untraced hot path is untouched.
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
