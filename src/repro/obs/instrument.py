"""Observed query-module classes.

:func:`observed_class` derives, per representation class, a subclass whose
four basic functions (``check`` / ``assign`` / ``assign&free`` / ``free``)
are timed and accounted against the active tracer.  The derivation is
cached, and :func:`repro.query.modulo.make_query_module` only selects the
observed subclass *while a tracer is active* — an untraced run constructs
the plain class and executes the exact original method bytecode, which is
what keeps the disabled-path overhead at zero (tested by
``tests/test_obs_overhead.py``).

The observed methods read the work-unit delta out of the module's own
:class:`~repro.query.work.WorkCounters` after each call, so wall time,
call counts, and work units land in one registry under ``query.<fn>``
keys and exporters can derive units-per-second directly.

``repro.obs`` stays import-independent of ``repro.query`` (the factory
imports *us*), so the function names are declared here and checked
against :data:`repro.query.work.FUNCTIONS` by the test-suite.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Type

from repro.obs.trace import current

#: Basic-function names — must mirror ``repro.query.work.FUNCTIONS``.
QUERY_CHECK = "check"
QUERY_ASSIGN = "assign"
QUERY_ASSIGN_FREE = "assign&free"
QUERY_FREE = "free"
QUERY_CHECK_RANGE = "check_range"
QUERY_COMPILE = "compile"
QUERY_ATTRIBUTE = "attribute"
#: Sampling-profiler ticks (:mod:`repro.obs.sampler`).  Not a query
#: method — no observed override exists — but the currency shares the
#: units registry (``query.sample.units``) so exporters and the bench
#: comparator see sampler work next to query work.
QUERY_SAMPLE = "sample"
QUERY_FUNCTIONS = (
    QUERY_CHECK,
    QUERY_ASSIGN,
    QUERY_ASSIGN_FREE,
    QUERY_FREE,
    QUERY_CHECK_RANGE,
    QUERY_COMPILE,
    QUERY_ATTRIBUTE,
    QUERY_SAMPLE,
)
#: Timer name for ``first_free`` — its kernel work is charged in the
#: ``check_range`` unit currency, but wall time gets its own key so the
#: scan kernels are distinguishable in exports.
QUERY_FIRST_FREE = "first_free"

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
        tracer = current()
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

    The subclass overrides the public basic functions plus the batched
    scan entry points; ``check_with_alternatives`` and
    ``first_free_with_alternatives`` are *not* wrapped because they are
    loops of ``check`` / ``first_free`` calls — wrapping them too would
    double-count.
    """
    try:
        return _OBSERVED[cls]
    except KeyError:
        pass
    namespace = {
        "__doc__": "Observed %s (see repro.obs.instrument)." % cls.__name__,
        "check": _timed("check", QUERY_CHECK),
        "assign": _timed("assign", QUERY_ASSIGN),
        "assign_free": _timed("assign_free", QUERY_ASSIGN_FREE),
        "free": _timed("free", QUERY_FREE),
        "check_range": _timed("check_range", QUERY_CHECK_RANGE),
        "first_free": _timed(
            "first_free", QUERY_FIRST_FREE, units_function=QUERY_CHECK_RANGE
        ),
        "check_attributed": _timed("check_attributed", QUERY_ATTRIBUTE),
    }
    derived = type("Observed" + cls.__name__, (cls,), namespace)
    _OBSERVED[cls] = derived
    return derived


__all__ = [
    "QUERY_ASSIGN",
    "QUERY_ASSIGN_FREE",
    "QUERY_ATTRIBUTE",
    "QUERY_CHECK",
    "QUERY_CHECK_RANGE",
    "QUERY_COMPILE",
    "QUERY_FIRST_FREE",
    "QUERY_FREE",
    "QUERY_FUNCTIONS",
    "QUERY_SAMPLE",
    "observed_class",
]
