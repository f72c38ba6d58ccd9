"""Spans, events, and the active-tracer switch.

The observability layer is *off by default* and its disabled path is
designed to cost as close to nothing as the interpreter allows:

* instrumentation sites call :func:`current` (one module-global read) and
  skip all bookkeeping when it returns ``None``;
* hot loops capture the tracer once (``tracer = obs.current()``) and
  guard each emission with a plain ``is not None`` test;
* the query-module factory only builds *observed* subclasses while a
  tracer is active, so an untraced scheduler run executes the exact
  pre-instrumentation bytecode of ``check``/``assign``/``free``
  (see ``tests/test_obs_overhead.py`` for the guard).

A :class:`Tracer` owns a :class:`~repro.obs.metrics.MetricsRegistry`
(unbounded-duration-safe aggregates) plus bounded lists of span and
instant-event records for the Chrome ``trace_event`` export.  When the
record cap is hit, new records are dropped and counted in
:attr:`Tracer.dropped` — aggregates keep accumulating regardless, so
metrics stay exact even when the trace is truncated.

Tracing state is process-global and not thread-safe by design (the
schedulers are single-threaded); see ``docs/observability.md``.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List, Optional

from repro.obs.metrics import MetricsRegistry

#: Span/event categories used by the built-in instrumentation.
CAT_REDUCE = "reduce"
CAT_SCHED = "sched"
CAT_QUERY = "query"
CAT_AUTOMATA = "automata"
CAT_PROFILE = "profile"
CAT_RESILIENCE = "resilience"


class SpanRecord:
    """One completed span: a named duration with optional arguments."""

    __slots__ = ("name", "category", "start", "duration", "args")

    def __init__(self, name, category, start, duration, args=None):
        self.name = name
        self.category = category
        self.start = start
        self.duration = duration
        self.args = args

    def __repr__(self) -> str:
        return "SpanRecord(%r, %r, %.6fs)" % (
            self.name, self.category, self.duration,
        )


class EventRecord:
    """One instant event (Chrome ``ph: "i"``)."""

    __slots__ = ("name", "category", "ts", "args")

    def __init__(self, name, category, ts, args=None):
        self.name = name
        self.category = category
        self.ts = ts
        self.args = args

    def __repr__(self) -> str:
        return "EventRecord(%r, %r)" % (self.name, self.category)


class _SpanContext:
    """Context manager recording one span on exit."""

    __slots__ = ("_tracer", "_name", "_category", "_args", "_start")

    def __init__(self, tracer, name, category, args):
        self._tracer = tracer
        self._name = name
        self._category = category
        self._args = args
        self._start = 0.0

    def __enter__(self) -> "_SpanContext":
        self._start = perf_counter()
        return self

    def set(self, **args) -> None:
        """Attach/overwrite span arguments before the span closes."""
        if self._args is None:
            self._args = {}
        self._args.update(args)

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = perf_counter()
        self._tracer.record_span(
            self._name,
            self._category,
            self._start,
            end - self._start,
            self._args,
        )
        return False


class _NullSpan:
    """Shared no-op span used whenever tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def set(self, **args) -> None:
        pass

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans, instant events, counters, and query timings.

    Parameters
    ----------
    max_records:
        Cap on stored span + event records (aggregated metrics are
        unaffected).  Chrome's trace viewer handles a few hundred
        thousand events comfortably; beyond the cap records are dropped
        and counted.
    trace_queries:
        Record one span per query-module call (``check`` / ``assign`` /
        ``assign&free`` / ``free``).  Aggregate query metrics are always
        kept; the per-call spans are only worth their volume when a
        Chrome trace is being written.
    """

    def __init__(self, max_records: int = 200_000,
                 trace_queries: bool = False):
        self.metrics = MetricsRegistry()
        self.spans: List[SpanRecord] = []
        self.events: List[EventRecord] = []
        self.max_records = max_records
        self.trace_queries = trace_queries
        self.dropped = 0
        self.epoch = perf_counter()
        #: Free-form metadata included in every export (machine, kernel,
        #: representation, ...).
        self.meta: Dict[str, object] = {}

    # -- recording -----------------------------------------------------
    def span(self, name: str, category: str = CAT_PROFILE, **args):
        """Context manager timing a block and recording it as a span."""
        return _SpanContext(self, name, category, args or None)

    def record_span(self, name, category, start, duration, args=None):
        self.metrics.observe("%s.%s" % (category, name), duration)
        if len(self.spans) + len(self.events) < self.max_records:
            self.spans.append(
                SpanRecord(name, category, start, duration, args)
            )
        else:
            self.dropped += 1

    def event(self, name: str, category: str = CAT_PROFILE, **args):
        """Record an instant event."""
        self.metrics.add("%s.%s" % (category, name))
        if len(self.spans) + len(self.events) < self.max_records:
            self.events.append(
                EventRecord(name, category, perf_counter(), args or None)
            )
        else:
            self.dropped += 1

    def count(self, name: str, value: float = 1) -> None:
        """Bump a named counter (no record, metrics only)."""
        self.metrics.add(name, value)

    def record_query(self, function: str, start: float, duration: float,
                     units: int, op: Optional[str] = None,
                     cycle: Optional[int] = None) -> None:
        """Account one query-module call (hot path when tracing).

        Wall time and call counts land next to the work units charged by
        :class:`~repro.query.work.WorkCounters`, so exporters can derive
        units-per-second and per-function latency distributions.
        """
        name = "query." + function
        self.metrics.observe(name, duration)
        self.metrics.histogram(name).observe(duration)
        self.metrics.add(name + ".units", units)
        if self.trace_queries:
            if len(self.spans) + len(self.events) < self.max_records:
                args = None
                if op is not None:
                    args = {"op": op, "cycle": cycle, "units": units}
                self.spans.append(
                    SpanRecord(function, CAT_QUERY, start, duration, args)
                )
            else:
                self.dropped += 1

    def merge(self, other: "Tracer") -> None:
        """Fold ``other``'s metrics and records into this tracer.

        Records beyond this tracer's cap are dropped and counted, as if
        they had been recorded here.
        """
        self.metrics.merge(other.metrics)
        self.dropped += other.dropped
        for source, target in (
            (other.spans, self.spans), (other.events, self.events),
        ):
            for record in source:
                if len(self.spans) + len(self.events) < self.max_records:
                    target.append(record)
                else:
                    self.dropped += 1

    # -- introspection -------------------------------------------------
    @property
    def num_records(self) -> int:
        return len(self.spans) + len(self.events)

    def __repr__(self) -> str:
        return "Tracer(%d spans, %d events, %d dropped)" % (
            len(self.spans), len(self.events), self.dropped,
        )


# ----------------------------------------------------------------------
# The process-global active tracer.
# ----------------------------------------------------------------------
_current: Optional[Tracer] = None


def current() -> Optional[Tracer]:
    """The active tracer, or ``None`` when tracing is disabled."""
    return _current


def enabled() -> bool:
    return _current is not None


def start(tracer: Optional[Tracer] = None, **kwargs) -> Tracer:
    """Activate ``tracer`` (or a fresh one built with ``kwargs``)."""
    global _current
    if tracer is None:
        tracer = Tracer(**kwargs)
    _current = tracer
    return tracer


def stop() -> Optional[Tracer]:
    """Deactivate tracing and return the tracer that was active."""
    global _current
    tracer, _current = _current, None
    return tracer


@contextmanager
def tracing(tracer: Optional[Tracer] = None, **kwargs):
    """``with tracing() as tracer:`` — activate for the block's duration.

    Nesting restores the previously active tracer on exit.
    """
    global _current
    previous = _current
    active = tracer if tracer is not None else Tracer(**kwargs)
    _current = active
    try:
        yield active
    finally:
        _current = previous


# -- module-level emission helpers (no-ops when disabled) --------------
def span(name: str, category: str = CAT_PROFILE, **args):
    """Span context manager on the active tracer; no-op when disabled."""
    tracer = _current
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, category, **args)


def event(name: str, category: str = CAT_PROFILE, **args) -> None:
    tracer = _current
    if tracer is not None:
        tracer.event(name, category, **args)


def count(name: str, value: float = 1) -> None:
    tracer = _current
    if tracer is not None:
        tracer.count(name, value)


__all__ = [
    "CAT_AUTOMATA",
    "CAT_PROFILE",
    "CAT_QUERY",
    "CAT_REDUCE",
    "CAT_RESILIENCE",
    "CAT_SCHED",
    "EventRecord",
    "SpanRecord",
    "Tracer",
    "count",
    "current",
    "enabled",
    "event",
    "span",
    "start",
    "stop",
    "tracing",
]
