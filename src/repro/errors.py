"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class MachineDescriptionError(ReproError):
    """An invalid machine description (bad resource names, cycles, ...)."""


class ReductionError(ReproError):
    """The reduction pipeline failed to produce an exact reduced machine."""


#: Mismatch pairs rendered by ``str(EquivalenceError)`` before eliding.
MISMATCH_RENDER_LIMIT = 20


def render_mismatch(mismatch):
    """Render one ``(op_x, op_y, only_in_first, only_in_second)`` mismatch.

    Names the operation (class) pair *and* the latencies unique to each
    side, so an equivalence failure is actionable without re-running the
    comparison: ``mul/load (first-only={2, 5}; second-only={3})``.
    """
    op_x, op_y, only_a, only_b = mismatch
    parts = []
    if only_a:
        parts.append(
            "first-only={%s}" % ", ".join(str(f) for f in sorted(only_a))
        )
    if only_b:
        parts.append(
            "second-only={%s}" % ", ".join(str(f) for f in sorted(only_b))
        )
    detail = "; ".join(parts) if parts else "no latency delta"
    return "%s/%s (%s)" % (op_x, op_y, detail)


def render_mismatches(mismatches, limit=MISMATCH_RENDER_LIMIT):
    """Render a mismatch list, eliding entries past ``limit``.

    Shared by ``str(EquivalenceError)`` and the ``repro certify`` failure
    output so both report the same actionable witness pairs.
    """
    shown = list(mismatches[:limit])
    pairs = ", ".join(render_mismatch(entry) for entry in shown)
    remainder = len(mismatches) - len(shown)
    if remainder > 0:
        pairs += " … and %d more" % remainder
    return pairs


class EquivalenceError(ReductionError):
    """Two machine descriptions do not induce the same forbidden latencies.

    Attributes
    ----------
    mismatches:
        List of ``(op_x, op_y, only_in_first, only_in_second)`` tuples
        describing operation pairs whose forbidden latency sets differ.
        The full list is always kept; rendering caps the pairs shown at
        :data:`MISMATCH_RENDER_LIMIT` so errors on large machines stay
        readable.  Each rendered entry names the pair and the violating
        latencies on each side (see :func:`render_mismatch`).
    """

    def __init__(self, message, mismatches=None):
        super().__init__(message)
        self.mismatches = list(mismatches or [])

    def __str__(self):
        base = super().__str__()
        if not self.mismatches:
            return base
        return "%s [mismatches: %s]" % (
            base, render_mismatches(self.mismatches)
        )


class CertificateError(ReductionError):
    """A preservation certificate failed validation.

    Raised by :func:`repro.core.certificate.check_certificate` when a
    certificate does not bind to the descriptions under check, or when
    the reduced description's generated latencies and the certified
    instance set disagree.  Where the failure is a concrete latency, the
    witness fields name it so the report is actionable without re-running
    the reduction.

    Attributes
    ----------
    kind:
        What failed: ``"schema"``, ``"binding"``, ``"classes"``,
        ``"soundness"``, ``"coverage"``, or ``"matrix"``.
    instance:
        The canonical ``(op_x, op_y, latency)`` instance at fault, when
        the failure is tied to a single forbidden latency.
    row:
        The reduced resource (row) the witness usages live in.
    usage_x / usage_y:
        The ``(operation, cycle)`` usages forming the witness pair.
    """

    def __init__(self, message, kind=None, instance=None, row=None,
                 usage_x=None, usage_y=None):
        super().__init__(message)
        self.kind = kind
        self.instance = tuple(instance) if instance is not None else None
        self.row = row
        self.usage_x = tuple(usage_x) if usage_x is not None else None
        self.usage_y = tuple(usage_y) if usage_y is not None else None


class ScheduleError(ReproError):
    """A scheduler failed to produce a valid schedule.

    Attributes
    ----------
    ii_range:
        ``(first_ii, last_ii)`` tried before giving up, or ``None`` when
        the failure is not tied to an II search.
    attempts:
        Per-II :class:`~repro.scheduler.modulo.AttemptStats` records (empty
        when unavailable) — retry logic inspects these instead of parsing
        the message.
    budget_exceeded:
        True when at least one attempt ran out of its scheduling-decision
        budget (i.e. escalating the budget may help; a structural failure
        will not).
    """

    def __init__(self, message, ii_range=None, attempts=None,
                 budget_exceeded=False):
        super().__init__(message)
        self.ii_range = tuple(ii_range) if ii_range is not None else None
        self.attempts = list(attempts or [])
        self.budget_exceeded = bool(budget_exceeded)


class BudgetExceeded(ReproError):
    """A deadline or work-unit budget ran out at a phase boundary.

    Attributes
    ----------
    phase:
        The pipeline phase that hit the limit (``"forbidden_matrix"``,
        ``"generating_set"``, ``"selection"``, ``"verify"``, ``"ims"``, ...).
    elapsed_s / deadline_s:
        Wall-clock seconds spent and the configured deadline (``None``
        when the budget had no deadline).
    units / max_units:
        Work units charged so far and the configured cap (``None`` when
        uncapped).  Units share the currency of
        :class:`repro.query.work.WorkCounters`.
    progress:
        Free-form per-phase progress indicator (e.g. pairs processed).
    partial:
        The best partial result the phase produced before the budget ran
        out, or ``None`` — the fallback ladder mines this to avoid
        recomputing completed phases.
    """

    def __init__(self, message, phase=None, elapsed_s=None, deadline_s=None,
                 units=None, max_units=None, progress=None, partial=None):
        super().__init__(message)
        self.phase = phase
        self.elapsed_s = elapsed_s
        self.deadline_s = deadline_s
        self.units = units
        self.max_units = max_units
        self.progress = progress
        self.partial = partial


class ArtifactIntegrityError(ReproError):
    """A stored artifact failed self-verification on load.

    Attributes
    ----------
    path:
        The artifact file that failed verification.
    kind:
        What failed: ``"checksum"``, ``"matrix-digest"``, ``"sidecar"``.
    expected / actual:
        The recorded and recomputed digest (``None`` when not applicable).
    """

    def __init__(self, message, path=None, kind=None, expected=None,
                 actual=None):
        super().__init__(message)
        self.path = path
        self.kind = kind
        self.expected = expected
        self.actual = actual


class BenchFormatError(ReproError):
    """A stored benchmark result does not match the expected schema.

    Raised when a ``repro-bench-result`` document carries the wrong
    schema name or version, or is structurally unusable.  Comparing two
    results recorded under different schema versions refuses loudly
    instead of producing a silently wrong verdict.

    Attributes
    ----------
    path:
        The file the document came from (``None`` for in-memory dicts).
    expected / actual:
        The expected and found schema identifier (``"name v<version>"``),
        when the failure is a schema mismatch.
    """

    def __init__(self, message, path=None, expected=None, actual=None):
        super().__init__(message)
        self.path = path
        self.expected = expected
        self.actual = actual


class RunlogError(ReproError):
    """A run-registry record or directory is unusable.

    Raised when a ``repro-runlog-record`` document carries the wrong
    schema name or version, when a referenced record does not exist or
    is corrupt, or on a bad registry setting (a clock pin that is not a
    number, a negative ``gc`` keep).
    Per-record *corruption* (checksum mismatch, torn JSON) is reported
    structurally by :meth:`repro.obs.runlog.RunLog.records` instead of
    raised, so one damaged record never takes down the whole registry.

    Attributes
    ----------
    path:
        The record file or registry directory involved (``None`` for
        in-memory documents).
    """

    def __init__(self, message, path=None):
        super().__init__(message)
        self.path = path


class QueryError(ReproError):
    """A contention query module was used inconsistently.

    For example: freeing an operation instance that was never assigned, or
    mixing ``assign`` with ``assign_free`` in one partial schedule.
    """


class ParseError(ReproError):
    """A machine-description text file could not be parsed.

    Attributes
    ----------
    line:
        1-based line number where the error was detected, or ``None``.
    token:
        The offending token (the exact text that failed to parse), or
        ``None`` when the error is not tied to a single token.
    source:
        Name of the file being parsed, or ``None`` for in-memory text.
    """

    def __init__(self, message, line=None, token=None, source=None):
        prefix = ""
        if source is not None:
            prefix += "%s: " % source
        if line is not None:
            prefix += "line %d: " % line
        super().__init__(prefix + message)
        self.raw_message = message
        self.line = line
        self.token = token
        self.source = source


class LintConfigError(ReproError):
    """The lint subsystem was configured with unknown rules or severities."""
