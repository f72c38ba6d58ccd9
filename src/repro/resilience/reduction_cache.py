"""Digest-keyed reduction cache (memo + crash-safe disk artifacts).

Reducing a machine description is deterministic in ``(machine, objective,
word_cycles)``, so repeated reductions of one machine — across profile
runs, schedulers, or CLI invocations — are pure waste.  This module keys
each reduction by a SHA-256 digest of the canonical MDL serialization
plus the reduction parameters and serves repeats from two tiers:

1. an in-process memo (same interpreter, zero cost), and
2. an on-disk artifact directory of checksummed MDL files written
   through :mod:`repro.resilience.artifacts` (atomic write + sidecar),
   each paired with its preservation certificate
   (``reduce-<digest>.cert.json``).

A disk hit is *never trusted blindly*: the artifact's byte checksum is
verified by :func:`~repro.resilience.artifacts.read_artifact`, and the
loaded reduced description is then proven equivalent to the requesting
machine by validating its stored **certificate** with
:func:`repro.core.certificate.check_certificate` — soundness plus
coverage of the Theorem-1 witness pairs, at a fraction of the work of
re-deriving both forbidden matrices.  ``paranoid=True`` additionally
re-runs the full :func:`repro.core.verify.assert_equivalent` matrix
comparison.  Any failure (truncation, bit flips, a missing certificate,
stale entries from a different machine colliding on a path, MDL this
version cannot parse) falls back to a fresh reduction and rewrites the
entry and its certificate, so a corrupt cache can cost time but never
correctness.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.certificate import (
    Certificate,
    check_certificate,
    issue_certificate,
)
from repro.core.machine import MachineDescription
from repro.core.reduce import Reduction, reduce_machine
from repro.core.selection import RES_USES
from repro.core.verify import assert_equivalent
from repro.errors import (
    ArtifactIntegrityError,
    CertificateError,
    EquivalenceError,
    ParseError,
)
from repro.mdl import format as mdl
from repro.obs import trace as obs
from repro.resilience.artifacts import (
    load_certificate,
    load_machine,
    write_certificate,
    write_machine,
)

#: Bump when the digest recipe or artifact layout changes: old entries
#: then simply miss instead of failing verification one by one.
CACHE_SCHEMA_VERSION = 1

#: Cache sources, in lookup order.
SOURCE_MEMO = "memo"
SOURCE_DISK = "disk"
SOURCE_FRESH = "fresh"

#: How a served reduction was proven equivalent to the request.
VERIFIED_CERTIFICATE = "certificate"
VERIFIED_EQUIVALENCE = "equivalence"
VERIFIED_FRESH = "fresh"
VERIFIED_MEMO = "memo"

_MEMO: Dict[
    str,
    Tuple[MachineDescription, Optional[Reduction], Optional[Certificate]],
] = {}


def reduction_digest(
    machine: MachineDescription,
    objective: str = RES_USES,
    word_cycles: int = 1,
) -> str:
    """Digest keying one reduction: parameters + canonical MDL text.

    The MDL serialization is canonical (sorted usages, stable layout),
    so two structurally identical descriptions share a digest even when
    built through different code paths.
    """
    payload = "\n".join(
        (
            "repro-reduction-cache/%d" % CACHE_SCHEMA_VERSION,
            "objective=%s" % objective,
            "word_cycles=%d" % word_cycles,
            mdl.dumps(machine),
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def cache_entry_path(cache_dir: str, digest: str) -> str:
    """Artifact path of a cache entry inside ``cache_dir``."""
    return os.path.join(cache_dir, "reduce-%s.mdl" % digest[:16])


def certificate_entry_path(cache_dir: str, digest: str) -> str:
    """Path of the preservation certificate paired with a cache entry."""
    return os.path.join(cache_dir, "reduce-%s.cert.json" % digest[:16])


def clear_reduction_memo() -> None:
    """Drop the in-process memo tier (tests / memory pressure)."""
    _MEMO.clear()


@dataclass
class CachedReduction:
    """Outcome of one cache-aware reduction.

    Attributes
    ----------
    original / reduced:
        The requesting machine and its (verified) reduced equivalent.
    source:
        ``"memo"``, ``"disk"``, or ``"fresh"``.
    digest:
        The full reduction digest keying this entry.
    path:
        The disk artifact path, when a cache directory was given.
    reduction:
        The full :class:`~repro.core.reduce.Reduction` (matrix,
        generating set, selection) — populated when the reduction ran in
        this process (fresh, or memoized from a fresh run); ``None`` for
        disk hits, which only persist the reduced description.
    certificate:
        The preservation certificate binding ``original`` to
        ``reduced``.
    verification:
        How this result was proven: ``"certificate"`` (disk hit checked
        via its stored certificate), ``"equivalence"`` (paranoid disk
        hit: full matrix comparison as well), ``"fresh"`` (the reduction
        itself verified), or ``"memo"`` (verified earlier in this
        process).
    verify_units:
        Work units the certificate check spent (0 when no certificate
        check ran) — the measurable saving over ``assert_equivalent``.
    """

    original: MachineDescription
    reduced: MachineDescription
    source: str
    digest: str
    path: Optional[str] = None
    reduction: Optional[Reduction] = None
    certificate: Optional[Certificate] = None
    verification: str = VERIFIED_FRESH
    verify_units: int = 0


def _verify_disk_hit(
    machine: MachineDescription,
    path: str,
    cert_path: str,
    paranoid: bool,
    budget=None,
) -> Tuple[MachineDescription, Certificate, str, int]:
    """Load and prove one disk entry; raises on any verification failure.

    Returns ``(loaded, certificate, verification, units)``.  Without
    ``paranoid`` the expensive matrix recomputations are skipped
    entirely: the byte checksum plus the structural soundness/coverage
    proof replace both ``load_machine``'s matrix-digest re-derivation
    and ``assert_equivalent``.  A :class:`~repro.errors.BudgetExceeded`
    raised inside the certificate check is a *structured* failure of the
    caller's budget, not cache corruption — it propagates instead of
    triggering the fresh-reduction fallback, so a hit is never served
    with its verification half-done.
    """
    loaded = load_machine(path, verify_matrix=paranoid)
    certificate = load_certificate(cert_path)
    if paranoid:
        assert_equivalent(machine, loaded)
        check_certificate(
            certificate, machine, loaded, recompute_matrix=True,
            budget=budget,
        )
        return loaded, certificate, VERIFIED_EQUIVALENCE, 0
    check = check_certificate(
        certificate, machine, loaded, recompute_matrix=False, budget=budget
    )
    obs.count("cache.reduction.certificate_hit")
    obs.count("cache.reduction.certificate_units", value=check.units)
    return loaded, certificate, VERIFIED_CERTIFICATE, check.units


def cached_reduce(
    machine: MachineDescription,
    objective: str = RES_USES,
    word_cycles: int = 1,
    cache_dir: Optional[str] = None,
    use_memo: bool = True,
    paranoid: bool = False,
    budget=None,
) -> CachedReduction:
    """Reduce ``machine``, serving verified repeats from the cache.

    Lookup order is memo, then disk (when ``cache_dir`` is given), then
    a fresh :func:`~repro.core.reduce.reduce_machine`.  Fresh results
    are written back to both tiers together with their preservation
    certificate; disk entries that fail to parse or fail checksum,
    certificate, or equivalence verification, or that lack their
    certificate, are *replaced* by the fresh result.  Never raises on
    cache corruption — only on a failed fresh reduction itself.

    ``paranoid=True`` re-proves disk hits with the full
    :func:`~repro.core.verify.assert_equivalent` matrix comparison and
    validates the stored certificate in full mode, instead of the
    cheaper certificate check alone.

    ``budget`` threads :class:`~repro.core.budget.Budget` checkpoints
    through warm-hit certificate verification and the fresh reduction.
    Running out of budget *mid-verification* raises
    :class:`~repro.errors.BudgetExceeded` — a structured, reportable
    degradation — rather than falling back as if the entry were
    corrupt; an unverified hit is never served.
    """
    digest = reduction_digest(machine, objective, word_cycles)
    path = cache_entry_path(cache_dir, digest) if cache_dir else None
    cert_path = (
        certificate_entry_path(cache_dir, digest) if cache_dir else None
    )

    if use_memo:
        hit = _MEMO.get(digest)
        if hit is not None:
            obs.count("cache.reduction.memo_hit")
            reduced, reduction, certificate = hit
            return CachedReduction(
                original=machine, reduced=reduced, source=SOURCE_MEMO,
                digest=digest, path=path, reduction=reduction,
                certificate=certificate, verification=VERIFIED_MEMO,
            )

    if path is not None and os.path.exists(path):
        try:
            with obs.span(
                "cache.reduction.load", obs.CAT_REDUCE,
                machine=machine.name, paranoid=paranoid,
            ):
                loaded, certificate, verification, units = _verify_disk_hit(
                    machine, path, cert_path, paranoid, budget=budget
                )
        except (
            ArtifactIntegrityError, CertificateError, EquivalenceError,
            ParseError,
        ) as exc:
            obs.count("cache.reduction.rejected")
            obs.event(
                "cache.reduction.fallback", obs.CAT_REDUCE,
                machine=machine.name, path=path, error=str(exc),
            )
        else:
            obs.count("cache.reduction.disk_hit")
            if use_memo:
                _MEMO[digest] = (loaded, None, certificate)
            return CachedReduction(
                original=machine, reduced=loaded, source=SOURCE_DISK,
                digest=digest, path=path, reduction=None,
                certificate=certificate, verification=verification,
                verify_units=units,
            )

    obs.count("cache.reduction.miss")
    reduction = reduce_machine(
        machine, objective=objective, word_cycles=word_cycles, budget=budget
    )
    certificate = issue_certificate(reduction)
    if path is not None:
        os.makedirs(cache_dir, exist_ok=True)
        write_machine(path, reduction.reduced)
        write_certificate(cert_path, certificate)
    if use_memo:
        _MEMO[digest] = (reduction.reduced, reduction, certificate)
    return CachedReduction(
        original=machine, reduced=reduction.reduced, source=SOURCE_FRESH,
        digest=digest, path=path, reduction=reduction,
        certificate=certificate, verification=VERIFIED_FRESH,
    )


__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CachedReduction",
    "SOURCE_DISK",
    "SOURCE_FRESH",
    "SOURCE_MEMO",
    "VERIFIED_CERTIFICATE",
    "VERIFIED_EQUIVALENCE",
    "VERIFIED_FRESH",
    "VERIFIED_MEMO",
    "cache_entry_path",
    "cached_reduce",
    "certificate_entry_path",
    "clear_reduction_memo",
    "reduction_digest",
]
