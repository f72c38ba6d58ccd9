"""Crash-safe, self-verifying artifact store.

Every artifact is written atomically (temp file + ``os.replace``, see
:mod:`repro._atomic`) next to a *sidecar header* — ``<path>.sum.json`` —
recording the schema version, the artifact kind, and a SHA-256 of the
content.  Loading re-hashes the content and refuses corrupt artifacts with
an :class:`~repro.errors.ArtifactIntegrityError` naming the expected and
actual digest.

Machine-description artifacts get a second, semantic guard: the sidecar
records a digest of the *forbidden latency matrix* the description
induces, and :func:`load_machine` recomputes it on load.  A description
whose bytes survived intact but whose scheduling constraints do not match
the recorded ones (a version-skew or tampering failure mode the byte
checksum cannot see) is rejected the same way — the runtime extension of
the paper's Theorem-1 promise that a reduced description is only ever
trusted because it is *checked*.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Optional, Tuple

from repro._atomic import atomic_write_text
from repro.core.certificate import Certificate, matrix_digest_value
from repro.core.forbidden import ForbiddenLatencyMatrix
from repro.core.machine import MachineDescription
from repro.errors import ArtifactIntegrityError, CertificateError
from repro.mdl import format as mdl
from repro.obs import trace as obs

ARTIFACT_SCHEMA_NAME = "repro-artifact"
ARTIFACT_SCHEMA_VERSION = 1

#: Suffix appended to the artifact path to form the sidecar path.
SIDECAR_SUFFIX = ".sum.json"


def sidecar_path(path: str) -> str:
    """The sidecar header path for an artifact at ``path``."""
    return path + SIDECAR_SUFFIX


def content_digest(text: str) -> str:
    """SHA-256 hex digest of an artifact's content."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def matrix_digest(machine: MachineDescription) -> str:
    """Digest of the forbidden latency matrix a description induces.

    Stable across usage-level refactorings: two equivalent descriptions
    (same scheduling constraints) produce the same digest even when their
    reservation tables differ.
    """
    return matrix_digest_value(ForbiddenLatencyMatrix.from_machine(machine))


# ----------------------------------------------------------------------
# Generic text artifacts
# ----------------------------------------------------------------------
def write_artifact(
    path: str,
    text: str,
    kind: str = "text",
    extra: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Atomically write ``text`` plus its checksum sidecar; return the header.

    The content lands first, the sidecar second (both atomic); a crash
    between the two leaves a content file with a *stale* sidecar, which
    the loader reports as a checksum mismatch rather than serving silently.
    """
    header: Dict[str, object] = {
        "schema": ARTIFACT_SCHEMA_NAME,
        "version": ARTIFACT_SCHEMA_VERSION,
        "kind": kind,
        "sha256": content_digest(text),
        "size": len(text.encode("utf-8")),
    }
    if extra:
        header["extra"] = dict(extra)
    atomic_write_text(path, text)
    atomic_write_text(
        sidecar_path(path),
        json.dumps(header, indent=2, sort_keys=True) + "\n",
    )
    return header


def read_sidecar(path: str) -> Dict[str, object]:
    """Load and structurally validate the sidecar header of ``path``."""
    side = sidecar_path(path)
    try:
        with open(side, "r", encoding="utf-8") as handle:
            header = json.load(handle)
    except OSError as exc:
        raise ArtifactIntegrityError(
            "artifact %r has no readable sidecar %r: %s" % (path, side, exc),
            path=path, kind="sidecar",
        ) from exc
    except ValueError as exc:
        raise ArtifactIntegrityError(
            "artifact sidecar %r is not valid JSON: %s" % (side, exc),
            path=path, kind="sidecar",
        ) from exc
    if not isinstance(header, dict) or header.get("schema") != (
        ARTIFACT_SCHEMA_NAME
    ):
        raise ArtifactIntegrityError(
            "artifact sidecar %r has schema %r, expected %r"
            % (side, header.get("schema") if isinstance(header, dict)
               else type(header).__name__, ARTIFACT_SCHEMA_NAME),
            path=path, kind="sidecar",
        )
    if header.get("version") != ARTIFACT_SCHEMA_VERSION:
        raise ArtifactIntegrityError(
            "artifact sidecar %r has version %r, expected %d"
            % (side, header.get("version"), ARTIFACT_SCHEMA_VERSION),
            path=path, kind="sidecar",
        )
    return header


def read_artifact(
    path: str, expect_kind: Optional[str] = None
) -> Tuple[str, Dict[str, object]]:
    """Read an artifact, verifying its checksum against the sidecar.

    Returns ``(text, header)``; raises
    :class:`~repro.errors.ArtifactIntegrityError` on any mismatch.
    """
    header = read_sidecar(path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        # A bit flip can turn valid UTF-8 into undecodable bytes; that
        # is content corruption, not an environment error.
        raise ArtifactIntegrityError(
            "cannot read artifact %r: %s" % (path, exc),
            path=path, kind="content",
        ) from exc
    expected = header.get("sha256")
    actual = content_digest(text)
    obs.count("artifact.verify")
    if actual != expected:
        obs.count("artifact.verify.failed")
        raise ArtifactIntegrityError(
            "artifact %r is corrupt: checksum mismatch"
            " (expected sha256 %s, actual %s)" % (path, expected, actual),
            path=path, kind="checksum", expected=expected, actual=actual,
        )
    if expect_kind is not None and header.get("kind") != expect_kind:
        raise ArtifactIntegrityError(
            "artifact %r has kind %r, expected %r"
            % (path, header.get("kind"), expect_kind),
            path=path, kind="kind",
            expected=expect_kind, actual=header.get("kind"),
        )
    return text, header


# ----------------------------------------------------------------------
# Machine-description artifacts
# ----------------------------------------------------------------------
def write_machine(
    path: str, machine: MachineDescription
) -> Dict[str, object]:
    """Write a machine description as a checksummed MDL artifact."""
    return write_artifact(
        path,
        mdl.dumps(machine),
        kind="mdl",
        extra={"matrix_digest": matrix_digest(machine)},
    )


def load_machine(
    path: str, verify_matrix: bool = True
) -> MachineDescription:
    """Load a machine artifact, verifying checksum and matrix digest."""
    text, header = read_artifact(path, expect_kind="mdl")
    machine = mdl.loads(text)
    if verify_matrix:
        extra = header.get("extra") or {}
        expected = extra.get("matrix_digest") if isinstance(extra, dict) \
            else None
        if expected is not None:
            actual = matrix_digest(machine)
            if actual != expected:
                obs.count("artifact.verify.failed")
                raise ArtifactIntegrityError(
                    "machine artifact %r induces a different forbidden"
                    " latency matrix than recorded (expected digest %s,"
                    " actual %s)" % (path, expected, actual),
                    path=path, kind="matrix-digest",
                    expected=expected, actual=actual,
                )
    return machine


def write_json(
    path: str, document: Dict[str, object], kind: str = "json"
) -> Dict[str, object]:
    """Write a JSON document as a checksummed artifact."""
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    return write_artifact(path, text, kind=kind)


def write_certificate(
    path: str, certificate: Certificate
) -> Dict[str, object]:
    """Write a preservation certificate as a checksummed artifact.

    The sidecar's byte checksum makes tampering with the certified
    instance list detectable before the semantic check even runs.
    """
    return write_artifact(
        path,
        json.dumps(certificate.to_dict(), indent=2, sort_keys=True) + "\n",
        kind="certificate",
        extra={"matrix_digest": certificate.matrix_digest},
    )


def load_certificate(path: str) -> Certificate:
    """Load a certificate artifact, verifying checksum and schema.

    Byte corruption surfaces as
    :class:`~repro.errors.ArtifactIntegrityError`; schema-level damage as
    :class:`~repro.errors.CertificateError`.  The semantic validation
    against a description pair is
    :func:`repro.core.certificate.check_certificate`.
    """
    text, _header = read_artifact(path, expect_kind="certificate")
    try:
        document = json.loads(text)
    except ValueError as exc:
        raise CertificateError(
            "certificate artifact %r is not valid JSON: %s" % (path, exc),
            kind="schema",
        ) from exc
    return Certificate.from_dict(document)


def verify_artifact(path: str) -> Dict[str, object]:
    """Verify an artifact in place and return its header.

    Convenience wrapper used by ``repro chaos`` and ``repro fuzz`` to
    read their reports straight back, and by operators auditing an
    artifact directory (``ArtifactIntegrityError`` on any corruption,
    including a missing sidecar).
    """
    _text, header = read_artifact(path)
    return header


def has_sidecar(path: str) -> bool:
    return os.path.exists(sidecar_path(path))


__all__ = [
    "ARTIFACT_SCHEMA_NAME",
    "ARTIFACT_SCHEMA_VERSION",
    "SIDECAR_SUFFIX",
    "atomic_write_text",
    "content_digest",
    "has_sidecar",
    "load_certificate",
    "load_machine",
    "matrix_digest",
    "read_artifact",
    "read_sidecar",
    "sidecar_path",
    "verify_artifact",
    "write_artifact",
    "write_certificate",
    "write_json",
    "write_machine",
]
