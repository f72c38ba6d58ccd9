"""Preservation certificates: issue, check, reject, and work accounting."""

import dataclasses

import pytest

from repro.core import reduce_machine
from repro.core.certificate import (
    Certificate,
    certificate_from_machines,
    check_certificate,
    equivalence_work_units,
    issue_certificate,
    machine_digest,
)
from repro.core.machine import MachineDescription
from repro.core.reservation import ReservationTable
from repro.errors import BudgetExceeded, CertificateError, EquivalenceError
from repro.resilience.budget import Budget
from repro.machines import (
    alpha21064,
    alternatives_machine,
    cydra5_subset,
    example_machine,
    mips_r3000,
    playdoh,
)

BUILTINS = [
    example_machine,
    cydra5_subset,
    alpha21064,
    mips_r3000,
    playdoh,
    alternatives_machine,
]


def _machine_with(machine, extra=None, drop=None):
    """Copy ``machine`` adding or removing one ``(op, (resource, cycle))``."""
    tables = {
        op: list(machine.table(op).iter_usages())
        for op in machine.operation_names
    }
    if extra is not None:
        op, usage = extra
        tables[op] = tables[op] + [usage]
    if drop is not None:
        op, usage = drop
        tables[op] = [u for u in tables[op] if u != usage]
    return MachineDescription(
        machine.name,
        {
            op: ReservationTable.from_pairs(pairs)
            for op, pairs in tables.items()
        },
        latencies={
            op: machine.latency_of(op)
            for op in machine.operation_names
            if machine.latency_of(op) is not None
        },
    )


class TestRoundTrip:
    @pytest.mark.parametrize(
        "factory", BUILTINS, ids=lambda f: f.__name__
    )
    def test_issue_and_check_every_builtin(self, factory):
        machine = factory()
        reduction = reduce_machine(machine)
        certificate = issue_certificate(reduction)
        full = check_certificate(certificate, machine, reduction.reduced)
        assert full.mode == "full"
        structural = check_certificate(
            certificate, machine, reduction.reduced, recompute_matrix=False
        )
        assert structural.mode == "structural"
        assert structural.instances == full.instances
        assert structural.classes == full.classes

    @pytest.mark.parametrize(
        "factory", BUILTINS, ids=lambda f: f.__name__
    )
    def test_dict_round_trip(self, factory):
        machine = factory()
        reduction = reduce_machine(machine)
        certificate = issue_certificate(reduction)
        clone = Certificate.from_dict(certificate.to_dict())
        assert clone.to_dict() == certificate.to_dict()
        check_certificate(clone, machine, reduction.reduced)

    def test_identity_certificate(self):
        machine = example_machine()
        certificate = certificate_from_machines(machine, machine)
        check_certificate(certificate, machine, machine)

    def test_issuing_inexact_reduction_raises_equivalence_error(self):
        machine = example_machine()
        reduced = reduce_machine(machine).reduced
        op = reduced.operation_names[0]
        resource = reduced.table(op).resources[0]
        inexact = _machine_with(reduced, extra=(op, (resource, 9)))
        with pytest.raises(EquivalenceError):
            certificate_from_machines(machine, inexact)

    def test_issuing_across_operation_sets_is_a_binding_error(self):
        with pytest.raises(CertificateError) as excinfo:
            certificate_from_machines(example_machine(), cydra5_subset())
        assert excinfo.value.kind == "binding"


class TestRejection:
    def test_byte_mutation_caught_by_binding(self):
        machine = example_machine()
        reduction = reduce_machine(machine)
        certificate = issue_certificate(reduction)
        op = reduction.reduced.operation_names[0]
        resource = reduction.reduced.table(op).resources[0]
        mutated = _machine_with(reduction.reduced, extra=(op, (resource, 9)))
        with pytest.raises(CertificateError) as excinfo:
            check_certificate(certificate, machine, mutated)
        assert excinfo.value.kind == "binding"

    def test_added_usage_rejected_with_named_witness(self):
        """A mutated reduced description whose binding is forged must be
        rejected by the soundness scan, naming the offending pair."""
        machine = example_machine()
        reduction = reduce_machine(machine)
        certificate = issue_certificate(reduction)
        op = reduction.reduced.operation_names[0]
        resource = reduction.reduced.table(op).resources[0]
        mutated = _machine_with(reduction.reduced, extra=(op, (resource, 9)))
        forged = dataclasses.replace(
            certificate, reduced_sha256=machine_digest(mutated)
        )
        with pytest.raises(CertificateError) as excinfo:
            check_certificate(
                forged, machine, mutated, recompute_matrix=False
            )
        err = excinfo.value
        assert err.kind in ("soundness", "classes")
        if err.kind == "soundness":
            assert err.instance is not None
            assert err.row is not None
            assert err.usage_x is not None and err.usage_y is not None

    def test_removed_usage_rejected(self):
        machine = example_machine()
        reduction = reduce_machine(machine)
        certificate = issue_certificate(reduction)
        op = reduction.reduced.operation_names[0]
        usage = next(iter(reduction.reduced.table(op).iter_usages()))
        mutated = _machine_with(reduction.reduced, drop=(op, usage))
        forged = dataclasses.replace(
            certificate, reduced_sha256=machine_digest(mutated)
        )
        with pytest.raises(CertificateError) as excinfo:
            check_certificate(
                forged, machine, mutated, recompute_matrix=False
            )
        assert excinfo.value.kind in ("coverage", "classes", "soundness")

    def test_wrong_original_rejected(self):
        machine = example_machine()
        reduction = reduce_machine(machine)
        certificate = issue_certificate(reduction)
        with pytest.raises(CertificateError) as excinfo:
            check_certificate(
                certificate, cydra5_subset(), reduction.reduced
            )
        assert excinfo.value.kind == "binding"


class TestSchema:
    def test_from_dict_rejects_wrong_schema(self):
        machine = example_machine()
        certificate = certificate_from_machines(machine, machine)
        data = certificate.to_dict()
        data["schema"] = "something-else"
        with pytest.raises(CertificateError) as excinfo:
            Certificate.from_dict(data)
        assert excinfo.value.kind == "schema"

    def test_from_dict_rejects_wrong_version(self):
        machine = example_machine()
        certificate = certificate_from_machines(machine, machine)
        data = certificate.to_dict()
        data["version"] = 999
        with pytest.raises(CertificateError) as excinfo:
            Certificate.from_dict(data)
        assert excinfo.value.kind == "schema"

    def test_from_dict_rejects_malformed_witness(self):
        machine = example_machine()
        certificate = certificate_from_machines(machine, machine)
        data = certificate.to_dict()
        data["witnesses"][0] = {"x": "A"}
        with pytest.raises(CertificateError) as excinfo:
            Certificate.from_dict(data)
        assert excinfo.value.kind == "schema"


class TestWorkUnits:
    @pytest.mark.parametrize(
        "factory",
        [example_machine, cydra5_subset, alpha21064],
        ids=lambda f: f.__name__,
    )
    def test_structural_check_is_cheaper_than_equivalence(self, factory):
        machine = factory()
        reduction = reduce_machine(machine)
        certificate = issue_certificate(reduction)
        check = check_certificate(
            certificate, machine, reduction.reduced, recompute_matrix=False
        )
        assert check.units > 0
        assert check.units < equivalence_work_units(
            machine, reduction.reduced
        )


class TestArtifactStore:
    def test_write_and_load_certificate(self, tmp_path):
        from repro.resilience.artifacts import (
            load_certificate,
            write_certificate,
        )

        machine = example_machine()
        reduction = reduce_machine(machine)
        certificate = issue_certificate(reduction)
        path = str(tmp_path / "example.cert.json")
        write_certificate(path, certificate)
        loaded = load_certificate(path)
        assert loaded.to_dict() == certificate.to_dict()
        check_certificate(loaded, machine, reduction.reduced)

    def test_tampered_certificate_artifact_rejected(self, tmp_path):
        from repro.errors import ArtifactIntegrityError
        from repro.resilience.artifacts import (
            load_certificate,
            write_certificate,
        )

        machine = example_machine()
        certificate = certificate_from_machines(machine, machine)
        path = str(tmp_path / "example.cert.json")
        write_certificate(path, certificate)
        text = open(path, "r", encoding="utf-8").read()
        open(path, "w", encoding="utf-8").write(
            text.replace('"classes"', '"clasmes"', 1)
        )
        with pytest.raises(ArtifactIntegrityError):
            load_certificate(path)


class TestFallbackIntegration:
    def test_reduced_rung_carries_certificate(self):
        from repro.resilience.fallback import reduce_with_fallback

        machine = example_machine()
        outcome = reduce_with_fallback(machine)
        assert outcome.certificate is not None
        check_certificate(
            outcome.certificate, machine, outcome.machine,
            recompute_matrix=False,
        )


class TestBudgetedCheck:
    def test_tight_budget_raises_with_certificate_phase(self):
        reduction = reduce_machine(example_machine())
        certificate = issue_certificate(reduction)
        with pytest.raises(BudgetExceeded) as info:
            check_certificate(
                certificate, reduction.original, reduction.reduced,
                budget=Budget(max_units=1),
            )
        assert info.value.phase == "certificate"

    def test_ample_budget_matches_unbudgeted_result(self):
        reduction = reduce_machine(example_machine())
        certificate = issue_certificate(reduction)
        unbudgeted = check_certificate(
            certificate, reduction.original, reduction.reduced
        )
        budgeted = check_certificate(
            certificate, reduction.original, reduction.reduced,
            budget=Budget(max_units=10**9),
        )
        assert budgeted.units == unbudgeted.units

    def test_full_matrix_recheck_is_budgeted_too(self):
        reduction = reduce_machine(cydra5_subset())
        certificate = issue_certificate(reduction)
        with pytest.raises(BudgetExceeded):
            check_certificate(
                certificate, reduction.original, reduction.reduced,
                recompute_matrix=True, budget=Budget(max_units=1),
            )
