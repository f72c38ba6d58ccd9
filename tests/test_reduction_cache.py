"""The digest-keyed reduction cache: tiers, verification, self-healing."""

import json
import os
import random

import pytest

from repro.core import matrices_equal
from repro.fuzz.plans import (
    PHASE_CACHE_WARM,
    PHASE_FAULTS,
    FaultPlan,
    PlanStep,
    run_plan,
)
from repro.machines import cydra5_subset, example_machine
from repro.obs import trace as obs
from repro.resilience.artifacts import sidecar_path
from repro.resilience.reduction_cache import (
    cache_entry_path,
    cached_reduce,
    clear_reduction_memo,
    reduction_digest,
)


def _cache_plan(seed):
    """Every fault the warm reduction-cache phase can inject."""
    return FaultPlan(
        seed=seed,
        steps=tuple(
            PlanStep(PHASE_CACHE_WARM, fault)
            for fault in PHASE_FAULTS[PHASE_CACHE_WARM]
        ),
    )


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_reduction_memo()
    yield
    clear_reduction_memo()


class TestDigest:
    def test_digest_is_stable_and_parameter_sensitive(self):
        machine = example_machine()
        base = reduction_digest(machine)
        assert base == reduction_digest(example_machine())
        assert base != reduction_digest(machine, objective="word-uses")
        assert base != reduction_digest(machine, word_cycles=4)
        assert base != reduction_digest(cydra5_subset())

    def test_entry_path_uses_digest_prefix(self, tmp_path):
        digest = reduction_digest(example_machine())
        path = cache_entry_path(str(tmp_path), digest)
        assert digest[:16] in path
        assert path.endswith(".mdl")


class TestTiers:
    def test_fresh_then_memo_then_disk(self, tmp_path):
        machine = example_machine()
        first = cached_reduce(machine, cache_dir=str(tmp_path))
        second = cached_reduce(machine, cache_dir=str(tmp_path))
        clear_reduction_memo()
        third = cached_reduce(machine, cache_dir=str(tmp_path))
        assert (first.source, second.source, third.source) == (
            "fresh", "memo", "disk"
        )
        assert first.reduced == second.reduced == third.reduced
        assert os.path.exists(first.path)
        assert os.path.exists(sidecar_path(first.path))
        # Fresh runs carry the full Reduction; disk hits only the machine.
        assert first.reduction is not None
        assert third.reduction is None

    def test_memo_disabled_reduces_fresh_each_time(self):
        machine = example_machine()
        first = cached_reduce(machine, use_memo=False)
        second = cached_reduce(machine, use_memo=False)
        assert first.source == second.source == "fresh"

    def test_served_reduction_is_equivalent(self, tmp_path):
        machine = cydra5_subset()
        cached_reduce(machine, cache_dir=str(tmp_path))
        clear_reduction_memo()
        served = cached_reduce(machine, cache_dir=str(tmp_path))
        assert served.source == "disk"
        assert matrices_equal(machine, served.reduced)

    def test_no_cache_dir_never_touches_disk(self):
        outcome = cached_reduce(example_machine())
        assert outcome.path is None
        assert outcome.source == "fresh"


class TestCorruptionFallback:
    def test_truncated_entry_falls_back_and_heals(self, tmp_path):
        machine = example_machine()
        primed = cached_reduce(machine, cache_dir=str(tmp_path))
        with open(primed.path, "r+b") as handle:
            handle.truncate(max(0, os.path.getsize(primed.path) - 12))
        clear_reduction_memo()
        served = cached_reduce(machine, cache_dir=str(tmp_path))
        assert served.source == "fresh"
        assert served.reduced == primed.reduced
        clear_reduction_memo()
        healed = cached_reduce(machine, cache_dir=str(tmp_path))
        assert healed.source == "disk"

    def test_flipped_sidecar_checksum_falls_back(self, tmp_path):
        machine = example_machine()
        primed = cached_reduce(machine, cache_dir=str(tmp_path))
        side = sidecar_path(primed.path)
        header = json.load(open(side))
        digit = "0" if header["sha256"][0] != "0" else "1"
        header["sha256"] = digit + header["sha256"][1:]
        with open(side, "w", encoding="utf-8") as handle:
            json.dump(header, handle)
        clear_reduction_memo()
        served = cached_reduce(machine, cache_dir=str(tmp_path))
        assert served.source == "fresh"
        assert served.reduced == primed.reduced

    def test_wrong_machine_in_entry_is_rejected(self, tmp_path):
        """A valid artifact that is not equivalent must not be served."""
        from repro.resilience.artifacts import write_machine

        machine = example_machine()
        digest = reduction_digest(machine)
        # Plant a *well-formed* artifact holding a different machine at
        # this machine's slot: checksum and matrix digest verify, but the
        # equivalence proof against the requesting machine fails.
        path = cache_entry_path(str(tmp_path), digest)
        os.makedirs(str(tmp_path), exist_ok=True)
        write_machine(path, cydra5_subset())
        served = cached_reduce(machine, cache_dir=str(tmp_path))
        assert served.source == "fresh"
        assert matrices_equal(machine, served.reduced)

    def test_chaos_fault_class_covers_cache(self, tmp_path):
        report = run_plan(
            example_machine(), _cache_plan(3), str(tmp_path)
        )
        assert report.ok
        assert len(report.outcomes) == len(PHASE_FAULTS[PHASE_CACHE_WARM])
        for outcome in report.outcomes:
            assert outcome.step.phase == PHASE_CACHE_WARM
            assert "fresh" in outcome.detail and "disk" in outcome.detail

    def test_chaos_fault_is_seed_deterministic(self, tmp_path):
        first = run_plan(
            example_machine(), _cache_plan(5), str(tmp_path / "a")
        )
        second = run_plan(
            example_machine(), _cache_plan(5), str(tmp_path / "b")
        )
        assert first.to_dict()["outcomes"] == second.to_dict()["outcomes"]

    def test_unparseable_entry_is_rejected(self, tmp_path):
        """An entry whose bytes match its sidecar but whose MDL text this
        version cannot parse (version skew) is a rejected entry: a fresh
        reduction is served and both files are rewritten."""
        from repro.resilience.artifacts import load_machine, write_artifact
        from repro.resilience.reduction_cache import certificate_entry_path

        machine = example_machine()
        primed = cached_reduce(machine, cache_dir=str(tmp_path))
        write_artifact(primed.path, "machine takes two names\n", kind="mdl")
        clear_reduction_memo()
        with obs.tracing() as tracer:
            served = cached_reduce(machine, cache_dir=str(tmp_path))
        assert served.source == "fresh"
        assert served.reduced == primed.reduced
        assert tracer.metrics.counters["cache.reduction.rejected"] == 1
        assert load_machine(primed.path) == primed.reduced
        assert os.path.exists(
            certificate_entry_path(str(tmp_path), primed.digest)
        )
        clear_reduction_memo()
        healed = cached_reduce(machine, cache_dir=str(tmp_path))
        assert healed.source == "disk"
        assert healed.verification == "certificate"

    def test_corrupt_certificate_falls_back_and_rewrites(self, tmp_path):
        from repro.resilience.reduction_cache import certificate_entry_path

        machine = example_machine()
        primed = cached_reduce(machine, cache_dir=str(tmp_path))
        cert_path = certificate_entry_path(
            str(tmp_path), primed.digest
        )
        assert os.path.exists(cert_path)
        text = open(cert_path, "r", encoding="utf-8").read()
        with open(cert_path, "w", encoding="utf-8") as handle:
            handle.write(text.replace('"witnesses"', '"witnesess"', 1))
        clear_reduction_memo()
        served = cached_reduce(machine, cache_dir=str(tmp_path))
        assert served.source == "fresh"
        clear_reduction_memo()
        healed = cached_reduce(machine, cache_dir=str(tmp_path))
        assert healed.source == "disk"
        assert healed.verification == "certificate"

    def test_random_byte_corruption_never_served(self, tmp_path):
        machine = example_machine()
        rng = random.Random(11)
        for trial in range(5):
            clear_reduction_memo()
            cache = tmp_path / ("t%d" % trial)
            primed = cached_reduce(machine, cache_dir=str(cache))
            data = bytearray(open(primed.path, "rb").read())
            if not data:
                continue
            index = rng.randrange(len(data))
            data[index] ^= 1 << rng.randrange(8)
            with open(primed.path, "wb") as handle:
                handle.write(bytes(data))
            clear_reduction_memo()
            served = cached_reduce(machine, cache_dir=str(cache))
            # Either the flip was caught (fresh) or it produced byte-
            # identical content; served output must stay equivalent.
            assert matrices_equal(machine, served.reduced)


class TestCertificateVerification:
    def test_disk_hit_verified_via_certificate(self, tmp_path):
        from repro.core.certificate import (
            check_certificate,
            equivalence_work_units,
        )

        machine = cydra5_subset()
        primed = cached_reduce(machine, cache_dir=str(tmp_path))
        assert primed.verification == "fresh"
        assert primed.certificate is not None
        clear_reduction_memo()
        served = cached_reduce(machine, cache_dir=str(tmp_path))
        assert served.source == "disk"
        assert served.verification == "certificate"
        assert served.certificate is not None
        # The certificate check is the measurable saving: strictly
        # cheaper than re-deriving both forbidden matrices.
        assert 0 < served.verify_units < equivalence_work_units(
            machine, served.reduced
        )
        check_certificate(
            served.certificate, machine, served.reduced,
            recompute_matrix=False,
        )

    def test_paranoid_restores_full_equivalence(self, tmp_path):
        machine = example_machine()
        cached_reduce(machine, cache_dir=str(tmp_path))
        clear_reduction_memo()
        served = cached_reduce(
            machine, cache_dir=str(tmp_path), paranoid=True
        )
        assert served.source == "disk"
        assert served.verification == "equivalence"
        assert served.verify_units == 0

    def test_legacy_entry_without_certificate_is_healed(self, tmp_path):
        from repro.resilience.reduction_cache import certificate_entry_path

        machine = example_machine()
        primed = cached_reduce(machine, cache_dir=str(tmp_path))
        cert_path = certificate_entry_path(str(tmp_path), primed.digest)
        os.remove(cert_path)
        os.remove(sidecar_path(cert_path))
        clear_reduction_memo()
        served = cached_reduce(machine, cache_dir=str(tmp_path))
        # A missing certificate rejects the entry: a fresh reduction is
        # served, and the entry and its certificate are rewritten.
        assert served.source == "fresh"
        assert os.path.exists(cert_path)
        clear_reduction_memo()
        healed = cached_reduce(machine, cache_dir=str(tmp_path))
        assert healed.verification == "certificate"

    def test_memo_hit_carries_certificate(self, tmp_path):
        machine = example_machine()
        cached_reduce(machine, cache_dir=str(tmp_path))
        memoed = cached_reduce(machine, cache_dir=str(tmp_path))
        assert memoed.source == "memo"
        assert memoed.verification == "memo"
        assert memoed.certificate is not None


class TestBudgetedWarmHit:
    """A budget trip during warm-hit verification must surface as a
    structured BudgetExceeded — never a silent fresh-reduction fallback,
    never an unverified serve."""

    def test_warm_hit_budget_exceeded_propagates(self, tmp_path):
        from repro.errors import BudgetExceeded
        from repro.resilience.budget import Budget

        machine = example_machine()
        cached_reduce(machine, cache_dir=str(tmp_path))
        clear_reduction_memo()
        with pytest.raises(BudgetExceeded) as info:
            cached_reduce(
                machine,
                cache_dir=str(tmp_path),
                budget=Budget(max_units=1),
            )
        assert info.value.phase == "certificate"

    def test_warm_hit_with_ample_budget_serves_verified(self, tmp_path):
        from repro.resilience.budget import Budget

        machine = example_machine()
        cached_reduce(machine, cache_dir=str(tmp_path))
        clear_reduction_memo()
        hit = cached_reduce(
            machine,
            cache_dir=str(tmp_path),
            budget=Budget(max_units=10**9),
        )
        assert hit.source == "disk"
        assert hit.verification == "certificate"
        assert matrices_equal(machine, hit.reduced)

    def test_fresh_reduction_budget_exceeded_propagates(self, tmp_path):
        from repro.errors import BudgetExceeded
        from repro.resilience.budget import Budget

        with pytest.raises(BudgetExceeded):
            cached_reduce(
                example_machine(),
                cache_dir=str(tmp_path),
                budget=Budget(max_units=1),
            )
