"""Tests for the fuzz subsystem: generator, oracle, shrinker, plans."""

import json

import pytest

from repro import mdl
from repro.core.machine import MachineDescription
from repro.core.verify import assert_equivalent
from repro.errors import ArtifactIntegrityError, BudgetExceeded, ReproError
from repro.fuzz import (
    FUZZ_SCHEMA_NAME,
    FUZZ_SCHEMA_VERSION,
    OracleConfig,
    PHASES,
    PROFILES,
    STRUCTURAL_RULES,
    VERDICT_BUG,
    VERDICT_OK,
    VERDICTS,
    compose_plan,
    generate_machine,
    generate_workload,
    load_repro_bundle,
    machine_seed,
    run_campaign,
    run_oracle,
    run_plan,
    schedulable_opcodes,
    shrink,
    write_repro_bundle,
)
from repro.fuzz.plans import PHASE_CACHE_WARM, PHASE_FAULTS, PHASE_MID_LADDER
from repro.lint import lint_machine
from repro.machines import buffered_pu, clustered_vliw
from repro.resilience.budget import Budget


def _drop_last_usage(machine):
    """Known-bad transform: silently remove one usage from the reduced
    description, breaking equivalence after the verified reduce."""
    op = sorted(machine.operation_names)[-1]
    tables = {
        name: {
            resource: sorted(machine.table(name).usage_set(resource))
            for resource in machine.table(name).resources
        }
        for name in machine.operation_names
    }
    table = tables[op]
    resource = sorted(table)[-1]
    if len(table) > 1:
        del table[resource]
    else:
        table[resource] = table[resource][:1] or [0]
        tables["__fuzz_extra__"] = {resource: [0]}
    return MachineDescription(
        machine.name, tables, machine.resources,
        machine.alternatives, machine.latencies,
    )


class TestGenerator:
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_deterministic_in_seed(self, profile):
        first = generate_machine(11, PROFILES[profile])
        second = generate_machine(11, PROFILES[profile])
        assert mdl.dumps(first) == mdl.dumps(second)

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_different_seeds_differ(self, profile):
        a = generate_machine(0, PROFILES[profile])
        b = generate_machine(1, PROFILES[profile])
        assert mdl.dumps(a) != mdl.dumps(b)

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    @pytest.mark.parametrize("seed", range(8))
    def test_generated_machines_are_structurally_clean(self, profile, seed):
        machine = generate_machine(seed, PROFILES[profile])
        report = lint_machine(machine, rules=list(STRUCTURAL_RULES))
        assert not report.diagnostics, report.render_text()

    def test_workload_validates_and_names_real_opcodes(self):
        machine = generate_machine(3, PROFILES["mixed"])
        graph = generate_workload(machine, 3)
        graph.validate()
        opcodes = set(schedulable_opcodes(machine))
        for operation in graph.operations():
            assert operation.opcode in opcodes

    def test_corpus_families_reachable(self):
        machine = generate_machine(0, PROFILES["buffered-pu"])
        assert machine.alternatives  # per-bus variants survive
        machine = generate_machine(0, PROFILES["clustered-vliw"])
        assert machine.alternatives  # per-cluster variants survive


class TestCorpusMachines:
    @pytest.mark.parametrize("factory", [buffered_pu, clustered_vliw])
    def test_reduce_and_verify(self, factory):
        from repro.core import reduce_machine

        machine = factory()
        reduction = reduce_machine(machine)
        assert_equivalent(machine, reduction.reduced)

    @pytest.mark.parametrize("factory", [buffered_pu, clustered_vliw])
    def test_oracle_green(self, factory):
        outcome = run_oracle(factory(), 0, OracleConfig())
        assert outcome.verdict in (VERDICT_OK, "handled")
        assert outcome.fingerprint is None


class TestOracle:
    def test_ok_on_generated_machine(self):
        machine = generate_machine(0, PROFILES["mixed"])
        outcome = run_oracle(machine, 0, OracleConfig(), profile="mixed")
        assert outcome.verdict in VERDICTS
        assert outcome.verdict != VERDICT_BUG, outcome.to_dict()

    def test_tight_budget_is_handled_not_bug(self):
        machine = generate_machine(1, PROFILES["mixed"])
        outcome = run_oracle(
            machine, 1, OracleConfig(max_units=1), profile="mixed"
        )
        assert outcome.verdict == "handled"
        assert any(h.startswith("budget:") for h in outcome.handled)

    def test_divergence_hook_is_a_bug_with_stable_fingerprint(self):
        machine = generate_machine(2, PROFILES["tiny"])
        config = OracleConfig(mutate_reduced=_drop_last_usage)
        outcome = run_oracle(machine, 2, config, profile="tiny")
        assert outcome.verdict == VERDICT_BUG
        assert outcome.fingerprint == "divergence:equivalence"
        assert outcome.stage == "equivalence"

    def test_outcome_dict_is_json_clean(self):
        machine = generate_machine(4, PROFILES["tiny"])
        outcome = run_oracle(machine, 4, OracleConfig(), profile="tiny")
        json.dumps(outcome.to_dict())


class TestShrinker:
    def test_minimizes_and_preserves_fingerprint(self):
        machine = generate_machine(2, PROFILES["tiny"])
        config = OracleConfig(mutate_reduced=_drop_last_usage)
        result = shrink(
            machine, 2, "divergence:equivalence",
            config=config, profile="tiny",
        )
        assert result.fingerprint == "divergence:equivalence"
        assert result.machine.total_usages <= machine.total_usages
        assert result.accepted >= 1
        # the minimized machine still reproduces through the oracle
        again = run_oracle(result.machine, 2, config, profile="tiny")
        assert again.verdict == VERDICT_BUG
        assert again.fingerprint == "divergence:equivalence"

    def test_precondition_failure_raises(self):
        machine = generate_machine(0, PROFILES["tiny"])
        with pytest.raises(ValueError):
            shrink(machine, 0, "divergence:equivalence", profile="tiny")

    def test_bundle_round_trip(self, tmp_path):
        machine = generate_machine(2, PROFILES["tiny"])
        config = OracleConfig(mutate_reduced=_drop_last_usage)
        result = shrink(
            machine, 2, "divergence:equivalence",
            config=config, profile="tiny",
        )
        manifest = write_repro_bundle(
            str(tmp_path / "bundle"), result, 2, profile="tiny"
        )
        assert manifest["fingerprint"] == "divergence:equivalence"
        loaded, document = load_repro_bundle(str(tmp_path / "bundle"))
        assert loaded == result.machine
        assert document["schema"] == "repro-fuzz-repro"
        assert document["fingerprint"] == "divergence:equivalence"
        # the reloaded machine reproduces the failure too
        again = run_oracle(loaded, document["seed"], config, profile="tiny")
        assert again.fingerprint == "divergence:equivalence"

    def test_corrupt_bundle_refuses_to_load(self, tmp_path):
        machine = generate_machine(2, PROFILES["tiny"])
        config = OracleConfig(mutate_reduced=_drop_last_usage)
        result = shrink(
            machine, 2, "divergence:equivalence",
            config=config, profile="tiny",
        )
        directory = tmp_path / "bundle"
        write_repro_bundle(str(directory), result, 2, profile="tiny")
        report = directory / "repro.json"
        report.write_text(report.read_text().replace("tiny", "twisted"))
        with pytest.raises(ArtifactIntegrityError):
            load_repro_bundle(str(directory))


class TestPlans:
    def test_compose_deterministic(self):
        assert compose_plan(5).to_dict() == compose_plan(5).to_dict()

    def test_compose_varies_with_seed(self):
        plans = {json.dumps(compose_plan(s).to_dict()) for s in range(10)}
        assert len(plans) > 1

    def test_faults_legal_for_phase(self):
        for seed in range(10):
            for step in compose_plan(seed, length=4).steps:
                assert step.phase in PHASES
                assert step.fault in PHASE_FAULTS[step.phase]

    def test_long_plans_include_a_compound_phase(self):
        for seed in range(10):
            plan = compose_plan(seed, length=3)
            assert any(
                step.phase in (PHASE_MID_LADDER, PHASE_CACHE_WARM)
                for step in plan.steps
            )

    def test_run_plan_all_handled(self, tmp_path):
        machine = generate_machine(0, PROFILES["mixed"])
        plan = compose_plan(0, length=3)
        report = run_plan(machine, plan, str(tmp_path))
        assert report.ok, report.to_dict()
        assert len(report.outcomes) == 3

    def test_run_plan_budget_raises_with_partial(self, tmp_path):
        machine = generate_machine(0, PROFILES["mixed"])
        plan = compose_plan(0, length=3)
        with pytest.raises(BudgetExceeded) as info:
            run_plan(
                machine, plan, str(tmp_path), budget=Budget(max_units=1)
            )
        assert info.value.phase == "chaos-plan"

    def test_bad_phase_rejected(self):
        with pytest.raises(ReproError):
            compose_plan(0, phases=("no-such-phase",))
        with pytest.raises(ReproError):
            compose_plan(0, length=0)


class TestCampaign:
    def test_report_deterministic(self):
        first = run_campaign(seed=0, runs=6)
        second = run_campaign(seed=0, runs=6)
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_report_schema_and_green(self):
        report = run_campaign(seed=0, runs=6)
        assert report["schema"] == FUZZ_SCHEMA_NAME
        assert report["version"] == FUZZ_SCHEMA_VERSION
        assert report["ok"] is True
        assert report["counts"][VERDICT_BUG] == 0
        assert len(report["results"]) == 6
        assert report["plans"]  # every fourth run composes a plan

    def test_campaign_seeds_disjoint(self):
        assert machine_seed(0, 19) < machine_seed(1, 0)

    def test_unknown_profile_rejected(self):
        with pytest.raises(ReproError):
            run_campaign(profile="no-such-profile")
        with pytest.raises(ReproError):
            run_campaign(runs=0)

    def test_shrunk_bundles_land_in_dir(self, tmp_path):
        config = OracleConfig(mutate_reduced=_drop_last_usage)
        report = run_campaign(
            seed=0, runs=2, profile="tiny", do_shrink=True,
            bundle_dir=str(tmp_path), plans_every=0, config=config,
        )
        assert report["ok"] is False
        assert report["bugs"]
        assert report["bundles"]
        for manifest in report["bundles"]:
            loaded, document = load_repro_bundle(manifest["directory"])
            assert document["fingerprint"] == manifest["fingerprint"]
