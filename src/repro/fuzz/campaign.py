"""Fuzz campaigns: N generated machines through the oracle, plus plans.

One campaign is a pure function of ``(seed, runs, profile, config)``:
machine seeds derive from the campaign seed, every component below is
string-seeded, and the report deliberately records **no wall-clock
fields**, so two consecutive runs of the same campaign emit
byte-identical ``repro-fuzz-report v1`` JSON.

Every fourth run (by default) additionally executes a composed chaos
plan (:mod:`repro.fuzz.plans`) against the machine generated for that
run, so fault *sequences* ride the same generated corpus.  A failed
plan step is a resilience-contract violation and is reported as a bug
alongside oracle divergences.

With shrinking enabled, every machine-level bug is minimized
(:mod:`repro.fuzz.shrink`) and shipped as a checksummed repro bundle.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from repro.errors import ReproError
from repro.fuzz.mdlgen import PROFILES, generate_machine
from repro.fuzz.oracle import (
    VERDICT_BUG,
    VERDICT_HANDLED,
    VERDICT_OK,
    OracleConfig,
    run_oracle,
)
from repro.fuzz.plans import compose_plan, run_plan
from repro.fuzz.shrink import shrink, write_repro_bundle
from repro.obs import trace as obs

FUZZ_SCHEMA_NAME = "repro-fuzz-report"
FUZZ_SCHEMA_VERSION = 1

#: Offset multiplier spreading campaign seeds into disjoint machine-seed
#: ranges (so ``--seed 0..4`` campaigns never share a machine).
_SEED_STRIDE = 100003


def machine_seed(campaign_seed: int, run: int) -> int:
    """The generator seed of run ``run`` in campaign ``campaign_seed``."""
    return campaign_seed * _SEED_STRIDE + run


def run_campaign(
    seed: int = 0,
    runs: int = 20,
    profile: str = "mixed",
    max_units: Optional[int] = None,
    do_shrink: bool = False,
    bundle_dir: Optional[str] = None,
    plans_every: int = 4,
    plan_length: int = 3,
    config: Optional[OracleConfig] = None,
) -> Dict[str, object]:
    """Run one fuzz campaign; returns the ``repro-fuzz-report v1`` dict.

    Raises :class:`~repro.errors.ReproError` on an unknown profile.
    ``max_units`` caps each oracle pipeline stage (tight caps turn
    ``ok`` verdicts into ``handled`` ones — still a green campaign).
    """
    if profile not in PROFILES:
        raise ReproError(
            "unknown fuzz profile %r (known: %s)"
            % (profile, ", ".join(sorted(PROFILES)))
        )
    if runs < 1:
        raise ReproError("a fuzz campaign needs at least one run")
    oracle_config = config or OracleConfig(max_units=max_units)
    profile_obj = PROFILES[profile]
    counts = {VERDICT_OK: 0, VERDICT_HANDLED: 0, VERDICT_BUG: 0}
    results: List[Dict[str, object]] = []
    plans: List[Dict[str, object]] = []
    bugs: List[Dict[str, object]] = []
    bundles: List[Dict[str, object]] = []
    for run in range(runs):
        mseed = machine_seed(seed, run)
        obs.count("fuzz.run")
        machine = generate_machine(mseed, profile_obj)
        outcome = run_oracle(
            machine, mseed, oracle_config, profile=profile
        )
        counts[outcome.verdict] += 1
        results.append(outcome.to_dict())
        if outcome.verdict == VERDICT_BUG:
            obs.count("fuzz.bug")
            bug_entry: Dict[str, object] = {
                "run": run,
                "seed": mseed,
                "kind": "oracle",
                "fingerprint": outcome.fingerprint,
                "stage": outcome.stage,
                "detail": outcome.detail,
            }
            if do_shrink and outcome.fingerprint:
                result = shrink(
                    machine,
                    mseed,
                    outcome.fingerprint,
                    config=oracle_config,
                    profile=profile,
                )
                bug_entry["shrunk"] = {
                    "operations": result.machine.num_operations,
                    "resources": result.machine.num_resources,
                    "usages": result.machine.total_usages,
                    "accepted": result.accepted,
                }
                if bundle_dir is not None:
                    manifest = write_repro_bundle(
                        os.path.join(bundle_dir, "run-%d" % run),
                        result,
                        mseed,
                        profile=profile,
                    )
                    bug_entry["bundle"] = manifest
                    bundles.append(manifest)
            bugs.append(bug_entry)
        if plans_every > 0 and run % plans_every == plans_every - 1:
            plan = compose_plan(mseed, length=plan_length)
            plan_report = run_plan(machine, plan)
            document = plan_report.to_dict()
            document["run"] = run
            plans.append(document)
            if not plan_report.ok:
                obs.count("fuzz.bug")
                failed = sorted(
                    "%s@%s" % (o.step.fault, o.step.phase)
                    for o in plan_report.outcomes
                    if not o.handled
                )
                bugs.append({
                    "run": run,
                    "seed": mseed,
                    "kind": "chaos-plan",
                    "fingerprint": "chaos-plan:%s" % failed[0],
                    "stage": "chaos-plan",
                    "detail": "unhandled plan steps: %s"
                    % ", ".join(failed),
                })
    return {
        "schema": FUZZ_SCHEMA_NAME,
        "version": FUZZ_SCHEMA_VERSION,
        "seed": seed,
        "runs": runs,
        "profile": profile,
        "config": {
            "max_units": max_units,
            "shrink": bool(do_shrink),
            "plans_every": plans_every,
            "plan_length": plan_length,
            "word_cycles": oracle_config.word_cycles,
            "workloads": oracle_config.workloads,
        },
        "counts": counts,
        "ok": counts[VERDICT_BUG] == 0 and not bugs,
        "results": results,
        "plans": plans,
        "bugs": bugs,
        "bundles": bundles,
    }


__all__ = [
    "FUZZ_SCHEMA_NAME",
    "FUZZ_SCHEMA_VERSION",
    "machine_seed",
    "run_campaign",
]
