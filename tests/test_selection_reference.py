"""Differential tests: cursor-driven Step 3 selection against the
rescanning reference in ``tests/_reference_selection.py``.

The production heuristic must return an equal ``SelectionResult``
(resources and origins in the same order) under ``res-uses`` and under
1-, 2- and 4-cycle words, bump the same ``reduce.selection.*`` counters
and stop at the same budget checkpoint with the same partial result.
"""

import pytest

from repro.core import (
    ForbiddenLatencyMatrix,
    build_generating_set,
    prune_covered_resources,
    select_resources,
)
from repro.core.selection import RES_USES, WORD_USES
from repro.errors import BudgetExceeded
from repro.fuzz.mdlgen import PROFILES, generate_machine
from repro.machines import (
    alpha21064,
    buffered_pu,
    clustered_vliw,
    cydra5_subset,
    dense_conflict_machine,
    example_machine,
    independent_ops_machine,
    mips_r3000,
    playdoh,
    single_op_machine,
)
from repro.obs import trace as obs
from repro.resilience.budget import Budget

from tests._reference_selection import reference_select_resources

#: ``(objective, word_cycles)``: res-uses, then 1-, 2- and 4-cycle words.
OBJECTIVES = ((RES_USES, 1), (WORD_USES, 1), (WORD_USES, 2), (WORD_USES, 4))

BUILTINS = {
    "cydra5-subset": cydra5_subset,
    "alpha21064": alpha21064,
    "mips-r3000": mips_r3000,
    "playdoh": playdoh,
    "example": example_machine,
    "buffered-pu": buffered_pu,
    "clustered-vliw": clustered_vliw,
    "single-op": single_op_machine,
    "independent-ops": independent_ops_machine,
    "dense-conflict": dense_conflict_machine,
}

FUZZ_PROFILES = ("mixed", "tiny", "clustered-vliw", "buffered-pu")
FUZZ_SEEDS = range(20)


def _inputs(machine):
    matrix = ForbiddenLatencyMatrix.from_machine(machine)
    return matrix, prune_covered_resources(build_generating_set(matrix))


def _assert_same(machine, label):
    matrix, pool = _inputs(machine)
    for objective, word_cycles in OBJECTIVES:
        expected = reference_select_resources(
            matrix, pool, objective, word_cycles
        )
        actual = select_resources(matrix, pool, objective, word_cycles)
        assert actual == expected, (label, objective, word_cycles)


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_builtin_machines_match_reference(name):
    _assert_same(BUILTINS[name](), name)


def test_cydra5_matches_reference(cydra_full):
    _assert_same(cydra_full, "cydra5")


@pytest.mark.parametrize("profile", FUZZ_PROFILES)
def test_fuzz_machines_match_reference(profile):
    for seed in FUZZ_SEEDS:
        _assert_same(generate_machine(seed, PROFILES[profile]), (profile, seed))


@pytest.mark.parametrize("objective,word_cycles", OBJECTIVES)
def test_counters_match_reference(objective, word_cycles):
    matrix, pool = _inputs(cydra5_subset())
    counters = []
    for select in (reference_select_resources, select_resources):
        with obs.tracing() as tracer:
            select(matrix, pool, objective, word_cycles)
        counters.append({
            key: value for key, value in tracer.metrics.counters.items()
            if key.startswith("reduce.selection.")
        })
    assert counters[0] == counters[1]
    assert counters[1]["reduce.selection.iterations"] > 1


@pytest.mark.parametrize("max_units", [0, 1, 7, 16])
@pytest.mark.parametrize("objective,word_cycles", [OBJECTIVES[0], OBJECTIVES[3]])
def test_budget_stop_matches_reference(max_units, objective, word_cycles):
    matrix, pool = _inputs(cydra5_subset())
    stops = []
    for select in (reference_select_resources, select_resources):
        with pytest.raises(BudgetExceeded) as info:
            select(
                matrix, pool, objective, word_cycles,
                budget=Budget(max_units=max_units),
            )
        exc = info.value
        stops.append((exc.phase, exc.units, exc.progress, exc.partial))
    assert stops[0] == stops[1]
    assert stops[1][3]["covered"] > 0 or max_units == 0
