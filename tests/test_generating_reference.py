"""Differential tests: packed-mask Algorithm 1 against the set-based
reference in ``tests/_reference_generating.py``.

The production implementation must return the same list, order
included, emit the same trace step for step, bump the same
``reduce.algorithm1.*`` counters and stop at the same budget checkpoint
with the same partial result.
"""

import pytest

from repro.core import (
    ForbiddenLatencyMatrix,
    build_generating_set,
    resource_is_valid,
)
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

from tests import test_generating
from tests._reference_generating import reference_generating_set

PRUNE_SETTINGS = (None, 1, 64)

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
FUZZ_SEEDS = range(40)


def _matrix(machine):
    return ForbiddenLatencyMatrix.from_machine(machine)


def _assert_same(matrix, prune_subsets_every, label):
    expected = reference_generating_set(matrix, prune_subsets_every)
    actual = build_generating_set(matrix, prune_subsets_every)
    assert actual == expected, (label, prune_subsets_every)


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_builtin_machines_match_reference(name):
    matrix = _matrix(BUILTINS[name]())
    for setting in PRUNE_SETTINGS:
        _assert_same(matrix, setting, name)


def test_cydra5_matches_reference(cydra_full):
    _assert_same(_matrix(cydra_full), 64, "cydra5")


@pytest.mark.parametrize("profile", FUZZ_PROFILES)
def test_fuzz_machines_match_reference(profile):
    for seed in FUZZ_SEEDS:
        matrix = _matrix(generate_machine(seed, PROFILES[profile]))
        for setting in PRUNE_SETTINGS:
            _assert_same(matrix, setting, (profile, seed))


def _trace(builder, matrix):
    steps = []
    builder(matrix, trace=steps.append)
    return steps


THEOREM_ONE_MACHINES = test_generating.TestTheoremOne.MACHINES


@pytest.mark.parametrize(
    "machine", THEOREM_ONE_MACHINES, ids=[md.name for md in THEOREM_ONE_MACHINES]
)
def test_traces_match_reference(machine):
    matrix = _matrix(machine)
    expected = _trace(reference_generating_set, matrix)
    actual = _trace(build_generating_set, matrix)
    assert len(actual) == len(expected)
    for mine, theirs in zip(actual, expected):
        assert mine.pair == theirs.pair
        assert mine.applications == theirs.applications
        assert mine.resources == theirs.resources


@pytest.mark.parametrize("name", ["mips-r3000", "playdoh", "example"])
def test_counters_match_reference(name):
    matrix = _matrix(BUILTINS[name]())
    counters = []
    for builder in (reference_generating_set, build_generating_set):
        with obs.tracing() as tracer:
            builder(matrix)
        counters.append({
            key: value for key, value in tracer.metrics.counters.items()
            if key.startswith("reduce.algorithm1.")
        })
    assert counters[0] == counters[1]
    assert counters[1]["reduce.algorithm1.rule1"] > 0


class TestBudgetPartial:
    """A starved budget stops Algorithm 1 with a decoded partial result."""

    MAX_UNITS = 60

    def _raise(self, builder, matrix):
        with pytest.raises(BudgetExceeded) as info:
            builder(matrix, budget=Budget(max_units=self.MAX_UNITS))
        return info.value

    def test_partial_is_valid_resources(self, cydra_sub):
        matrix = _matrix(cydra_sub)
        exc = self._raise(build_generating_set, matrix)
        assert exc.phase == "generating_set"
        assert exc.units > self.MAX_UNITS
        assert isinstance(exc.partial, list) and exc.partial
        for resource in exc.partial:
            assert isinstance(resource, frozenset)
            assert resource_is_valid(resource, matrix)

    def test_same_stop_as_reference(self, cydra_sub):
        matrix = _matrix(cydra_sub)
        mine = self._raise(build_generating_set, matrix)
        theirs = self._raise(reference_generating_set, matrix)
        assert mine.units == theirs.units
        assert mine.progress == theirs.progress
        assert mine.partial == theirs.partial
