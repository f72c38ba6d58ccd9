"""Differential tests: packed-mask Algorithm 1 against the set-based
reference in ``tests/_reference_generating.py``.

The production implementation must return the same list, order
included.  The reference keeps its rows in a list, so two rows that a
Rule-1 merge makes equal both stay until the next subset prune; the
production generating set is a set and keeps only the first.  Rules 1
and 2 depend only on a row's usages, so equal rows fire equal rules
and the returned list cannot move.  What the loop *does* is compared
against the reference's steps collapsed to their first occurrences
(:func:`_collapse`): the trace step for step, the
``reduce.algorithm1.*`` counters and the budget checkpoint with its
partial result.  On machines without colliding merges (the Figure 3
machines, cydra5-subset) the collapsed reference is the reference.

The production masks number only the usages of the elementary pairs
plus each operation's ``(op, 0)``; the reference's rows are checked to
hold no other usage, step by step.
"""

from collections import Counter

import pytest

from repro.core import (
    ForbiddenLatencyMatrix,
    build_generating_set,
    resource_is_valid,
)
from repro.core.elementary import elementary_pairs
from repro.core.generating import TraceStep
from repro.errors import BudgetExceeded
from repro.fuzz.mdlgen import PROFILES, generate_machine
from repro.machines import (
    alpha21064,
    buffered_pu,
    clustered_vliw,
    cydra5,
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

#: Built-ins where two rows absorb the same pair through Rule 1 and
#: become equal.
COLLIDING = ("mips-r3000", "playdoh")

FUZZ_PROFILES = ("mixed", "tiny", "clustered-vliw", "buffered-pu")
FUZZ_SEEDS = range(40)


def _matrix(machine):
    return ForbiddenLatencyMatrix.from_machine(machine)


def _row_usages(matrix):
    """The usages a row can hold: those of the elementary pairs, plus
    each operation's ``(op, 0)`` for Rule 4."""
    return {usage for pair in elementary_pairs(matrix) for usage in pair} | {
        (op, 0) for op in matrix.operations
    }


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


def _collapse(step):
    """A reference step with each resource and each ``(rule, target,
    result)`` application kept at its first occurrence."""
    applications = {}
    for app in step.applications:
        applications.setdefault((app.rule, app.target, app.result), app)
    return TraceStep(
        step.pair, list(applications.values()),
        tuple(dict.fromkeys(step.resources)),
    )


def _collapsed_reference(matrix, prune_subsets_every=64):
    steps = []
    reference_generating_set(matrix, prune_subsets_every, trace=steps.append)
    return [_collapse(step) for step in steps]


def _pair_steps(steps):
    """The steps of the elementary pairs, without Rule 4's singletons."""
    return [step for step in steps if step.applications[0].rule != 4]


def _rows_before_prune(previous, step):
    """Distinct rows a collapsed step holds before its subset prune: the
    previous step's rows with this step's Rule-1 merges applied, then
    its Rule-2 and Rule-3 results."""
    merged = {app.target: app.result for app in step.applications
              if app.rule == 1}
    rows = [merged.get(row, row) for row in previous]
    rows += [app.result for app in step.applications
             if app.rule in (2, 3) and app.result is not None]
    return len(dict.fromkeys(rows))


@pytest.mark.parametrize("name", COLLIDING + ("example",))
def test_counters_match_reference(name):
    """The rule counters count the collapsed reference's distinct rows."""
    matrix = _matrix(BUILTINS[name]())
    with obs.tracing() as tracer:
        build_generating_set(matrix)
    actual = {
        key[len("reduce.algorithm1."):]: value
        for key, value in tracer.metrics.counters.items()
        if key.startswith("reduce.algorithm1.") and value
    }
    steps = _collapsed_reference(matrix)
    pair_steps = _pair_steps(steps)
    expected = Counter(
        "rule%d" % app.rule
        for step in steps for app in step.applications
        if app.result is not None
    )
    expected["pairs"] = len(pair_steps)
    expected["usages"] = len(_row_usages(matrix))
    previous = ()
    for processed, step in enumerate(pair_steps, start=1):
        if processed % 64 == 0:
            expected["subset_pruned"] += (
                _rows_before_prune(previous, step) - len(step.resources)
            )
        previous = step.resources
    assert actual == +expected
    assert actual["rule1"] > 0


@pytest.mark.parametrize("name", COLLIDING)
def test_traces_match_collapsed_reference(name):
    matrix = _matrix(BUILTINS[name]())
    expected = _collapsed_reference(matrix)
    actual = _trace(build_generating_set, matrix)
    assert actual == expected
    # The machines do have colliding merges, so the collapse is not a
    # no-op and the test exercises the set semantics.
    raw = _trace(reference_generating_set, matrix)
    assert any(len(set(s.resources)) < len(s.resources) for s in raw)


def _assert_rows_hold_pair_usages(matrix, label):
    """Every row of every reference step uses only :func:`_row_usages`,
    the bits ``build_generating_set`` numbers."""
    allowed = _row_usages(matrix)
    for step in _trace(reference_generating_set, matrix):
        for resource in step.resources:
            assert resource <= allowed, (label, step.pair, resource - allowed)


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_reference_rows_hold_pair_usages(name):
    _assert_rows_hold_pair_usages(_matrix(BUILTINS[name]()), name)


@pytest.mark.parametrize("profile", FUZZ_PROFILES)
def test_fuzz_reference_rows_hold_pair_usages(profile):
    for seed in FUZZ_SEEDS:
        matrix = _matrix(generate_machine(seed, PROFILES[profile]))
        _assert_rows_hold_pair_usages(matrix, (profile, seed))


#: Bits per row mask: the usages of the elementary pairs plus each
#: operation's ``(op, 0)``.
USAGE_BITS = {
    "cydra5": (cydra5, 252),
    "alpha21064": (alpha21064, 123),
    "mips-r3000": (mips_r3000, 98),
    "cydra5-subset": (cydra5_subset, 21),
}


@pytest.mark.parametrize("name", sorted(USAGE_BITS))
def test_usages_counter_is_mask_width(name):
    factory, bits = USAGE_BITS[name]
    with obs.tracing() as tracer:
        build_generating_set(_matrix(factory()))
    assert tracer.metrics.counters["reduce.algorithm1.usages"] == bits


def _assert_rows_distinct(matrix, prune_subsets_every, label):
    steps = []
    build_generating_set(matrix, prune_subsets_every, trace=steps.append)
    for step in steps:
        assert len(set(step.resources)) == len(step.resources), label


@pytest.mark.parametrize("name", COLLIDING + ("example",))
def test_no_step_holds_equal_resources(name):
    matrix = _matrix(BUILTINS[name]())
    # Unpruned, mips-r3000 grows to 845 rows, and decoding every step's
    # rows for the trace takes seconds; the pruned settings still merge.
    settings = (1, 64) if name == "mips-r3000" else PRUNE_SETTINGS
    for setting in settings:
        _assert_rows_distinct(matrix, setting, name)


@pytest.mark.parametrize("profile", FUZZ_PROFILES)
def test_fuzz_steps_hold_distinct_resources(profile):
    for seed in FUZZ_SEEDS:
        matrix = _matrix(generate_machine(seed, PROFILES[profile]))
        for setting in PRUNE_SETTINGS:
            _assert_rows_distinct(matrix, setting, (profile, seed))


def test_cydra5_textbook_path_matches_default(cydra_full):
    """The textbook algorithm (no subset pruning) returns the default's
    list; with equal rows collapsed it runs in seconds on Cydra 5."""
    matrix = _matrix(cydra_full)
    assert build_generating_set(matrix, None) == build_generating_set(matrix)


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

    def test_charges_distinct_rows(self):
        """A checkpoint charges ``1 + distinct rows``: the stop falls at
        the pair where that running sum, over the collapsed reference,
        first exceeds the cap, with that step's rows as the partial.
        (The reference charges its equal rows too and stops five pairs
        earlier.)"""
        cap = 2000
        matrix = _matrix(mips_r3000())
        steps = _pair_steps(_collapsed_reference(matrix))
        charged, previous = 0, ()
        for stop, step in enumerate(steps):
            charged += 1 + len(previous)
            if charged > cap:
                break
            previous = step.resources
        with pytest.raises(BudgetExceeded) as info:
            build_generating_set(matrix, budget=Budget(max_units=cap))
        exc = info.value
        assert exc.units == charged
        assert exc.progress == "%d/%d pairs" % (stop, len(steps))
        assert exc.partial == list(previous)
