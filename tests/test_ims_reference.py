"""Differential tests: the iterative modulo scheduler against the frozen
copy in ``tests/_reference_ims.py``.

The production scheduler computes MII with one positive-cycle test at
ResMII, picks operations from a heap and walks II-folded adjacency
lists; the corpus path shares one scheduler per suite.  Its discrete
module walks folds memoized on the reservation tables, takes the probe
order once per window, and ResMII reads self-feasible IIs kept on the
forbidden matrix; the reference runs the frozen copies of those in
``tests/_reference_query.py``.  None of that may change a schedule, an
attempt record, the check distribution, a work counter, a decision
event or a budget stop.
"""

import pytest

from repro.core import MachineDescription
from repro.errors import BudgetExceeded
from repro.obs import trace as obs
from repro.query import POLICIES, DiscreteQueryModule
from repro.query.modulo import REPRESENTATIONS
from repro.query.work import WorkCounters
from repro.resilience.budget import Budget
from repro.scheduler import (
    CorpusScheduler,
    DependenceGraph,
    IterativeModuloScheduler,
)
from repro.scheduler.corpus import schedule_signature
from repro.workloads import loop_suite
from tests._reference_ims import ReferenceIMS
from tests._reference_query import ReferenceDiscreteQueryModule

SEEDS = (0, 1, 2)
PLACEMENTS = ("earliest", "lifetime")


@pytest.fixture(scope="module")
def reduced(subset_reduction):
    return subset_reduction.reduced


@pytest.fixture(scope="module")
def suites():
    return {seed: loop_suite(200, seed) for seed in SEEDS}


def _fingerprint(result):
    return (
        (
            result.ii,
            result.mii,
            sorted(result.times.items()),
            sorted(result.chosen_opcodes.items()),
        ),
        result.attempts,
        result.check_distribution,
        result.work.calls,
        result.work.units,
    )


def _outcome(scheduler, graph, budget=None):
    try:
        return _fingerprint(scheduler.schedule(graph, budget=budget))
    except BudgetExceeded as exc:
        return (
            type(exc).__name__, str(exc), exc.phase, exc.progress,
            exc.partial, exc.units,
        )


def _pair(machine, **config):
    return (
        ReferenceIMS(machine, **config),
        IterativeModuloScheduler(machine, **config),
    )


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("representation", REPRESENTATIONS)
@pytest.mark.parametrize("seed", SEEDS)
def test_suite_matches_reference(
    reduced, suites, seed, representation, placement, policy
):
    reference, current = _pair(
        reduced,
        representation=representation,
        placement_policy=placement,
        alternative_policy=policy,
    )
    for graph in suites[seed]:
        expected = _fingerprint(reference.schedule(graph))
        assert _fingerprint(current.schedule(graph)) == expected, graph.name


def _fragmenting_loops():
    """Loops on a one-unit machine where greedy placement fragments the
    MRT, so the scheduler must force placements and evict."""
    machine = MachineDescription(
        "fragment", {"X": {"u": [0, 2]}, "Y": {"u": [0]}}
    )
    shapes = (
        ("XYX", ()),
        ("XYX", (("o0", "o1", 1, 0), ("o1", "o2", 1, 1), ("o2", "o0", 3, 2))),
        ("XYXYX", (("o4", "o4", 4, 1), ("o0", "o3", 2, 0))),
    )
    loops = []
    for index, (opcodes, edges) in enumerate(shapes):
        graph = DependenceGraph("fragment%d" % index)
        for position, opcode in enumerate(opcodes):
            graph.add_operation("o%d" % position, opcode)
        for src, dst, latency, distance in edges:
            graph.add_dependence(src, dst, latency, distance)
        loops.append(graph)
    return machine, loops


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("representation", REPRESENTATIONS)
def test_decisions_match_reference(
    reduced, suites, representation, placement
):
    """Traced runs emit the same decision events, force blame and
    window blame included; the blame comes from the frozen discrete
    blame scan on the reference side for every representation."""
    fragment, fragmenting = _fragmenting_loops()
    streams = []
    for schedulers in zip(
        _pair(reduced, representation=representation,
              placement_policy=placement),
        _pair(fragment, representation=representation,
              placement_policy=placement),
    ):
        with obs.tracing() as tracer:
            for graph in suites[0]:
                schedulers[0].schedule(graph)
            for graph in fragmenting:
                schedulers[1].schedule(graph)
        streams.append([
            (event.name, event.category, event.args)
            for event in tracer.events
        ])
    reference, current = streams
    forced = [args for name, _, args in reference if name == "ims.force"]
    assert any(args["blame"] for args in forced)
    assert any(args["window_blame"] for args in forced)
    assert any(
        "owner_op" in args["blame"] for args in forced if args["blame"]
    )
    assert current == reference


@pytest.mark.parametrize("policy", POLICIES)
def test_budget_stop_matches_reference(cydra_sub, suites, policy):
    """A starved budget stops both schedulers at the same checkpoint with
    the same phase, progress and partial schedule."""
    graphs = sorted(suites[1], key=lambda g: -g.num_operations)[:3]
    stops = 0
    for max_units in (0, 1, 40, 400, 4000):
        for graph in graphs:
            outcomes = [
                _outcome(scheduler, graph, Budget(max_units=max_units))
                for scheduler in _pair(cydra_sub, alternative_policy=policy)
            ]
            assert outcomes[1] == outcomes[0], (graph.name, max_units)
            stops += outcomes[0][0] == "BudgetExceeded"
    assert stops >= len(graphs) * 3


def _self_colliding_loops():
    """Loops on a machine whose first variant ``A.0`` folds its two ``u``
    usages onto one MRT slot at II 1 and 2, so a check of it stops at
    the repeated slot, before its later ``x`` usage.  ``A.1`` keeps
    ResMII at 2, so the scheduler tries that II first."""
    machine = MachineDescription(
        "selfclash",
        {
            "A.0": {"u": [0, 2], "x": [3]},
            "A.1": {"v": [0]},
            "B": {"w": [0], "x": [1]},
        },
        alternatives={"A": ["A.0", "A.1"]},
    )
    shapes = (
        ("AB", ()),
        ("AAB", (("o0", "o2", 1, 0),)),
        ("ABAB", (("o1", "o2", 1, 0), ("o3", "o0", 1, 1))),
        ("AAAB", (("o3", "o3", 2, 1),)),
    )
    loops = []
    for index, (opcodes, edges) in enumerate(shapes):
        graph = DependenceGraph("selfclash%d" % index)
        for position, opcode in enumerate(opcodes):
            graph.add_operation("o%d" % position, opcode)
        for src, dst, latency, distance in edges:
            graph.add_dependence(src, dst, latency, distance)
        loops.append(graph)
    return machine, loops


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("placement", PLACEMENTS)
def test_self_collision_matches_reference(placement, policy):
    """A check that meets a repeated MRT slot fails there and is charged
    up to it, in the frozen and the memoized discrete module alike."""
    machine, loops = _self_colliding_loops()
    for modulo in (1, 2):
        for cycle in range(-2, 3):
            reference = ReferenceDiscreteQueryModule(machine, modulo=modulo)
            current = DiscreteQueryModule(machine, modulo=modulo)
            assert current._check("A.0", cycle) == (False, 2)
            assert current._check("A.0", cycle) == reference._check(
                "A.0", cycle
            )
    reference, current = _pair(
        machine, placement_policy=placement, alternative_policy=policy
    )
    tried = set()
    for graph in loops:
        expected = _fingerprint(reference.schedule(graph))
        assert _fingerprint(current.schedule(graph)) == expected, graph.name
        tried.update(attempt.ii for attempt in expected[1])
    assert 2 in tried


def test_corpus_matches_reference(reduced, suites):
    """One shared scheduler per suite serves every loop exactly as a
    fresh reference scheduler per loop does, work included."""
    corpus = CorpusScheduler(reduced).schedule_suite(suites[2])
    assert (
        corpus.representation
        == IterativeModuloScheduler(reduced).representation
    )
    expected, work = [], WorkCounters()
    for graph in suites[2]:
        result = ReferenceIMS(
            reduced, representation=corpus.representation
        ).schedule(graph)
        expected.append(
            schedule_signature(result.ii, result.times, result.chosen_opcodes)
        )
        work.merge(result.work)
    assert corpus.signatures() == expected
    assert (corpus.work.calls, corpus.work.units) == (work.calls, work.units)
