"""The corpus driver: a whole loop suite in one pass.

The headline contract is that the driver adds nothing to a loop's
schedule or work: under its default representation (the same as the
per-loop scheduler's) and under ``compiled`` alike, it must reproduce
per-loop IMS signature-for-signature, with merged work equal to the
per-loop sum.
The satellite contracts ride along — budget starvation stays
loop-local, the fallback ladder degrades loops without sinking the
corpus, and the multiprocessing fan-out (the default on a large enough
suite) replays the serial run exactly, stays serial whenever a second
process cannot serve the run faithfully, and raises a worker's failure
in the caller.
"""

import multiprocessing
import os
import threading

import pytest

from repro.cli import main
from repro.core.certificate import machine_digest
from repro.errors import ScheduleError
from repro.machines import cydra5_subset, example_machine
from repro.obs import trace as obs
from repro.query.work import WorkCounters
from repro.resilience.budget import Budget
from repro.scheduler import IterativeModuloScheduler
from repro.scheduler import corpus as corpus_module
from repro.scheduler.corpus import (
    MIN_LOOPS_PER_PROCESS,
    CorpusScheduler,
    LoopOutcome,
    schedule_signature,
)
from repro.scheduler.ladder import RUNG_IMS, FallbackPolicy
from repro.workloads import loop_suite


@pytest.fixture(scope="module")
def suite():
    return loop_suite(40)


@pytest.fixture(scope="module")
def machine():
    return cydra5_subset()


class TestSignatures:
    def test_schedule_signature_is_canonical(self):
        sig = schedule_signature(
            4, {"b": 1, "a": 0}, {"b": "add.1", "a": "add.0"}
        )
        assert sig == (
            4,
            (("a", 0), ("b", 1)),
            (("a", "add.0"), ("b", "add.1")),
        )

    def test_failed_outcome_has_no_signature(self):
        failed = LoopOutcome(name="l", ops=3, error_type="ScheduleError")
        assert failed.failed
        assert failed.signature is None
        served = LoopOutcome(
            name="l", ops=3, ii=2, mii=2, times={"a": 0},
            chosen_opcodes={}, rung=RUNG_IMS,
        )
        assert not served.failed and not served.degraded
        assert served.signature == (2, (("a", 0),), ())


def _per_loop_ims(machine, graphs, representation):
    """Per-loop signatures and merged work of a fresh IMS."""
    ims = IterativeModuloScheduler(machine, representation=representation)
    work = WorkCounters()
    signatures = []
    for graph in graphs:
        result = ims.schedule(graph)
        work.merge(result.work)
        signatures.append(schedule_signature(
            result.ii, result.times, result.chosen_opcodes
        ))
    return signatures, work


class TestDefaultMatchesPerLoopIMS:
    def test_signatures_and_work_equal_per_loop_ims(self, machine, suite):
        graphs = suite[:8]
        corpus = CorpusScheduler(machine).schedule_suite(graphs)
        signatures, expected = _per_loop_ims(
            machine, graphs, corpus.representation
        )

        assert (
            corpus.representation
            == IterativeModuloScheduler(machine).representation
        )
        assert corpus.failed == 0
        assert corpus.signatures() == signatures
        assert dict(corpus.work.units) == dict(expected.units)
        assert dict(corpus.work.calls) == dict(expected.calls)

    def test_compiled_corpus_equals_per_loop_compiled_ims(
        self, machine, suite
    ):
        graphs = suite[:8]
        corpus = CorpusScheduler(
            machine, representation="compiled"
        ).schedule_suite(graphs)
        signatures, expected = _per_loop_ims(machine, graphs, "compiled")

        assert corpus.representation == "compiled"
        assert corpus.failed == 0
        assert corpus.signatures() == signatures
        assert dict(corpus.work.units) == dict(expected.units)
        assert dict(corpus.work.calls) == dict(expected.calls)

    def test_digest_is_the_machine_content_hash(self, machine, suite):
        result = CorpusScheduler(machine).schedule_suite(suite[:2])
        again = CorpusScheduler(cydra5_subset()).schedule_suite(suite[:2])
        assert result.digest == again.digest == machine_digest(machine)
        other = CorpusScheduler(example_machine()).schedule_suite([])
        assert other.digest != result.digest


class TestBudget:
    def test_starvation_is_loop_local(self, machine, suite):
        graphs = suite[:8]
        # IMS checkpoints each loop's units and the loop boundary charges
        # them again, so the suite costs about twice its units.  Twice the
        # first two loops plus once the rest leaves room for the first
        # loops but not the whole corpus: starvation must land mid-suite.
        ims = IterativeModuloScheduler(
            machine, representation=CorpusScheduler(machine).representation
        )
        units = [ims.schedule(graph).work.total_units for graph in graphs]
        budget = Budget(
            max_units=sum(units) + sum(units[:2]), label="corpus-test"
        )
        result = CorpusScheduler(machine).schedule_suite(
            graphs, budget=budget
        )
        assert len(result.outcomes) == len(graphs)
        assert not any(o.failed for o in result.outcomes[:2])
        assert result.failed > 0
        for outcome in result.outcomes:
            if outcome.failed:
                assert outcome.error_type == "BudgetExceeded"
                assert outcome.signature is None

    def test_generous_budget_changes_nothing(self, machine, suite):
        graphs = suite[:6]
        free = CorpusScheduler(machine).schedule_suite(graphs)
        bounded = CorpusScheduler(machine).schedule_suite(
            graphs, budget=Budget(max_units=10_000_000)
        )
        assert bounded.signatures() == free.signatures()

    def test_budget_forces_serial_execution(self, machine, suite):
        graphs = suite[:4]
        with obs.tracing() as tracer:
            result = CorpusScheduler(
                machine, processes=2
            ).schedule_suite(graphs, budget=Budget(max_units=10_000_000))
        assert result.failed == 0
        assert tracer.metrics.counters["corpus.serialized_for_budget"] == 1


class TestFallbackLadder:
    def test_policy_serves_every_loop_on_the_ims_rung(
        self, machine, suite
    ):
        graphs = suite[:6]
        policy = FallbackPolicy()
        result = CorpusScheduler(machine, policy=policy).schedule_suite(
            graphs
        )
        plain = CorpusScheduler(machine).schedule_suite(graphs)
        assert result.failed == 0
        assert result.degraded == 0
        assert all(o.rung == RUNG_IMS for o in result.outcomes)
        assert result.signatures() == plain.signatures()


class TestParallel:
    def test_parallel_replays_serial_schedules_and_query_work(
        self, machine, suite
    ):
        graphs = suite[:8]
        serial = CorpusScheduler(machine).schedule_suite(graphs)
        parallel = CorpusScheduler(machine, processes=2).schedule_suite(
            graphs
        )
        assert parallel.failed == 0
        assert parallel.signatures() == serial.signatures()
        assert dict(parallel.work.units) == dict(serial.work.units)
        assert dict(parallel.work.calls) == dict(serial.work.calls)


@pytest.fixture(scope="module")
def large_suite():
    """Just enough loops for a default run to fan out over two CPUs."""
    return loop_suite(2 * MIN_LOOPS_PER_PROCESS)


@pytest.fixture
def two_cpus(monkeypatch):
    """Make the process see two available CPUs, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)


class TestDefaultFanOut:
    @pytest.mark.parametrize("policy", [None, FallbackPolicy()],
                             ids=["ims", "ladder"])
    def test_default_replays_serial_run(
        self, machine, large_suite, two_cpus, policy
    ):
        default = CorpusScheduler(machine, policy=policy).schedule_suite(
            large_suite
        )
        serial = CorpusScheduler(
            machine, policy=policy, processes=1
        ).schedule_suite(large_suite)
        assert default.processes == 2
        assert serial.processes == 1
        assert default.failed == 0
        assert default.signatures() == serial.signatures()
        assert dict(default.work.units) == dict(serial.work.units)
        assert dict(default.work.calls) == dict(serial.work.calls)
        assert (default.scheduled, default.degraded, default.failed) == (
            serial.scheduled, serial.degraded, serial.failed
        )

    def test_small_suite_stays_serial(self, machine, two_cpus):
        graphs = loop_suite(2 * MIN_LOOPS_PER_PROCESS - 1)
        assert CorpusScheduler(machine).schedule_suite(graphs).processes == 1

    def test_one_cpu_affinity_stays_serial(
        self, machine, large_suite, monkeypatch
    ):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        result = CorpusScheduler(machine).schedule_suite(large_suite)
        assert result.processes == 1
        assert result.failed == 0

    def test_explicit_count_asks_for_that_many(self, machine, suite):
        result = CorpusScheduler(machine, processes=3).schedule_suite(
            suite[:8]
        )
        assert result.processes == 3
        assert result.signatures() == CorpusScheduler(
            machine, processes=0
        ).schedule_suite(suite[:8]).signatures()


class TestSerialRules:
    """Runs a second process cannot serve faithfully stay serial, and the
    effective count on the result and the span says so."""

    def test_active_tracer(self, machine, suite):
        with obs.tracing() as tracer:
            result = CorpusScheduler(machine, processes=2).schedule_suite(
                suite[:8]
            )
        assert result.processes == 1
        (span,) = [s for s in tracer.spans if s.name == "corpus.schedule"]
        assert span.args["processes"] == 1
        assert "corpus.serialized_for_budget" not in tracer.metrics.counters

    def test_budget(self, machine, suite):
        result = CorpusScheduler(machine, processes=2).schedule_suite(
            suite[:8], budget=Budget(max_units=10_000_000)
        )
        assert result.processes == 1
        assert result.failed == 0

    def test_live_extra_thread(self, machine, suite):
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            result = CorpusScheduler(machine, processes=2).schedule_suite(
                suite[:8]
            )
        finally:
            release.set()
            thread.join()
        assert result.processes == 1

    def test_no_fork_start_method(self, machine, suite, monkeypatch):
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        result = CorpusScheduler(machine, processes=2).schedule_suite(
            suite[:8]
        )
        assert result.processes == 1

    def test_daemonic_caller(self, machine, suite, monkeypatch):
        # A daemonic process (a multiprocessing pool worker, say) may
        # not start children.
        monkeypatch.setitem(
            multiprocessing.current_process()._config, "daemon", True
        )
        result = CorpusScheduler(machine, processes=2).schedule_suite(
            suite[:8]
        )
        assert result.processes == 1

    def test_single_loop(self, machine, suite):
        result = CorpusScheduler(machine, processes=2).schedule_suite(
            suite[:1]
        )
        assert result.processes == 1


class TestWorkerFailure:
    """With two processes the caller schedules the even loops and the
    worker the odd ones, so a fault on loop 1 strikes the worker."""

    def test_worker_exception_raises_in_caller(
        self, machine, suite, monkeypatch
    ):
        schedule_one = corpus_module._schedule_one

        def faulty(scheduler, graph, policy, budget):
            if graph.name == suite[1].name:
                raise ValueError("injected fault in %s" % graph.name)
            return schedule_one(scheduler, graph, policy, budget)

        monkeypatch.setattr(corpus_module, "_schedule_one", faulty)
        with pytest.raises(ValueError, match="injected fault"):
            CorpusScheduler(machine, processes=2).schedule_suite(suite[:4])
        assert corpus_module._INHERITED is None

    def test_worker_that_dies_raises_in_caller(
        self, machine, suite, monkeypatch
    ):
        schedule_one = corpus_module._schedule_one

        def dying(scheduler, graph, policy, budget):
            if graph.name == suite[1].name:
                os._exit(3)
            return schedule_one(scheduler, graph, policy, budget)

        monkeypatch.setattr(corpus_module, "_schedule_one", dying)
        with pytest.raises(RuntimeError, match="exited with code 3"):
            CorpusScheduler(machine, processes=2).schedule_suite(suite[:4])

    def test_loop_errors_stay_failed_outcomes(
        self, machine, suite, monkeypatch
    ):
        schedule_one = corpus_module._schedule_one

        def refusing(scheduler, graph, policy, budget):
            if graph.name == suite[1].name:
                raise ScheduleError("no schedule for %s" % graph.name)
            return schedule_one(scheduler, graph, policy, budget)

        monkeypatch.setattr(corpus_module, "_schedule_one", refusing)
        result = CorpusScheduler(machine, processes=2).schedule_suite(
            suite[:4]
        )
        assert result.processes == 2
        assert [o.failed for o in result.outcomes] == [
            False, True, False, False
        ]
        assert result.outcomes[1].error_type == "ScheduleError"


class TestCli:
    def test_schedule_corpus_exits_clean(self, capsys):
        assert main(
            ["schedule", "cydra5-subset", "--corpus", "--loops", "6"]
        ) == 0
        out = capsys.readouterr().out
        assert "corpus: 6 scheduled" in out

    def test_schedule_corpus_perloop_representation(self, capsys):
        assert main(
            [
                "schedule", "cydra5-subset", "--corpus", "--loops", "3",
                "--representation", "compiled",
            ]
        ) == 0
        assert "corpus: 3 scheduled" in capsys.readouterr().out
