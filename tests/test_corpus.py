"""The corpus driver: a whole loop suite in one pass.

The headline contract is that the driver adds nothing to a loop's
schedule or work: by default it must reproduce per-loop compiled IMS
signature-for-signature, with merged work equal to the per-loop sum.
The satellite contracts ride along — budget starvation stays
loop-local, the fallback ladder degrades loops without sinking the
corpus, and the multiprocessing fan-out replays the serial run exactly.
"""

import pytest

from repro.cli import main
from repro.core.certificate import machine_digest
from repro.machines import cydra5_subset, example_machine
from repro.obs import trace as obs
from repro.query.work import WorkCounters
from repro.resilience.budget import Budget
from repro.resilience.fallback import RUNG_IMS as FALLBACK_RUNG_IMS
from repro.resilience.fallback import FallbackPolicy
from repro.scheduler import IterativeModuloScheduler
from repro.scheduler import corpus as corpus_module
from repro.scheduler.corpus import (
    CorpusScheduler,
    LoopOutcome,
    schedule_signature,
)
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
            chosen_opcodes={}, rung=corpus_module.RUNG_IMS,
        )
        assert not served.failed and not served.degraded
        assert served.signature == (2, (("a", 0),), ())


def test_rung_ims_pin_matches_fallback_module():
    """The constant inlined to break the import cycle must not drift."""
    assert corpus_module.RUNG_IMS == FALLBACK_RUNG_IMS


class TestDefaultMatchesPerLoopIMS:
    def test_signatures_and_work_equal_per_loop_ims(self, machine, suite):
        graphs = suite[:8]
        corpus = CorpusScheduler(machine).schedule_suite(graphs)
        ims = IterativeModuloScheduler(machine, representation="compiled")
        expected = WorkCounters()
        signatures = []
        for graph in graphs:
            result = ims.schedule(graph)
            expected.merge(result.work)
            signatures.append(schedule_signature(
                result.ii, result.times, result.chosen_opcodes
            ))

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
        # The 8-loop suite costs 5037 units.  IMS checkpoints each loop's
        # units and the loop boundary charges them again, so 6000 leaves
        # room for the first loops but not the whole corpus: starvation
        # must land mid-suite.
        budget = Budget(max_units=6000, label="corpus-test")
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
        assert all(o.rung == FALLBACK_RUNG_IMS for o in result.outcomes)
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
