"""Tests for the observability layer (``repro.obs``)."""

import json

import pytest

from repro.machines import cydra5_subset, example_machine
from repro.obs import trace as obs
from repro.obs.export import (
    METRICS_SCHEMA_NAME,
    METRICS_SCHEMA_VERSION,
    chrome_trace_document,
    collapsed_stack_lines,
    exclusive_times,
    metrics_document,
    render_text,
    write_chrome_trace,
    write_collapsed_stack,
    write_metrics,
)
from repro.obs.metrics import HISTOGRAM_BUCKETS, Histogram, MetricsRegistry, TimerStats
from repro.query import make_query_module
from repro.query.discrete import DiscreteQueryModule
from repro.scheduler import IterativeModuloScheduler
from repro.workloads import KERNELS


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    """Every test must leave tracing disabled."""
    assert obs.current() is None
    yield
    assert obs.current() is None


class TestTracer:
    def test_disabled_by_default(self):
        assert obs.current() is None
        assert not obs.enabled()

    def test_module_helpers_are_noops_when_disabled(self):
        with obs.span("nothing"):
            pass
        obs.event("nothing")
        obs.count("nothing")  # must not raise, must not create a tracer
        assert obs.current() is None

    def test_tracing_context_activates_and_restores(self):
        with obs.tracing() as tracer:
            assert obs.current() is tracer
            with obs.tracing() as inner:
                assert obs.current() is inner
            assert obs.current() is tracer
        assert obs.current() is None

    def test_start_stop(self):
        tracer = obs.start()
        try:
            assert obs.current() is tracer
        finally:
            assert obs.stop() is tracer
        assert obs.current() is None

    def test_span_records_duration_and_args(self):
        with obs.tracing() as tracer:
            with obs.span("phase", obs.CAT_REDUCE, machine="m"):
                pass
        (record,) = tracer.spans
        assert record.name == "phase"
        assert record.category == obs.CAT_REDUCE
        assert record.duration >= 0
        assert record.args == {"machine": "m"}
        assert tracer.metrics.timers["reduce.phase"].count == 1

    def test_span_set_attaches_outcome_args(self):
        with obs.tracing() as tracer:
            with obs.span("attempt", obs.CAT_SCHED, ii=3) as span:
                span.set(succeeded=True)
        (record,) = tracer.spans
        assert record.args == {"ii": 3, "succeeded": True}

    def test_event_and_counter(self):
        with obs.tracing() as tracer:
            tracer.event("place", obs.CAT_SCHED, op="a")
            tracer.count("decisions", 3)
        (record,) = tracer.events
        assert record.name == "place"
        assert tracer.metrics.counters["sched.place"] == 1
        assert tracer.metrics.counters["decisions"] == 3

    def test_record_cap_drops_but_keeps_metrics(self):
        with obs.tracing(max_records=4) as tracer:
            for index in range(10):
                tracer.event("e%d" % index)
        assert tracer.num_records == 4
        assert tracer.dropped == 6
        # Aggregates are exact despite the dropped records.
        assert sum(tracer.metrics.counters.values()) == 10

    def test_span_survives_exceptions(self):
        with obs.tracing() as tracer:
            with pytest.raises(ValueError):
                with obs.span("boom"):
                    raise ValueError("x")
        assert len(tracer.spans) == 1


class TestMetricsRegistry:
    def test_timer_stats(self):
        timer = TimerStats()
        for duration in (0.2, 0.1, 0.4):
            timer.observe(duration)
        assert timer.count == 3
        assert timer.min == pytest.approx(0.1)
        assert timer.max == pytest.approx(0.4)
        assert timer.mean == pytest.approx(0.7 / 3)

    def test_timer_merge(self):
        a, b = TimerStats(), TimerStats()
        a.observe(0.2)
        b.observe(0.1)
        b.observe(0.5)
        a.merge(b)
        assert a.count == 3
        assert a.min == pytest.approx(0.1)
        assert a.max == pytest.approx(0.5)
        a.merge(TimerStats())  # merging empty is the identity
        assert a.count == 3

    def test_histogram_buckets_and_quantiles(self):
        hist = Histogram()
        for us in (0.5, 1.5, 3.0, 100.0):
            hist.observe(us / 1e6)
        assert hist.count == 4
        assert hist.quantile(0.5) in HISTOGRAM_BUCKETS
        assert hist.quantile(0.99) >= hist.quantile(0.5)
        assert hist.quantile(0.0) >= 0

    def test_histogram_overflow(self):
        hist = Histogram()
        hist.observe(1e6)  # a million seconds
        assert hist.overflow == 1

    def test_registry_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.add("c", 1)
        b.add("c", 2)
        b.observe("t", 0.1)
        b.histogram("h").observe(1e-6)
        a.merge(b)
        assert a.counters["c"] == 3
        assert a.timers["t"].count == 1
        assert a.histograms["h"].count == 1


class TestQueryInstrumentation:
    def test_factory_returns_plain_class_when_disabled(self):
        qm = make_query_module(example_machine())
        assert type(qm) is DiscreteQueryModule

    def test_factory_returns_observed_class_when_tracing(self):
        with obs.tracing():
            qm = make_query_module(example_machine())
        assert type(qm).__name__ == "ObservedDiscreteQueryModule"
        assert isinstance(qm, DiscreteQueryModule)

    def test_observed_calls_and_units_match_work_counters(self):
        machine = example_machine()
        op = machine.operation_names[0]
        with obs.tracing() as tracer:
            qm = make_query_module(machine)
            assert qm.check(op, 0)
            token = qm.assign(op, 0)
            qm.free(token)
        metrics = tracer.metrics
        assert metrics.timers["query.check"].count == qm.work.calls["check"]
        assert metrics.timers["query.assign"].count == 1
        assert metrics.timers["query.free"].count == 1
        assert (
            metrics.counters["query.check.units"] == qm.work.units["check"]
        )

    def test_observed_module_behaves_like_plain_module(self):
        machine = example_machine()
        ops = machine.operation_names

        def drive(qm):
            seen = []
            tokens = []
            for cycle in range(6):
                for op in ops:
                    seen.append(qm.check(op, cycle))
                    if qm.check(ops[0], cycle):
                        tokens.append(qm.assign(ops[0], cycle))
            qm.free(tokens[0])
            seen.append(qm.check(ops[0], 0))
            return seen

        def drive_forcing(qm):
            token, evicted = qm.assign_free(ops[0], 0)
            _token2, evicted2 = qm.assign_free(ops[0], 0)
            return [len(evicted), len(evicted2), token.ident]

        plain = drive(make_query_module(machine))
        plain_forced = drive_forcing(make_query_module(machine))
        with obs.tracing():
            observed = drive(make_query_module(machine))
            observed_forced = drive_forcing(make_query_module(machine))
        assert observed == plain
        assert observed_forced == plain_forced

    def test_query_spans_only_with_trace_queries(self):
        machine = example_machine()
        op = machine.operation_names[0]
        with obs.tracing(trace_queries=False) as tracer:
            make_query_module(machine).check(op, 0)
        assert not tracer.spans
        with obs.tracing(trace_queries=True) as tracer:
            make_query_module(machine).check(op, 0)
        (record,) = tracer.spans
        assert record.category == obs.CAT_QUERY
        assert record.name == "check"


class TestPipelineInstrumentation:
    def test_reduction_phase_spans_and_rule_counters(self):
        from repro.core import reduce_machine

        with obs.tracing() as tracer:
            reduce_machine(example_machine())
        names = {record.name for record in tracer.spans}
        assert {
            "forbidden_matrix", "generating_set", "prune_covered",
            "selection", "verify",
        } <= names
        counters = tracer.metrics.counters
        assert counters["reduce.algorithm1.pairs"] > 0
        assert counters["reduce.selection.iterations"] > 0
        # Every processed pair fires at least one of rules 1-3.
        fired = sum(
            counters.get("reduce.algorithm1.rule%d" % rule, 0)
            for rule in (1, 2, 3)
        )
        assert fired >= counters["reduce.algorithm1.pairs"]

    def test_ims_events_and_spans(self):
        machine = cydra5_subset()
        graph = KERNELS["daxpy"]()
        with obs.tracing() as tracer:
            result = IterativeModuloScheduler(machine).schedule(graph)
        categories = {record.category for record in tracer.spans}
        assert obs.CAT_SCHED in categories
        names = {record.name for record in tracer.spans}
        assert "ims.schedule" in names
        assert "ims.attempt" in names
        assert (
            tracer.metrics.counters["sched.ims.decisions"]
            == result.total_decisions
        )
        # One placement event per scheduling decision.
        place_events = [
            record for record in tracer.events
            if record.name in ("ims.place", "ims.force")
        ]
        assert len(place_events) == result.total_decisions

    def test_untraced_scheduling_unchanged(self):
        machine = cydra5_subset()
        graph = KERNELS["daxpy"]()
        baseline = IterativeModuloScheduler(machine).schedule(graph)
        with obs.tracing():
            traced = IterativeModuloScheduler(machine).schedule(graph)
        assert traced.times == baseline.times
        assert traced.ii == baseline.ii
        assert traced.work.calls == baseline.work.calls
        assert traced.work.units == baseline.work.units

    def test_list_scheduler_span(self):
        from repro.scheduler import OperationDrivenScheduler
        from repro.workloads.blockgen import generate_block

        machine = cydra5_subset()
        block = generate_block(seed=7)
        with obs.tracing() as tracer:
            result = OperationDrivenScheduler(machine).schedule(block)
        (record,) = [
            r for r in tracer.spans if r.name == "list.schedule"
        ]
        assert record.args["placements"] == len(result.times)
        place_events = [
            r for r in tracer.events if r.name == "list.place"
        ]
        assert len(place_events) == len(result.times)


class TestExports:
    def _traced_run(self, trace_queries=True):
        machine = cydra5_subset()
        from repro.core import reduce_machine

        with obs.tracing(trace_queries=trace_queries) as tracer:
            tracer.meta.update(machine=machine.name)
            reduce_machine(machine)
            IterativeModuloScheduler(machine).schedule(KERNELS["daxpy"]())
        return tracer

    def test_metrics_document_schema(self):
        tracer = self._traced_run()
        document = metrics_document(tracer)
        assert document["schema"] == METRICS_SCHEMA_NAME
        assert document["version"] == METRICS_SCHEMA_VERSION
        for key in ("counters", "timers", "histograms", "queries",
                    "records", "meta"):
            assert key in document
        # Round-trips through JSON.
        clone = json.loads(json.dumps(document))
        assert clone["queries"]["check"]["calls"] > 0
        entry = clone["queries"]["check"]
        assert entry["units_per_call"] >= 1.0
        assert entry["units_per_s"] is None or entry["units_per_s"] > 0
        for timer in clone["timers"].values():
            assert timer["count"] > 0
            assert timer["total_s"] >= timer["min_s"]

    def test_chrome_trace_document(self):
        tracer = self._traced_run()
        document = chrome_trace_document(tracer)
        events = document["traceEvents"]
        assert events
        categories = {event["cat"] for event in events}
        assert {"reduce", "sched", "query"} <= categories
        for event in events:
            assert event["ph"] in ("X", "i")
            assert event["ts"] >= 0
            assert event["pid"] == 1 and event["tid"] == 1
            if event["ph"] == "X":
                assert event["dur"] >= 0
        # Timestamps are sorted, as trace viewers prefer.
        timestamps = [event["ts"] for event in events]
        assert timestamps == sorted(timestamps)
        json.dumps(document)  # serializable

    def test_write_exports(self, tmp_path):
        tracer = self._traced_run()
        metrics_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "trace.json"
        write_metrics(tracer, str(metrics_path))
        write_chrome_trace(tracer, str(trace_path))
        metrics = json.loads(metrics_path.read_text())
        assert metrics["version"] == METRICS_SCHEMA_VERSION
        trace = json.loads(trace_path.read_text())
        assert trace["otherData"]["producer"] == "repro.obs"

    def test_render_text_breakdown(self):
        tracer = self._traced_run()
        text = render_text(tracer)
        assert "phases" in text
        assert "reduce.generating_set" in text
        assert "query functions" in text
        assert "check" in text
        assert "counters" in text


class TestProfilePipeline:
    def test_profile_kernel(self):
        from repro.obs.profile import profile_machine

        tracer = obs.Tracer(trace_queries=True)
        work = profile_machine(cydra5_subset(), kernel="daxpy", tracer=tracer)
        assert obs.current() is None  # deactivated on return
        assert work.units["check"] > 0
        assert tracer.meta["kernel"] == "daxpy"
        names = {record.name for record in tracer.spans}
        assert {"reduce", "schedule", "ims.schedule"} <= names
        assert tracer.metrics.counters["profile.loops"] == 1

    def test_profile_native_fallback_for_foreign_repertoire(self):
        from repro.obs.profile import profile_machine, workload_for

        machine = example_machine()
        graphs = workload_for(machine, None, 3)
        assert len(graphs) == 3
        assert all(
            op in machine for graph in graphs for op in graph.opcodes()
        )
        tracer = obs.Tracer()
        profile_machine(machine, loops=2, tracer=tracer)
        assert tracer.metrics.counters["profile.loops"] == 2

    def test_profile_reduced_schedules_on_reduced_machine(self):
        from repro.obs.profile import profile_machine

        tracer = obs.Tracer()
        profile_machine(
            cydra5_subset(), kernel="daxpy", schedule_reduced=True,
            tracer=tracer,
        )
        assert tracer.meta["scheduled_on"] == "reduced"
        assert tracer.metrics.counters["profile.loops_at_mii"] == 1


class TestExclusiveTimes:
    """Self-time reconstruction from flat span records."""

    def _synthetic_tracer(self):
        from repro.obs.trace import SpanRecord

        tracer = obs.Tracer()
        # reduce [0, 10) with children generating_set [1, 4) and
        # verify [5, 8); sched [10, 16) with nested query [11, 12).
        tracer.spans = [
            SpanRecord("reduce", "reduce", 0.0, 10.0),
            SpanRecord("generating_set", "reduce", 1.0, 3.0),
            SpanRecord("verify", "reduce", 5.0, 3.0),
            SpanRecord("ims.schedule", "sched", 10.0, 6.0),
            SpanRecord("check", "query", 11.0, 1.0),
        ]
        return tracer

    def test_exclusive_times_subtract_direct_children(self):
        times = exclusive_times(self._synthetic_tracer())
        assert times["reduce.reduce"] == pytest.approx(4.0)
        assert times["reduce.generating_set"] == pytest.approx(3.0)
        assert times["reduce.verify"] == pytest.approx(3.0)
        assert times["sched.ims.schedule"] == pytest.approx(5.0)
        assert times["query.check"] == pytest.approx(1.0)
        # Totals are conserved: sum of self == sum of root durations.
        assert sum(times.values()) == pytest.approx(16.0)

    def test_exclusive_times_clamp_overlong_children(self):
        from repro.obs.trace import SpanRecord

        tracer = obs.Tracer()
        # Clock skew can make a child look longer than its parent;
        # self time must never go negative.
        tracer.spans = [
            SpanRecord("outer", "sched", 0.0, 1.0),
            SpanRecord("inner", "sched", 0.1, 2.0),
        ]
        times = exclusive_times(tracer)
        assert times["sched.outer"] == 0.0

    def test_collapsed_stack_lines(self):
        lines = collapsed_stack_lines(self._synthetic_tracer())
        as_map = {}
        for line in lines:
            stack, _, value = line.rpartition(" ")
            as_map[stack] = int(value)
        assert as_map["reduce.reduce"] == 4_000_000
        assert as_map["reduce.reduce;reduce.generating_set"] == 3_000_000
        assert as_map["sched.ims.schedule;query.check"] == 1_000_000
        # Deterministic ordering.
        assert lines == sorted(lines)

    def test_collapsed_stack_merges_repeated_paths(self):
        from repro.obs.trace import SpanRecord

        tracer = obs.Tracer()
        tracer.spans = [
            SpanRecord("check", "query", float(i), 0.5) for i in range(4)
        ]
        (line,) = collapsed_stack_lines(tracer)
        assert line == "query.check 2000000"

    def test_write_collapsed_stack(self, tmp_path):
        out = tmp_path / "flame.txt"
        write_collapsed_stack(self._synthetic_tracer(), str(out))
        content = out.read_text()
        assert "reduce.reduce;reduce.verify 3000000" in content
        assert content.endswith("\n")

    def test_real_run_totals_match(self):
        machine = cydra5_subset()
        from repro.core import reduce_machine

        with obs.tracing(trace_queries=True) as tracer:
            reduce_machine(machine)
            IterativeModuloScheduler(machine).schedule(KERNELS["daxpy"]())
        times = exclusive_times(tracer)
        assert times
        # Self time never exceeds the timer's inclusive total.
        for key, self_s in times.items():
            stats = tracer.metrics.timers.get(key)
            assert stats is not None, key
            assert self_s <= stats.total + 1e-9
        document = metrics_document(tracer)
        assert set(document["exclusive_s"]) == set(times)
        text = render_text(tracer)
        assert "self ms" in text


class TestEmptyTraceGuards:
    """Span-math guards: exports must survive empty and trivial traces."""

    def test_exclusive_times_empty_trace(self):
        assert exclusive_times(obs.Tracer()) == {}

    def test_collapsed_stack_lines_empty_trace(self):
        assert collapsed_stack_lines(obs.Tracer()) == []

    def test_single_span_is_its_own_self_time(self):
        from repro.obs.trace import SpanRecord

        tracer = obs.Tracer()
        tracer.spans = [SpanRecord("reduce", "reduce", 0.0, 2.0)]
        assert exclusive_times(tracer) == {
            "reduce.reduce": pytest.approx(2.0)
        }
        assert collapsed_stack_lines(tracer) == [
            "reduce.reduce 2000000"
        ]

    def test_write_collapsed_stack_empty_trace_writes_empty_file(
        self, tmp_path
    ):
        # A lone blank line reads as a malformed frame to flamegraph
        # tooling; a no-span trace must produce a genuinely empty file.
        out = tmp_path / "flame.txt"
        write_collapsed_stack(obs.Tracer(), str(out))
        assert out.read_text() == ""
