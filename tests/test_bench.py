"""The benchmark observatory: result store, runner, exact comparator.

Comparator edge cases covered per the perf-gate design: one-unit rises
on small and large counters, missing metrics on one side,
schema-version mismatches, workload mismatches, and determinism of the
work-unit gate.  The end-to-end run -> compare -> report round trip
(including the injected-slowdown regression) lives in
``tests/test_bench_cli.py``.
"""

import json

import pytest

from repro.bench import (
    BenchCase,
    BenchResult,
    compare_metric_maps,
    compare_results,
    load_result,
    render_comparison_text,
    render_result_text,
    save_result,
)
from repro.bench.result import RESULT_SCHEMA_NAME, RESULT_SCHEMA_VERSION
from repro.errors import ArtifactIntegrityError, BenchFormatError


# ----------------------------------------------------------------------
# Result store
# ----------------------------------------------------------------------
def _make_case(
    machine="m",
    representation="discrete",
    work=None,
    quality=None,
):
    return BenchCase(
        machine=machine,
        representation=representation,
        work=dict(
            work
            if work is not None
            else {"query.check.units": 1000.0, "sched.ims.decisions": 64.0}
        ),
        quality=dict(
            quality
            if quality is not None
            else {
                "loops": 4, "loops_at_mii": 4,
                "ii_total": 20, "mii_total": 20, "mii_gap": 0,
            }
        ),
    )


def _make_result(**case_kwargs):
    result = BenchResult(
        meta={"git_sha": "deadbeef"},
        config={"loops": 4},
    )
    result.add_case(_make_case(**case_kwargs))
    return result


def test_result_round_trip_dict():
    result = _make_result()
    parsed = BenchResult.from_dict(result.to_dict())
    assert parsed.to_dict() == result.to_dict()


def test_result_schema_mismatch_rejected():
    document = _make_result().to_dict()
    document["version"] = RESULT_SCHEMA_VERSION + 1
    with pytest.raises(BenchFormatError) as excinfo:
        BenchResult.from_dict(document)
    assert str(RESULT_SCHEMA_VERSION + 1) in str(excinfo.value)
    document["version"] = RESULT_SCHEMA_VERSION
    document["schema"] = "something-else"
    with pytest.raises(BenchFormatError):
        BenchResult.from_dict(document)
    with pytest.raises(BenchFormatError):
        BenchResult.from_dict(["not", "an", "object"])


def test_result_save_load_checksummed(tmp_path):
    path = str(tmp_path / "run.json")
    result = _make_result()
    save_result(path, result)
    assert (tmp_path / "run.json.sum.json").exists()
    loaded = load_result(path)
    assert loaded.to_dict() == result.to_dict()


def test_result_load_detects_corruption(tmp_path):
    path = str(tmp_path / "run.json")
    save_result(path, _make_result())
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("\n")
    with pytest.raises(ArtifactIntegrityError):
        load_result(path)


def test_result_load_without_sidecar(tmp_path):
    # CI-downloaded artifacts may arrive without their sidecar.
    path = str(tmp_path / "bare.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(_make_result().to_dict(), handle)
    assert load_result(path).cases


def test_result_load_rejects_non_json(tmp_path):
    path = str(tmp_path / "garbage.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("not json")
    with pytest.raises(BenchFormatError):
        load_result(path)


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
def test_run_case_work_ignores_kernel_cache_warmth():
    from repro.bench.runner import run_case
    from repro.machines import example_machine
    from repro.query import clear_kernel_cache

    machine = example_machine()
    clear_kernel_cache()
    cold, cold_counters = run_case(machine, "compiled", loops=4)
    warm, warm_counters = run_case(machine, "compiled", loops=4)
    assert cold.work == warm.work
    assert cold_counters == warm_counters
    assert "query.kernel.compile.calls" not in cold.work
    assert cold.work["query.check_range.calls"] > 0


def _query_currencies(work):
    """``{(currency, "units" | "calls")}`` of a case's ``query.*`` keys."""
    return {
        tuple(key[len("query."):].rsplit(".", 1))
        for key in work if key.startswith("query.")
    }


def test_every_query_key_names_a_currency():
    """Each cell keys its query work by the schedules' own currencies,
    with the values of the counters the runner returns."""
    from repro.bench.runner import (
        DEFAULT_MACHINES,
        DEFAULT_REPRESENTATIONS,
        run_benchmark,
    )
    from repro.machines.builtin import BUILTIN_MACHINES
    from repro.query.work import FUNCTIONS, WorkCounters

    for name in DEFAULT_MACHINES:
        machine = BUILTIN_MACHINES[name]()
        for representation in DEFAULT_REPRESENTATIONS:
            result, counters = run_benchmark(
                [(name, machine)], [representation], loops=8
            )
            [case] = result.cases.values()
            keys = _query_currencies(case.work)
            assert keys, case.work
            assert {fn for fn, _ in keys} <= set(FUNCTIONS), keys
            assert {kind for _, kind in keys} == {"units", "calls"}
            stored = WorkCounters()
            for function, kind in keys:
                value = case.work["query.%s.%s" % (function, kind)]
                getattr(stored, kind)[function] = value
            assert stored == counters, (name, representation)


def test_baseline_query_keys_name_currencies():
    import os

    from repro.query.work import FUNCTIONS

    path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "benchmarks", "results", "BENCH_baseline.json",
    )
    for key, case in load_result(path).cases.items():
        keys = _query_currencies(case.work)
        assert {fn for fn, _ in keys} <= set(FUNCTIONS), (key, keys)
        assert {kind for _, kind in keys} == {"units", "calls"}, key


# ----------------------------------------------------------------------
# Comparator
# ----------------------------------------------------------------------
def test_identical_runs_compare_neutral():
    base = _make_result()
    new = BenchResult.from_dict(base.to_dict())
    comparison = compare_results(base, new)
    assert comparison.ok
    assert not comparison.regressions
    assert not comparison.improvements


def test_work_unit_increase_gates_hard():
    base = _make_result()
    new = _make_result(work={
        "query.check.units": 1100.0, "sched.ims.decisions": 64.0,
    })
    comparison = compare_results(base, new)
    assert not comparison.ok
    (regression,) = comparison.regressions
    assert regression.metric == "query.check.units"
    assert regression.kind == "work"
    assert regression.gated


def test_work_unit_decrease_is_improvement():
    base = _make_result()
    new = _make_result(work={
        "query.check.units": 500.0, "sched.ims.decisions": 64.0,
    })
    comparison = compare_results(base, new)
    assert comparison.ok
    assert any(
        d.metric == "query.check.units" for d in comparison.improvements
    )


def test_work_unit_small_rise_gates():
    # Counters reproduce exactly, so a +0.5% rise is real work.
    base = _make_result()
    new = _make_result(work={
        "query.check.units": 1005.0, "sched.ims.decisions": 64.0,
    })
    comparison = compare_results(base, new)
    assert not comparison.ok
    (regression,) = comparison.regressions
    assert regression.metric == "query.check.units"


def test_small_counters_gated():
    # One extra event on a 4-event counter gates; one fewer improves.
    base = _make_result(work={"reduce.algorithm1.rule1": 4.0})
    new = _make_result(work={"reduce.algorithm1.rule1": 5.0})
    comparison = compare_results(base, new)
    assert not comparison.ok
    (regression,) = comparison.regressions
    assert regression.metric == "reduce.algorithm1.rule1"
    comparison = compare_results(new, base)
    assert comparison.ok
    (improvement,) = comparison.improvements
    assert improvement.metric == "reduce.algorithm1.rule1"


def test_compare_results_is_compare_metric_maps_per_case():
    base = _make_result(work={
        "query.check.units": 1000.0, "reduce.algorithm1.rule1": 4.0,
        "profile.ii_total": 20.0,
    })
    new = _make_result(
        work={"query.check.units": 990.0, "query.free.units": 8.0,
              "profile.ii_total": 21.0},
        quality={
            "loops": 4, "loops_at_mii": 3,
            "ii_total": 21, "mii_total": 20, "mii_gap": 1,
        },
    )
    base_case = base.cases["m/discrete"]
    new_case = new.cases["m/discrete"]
    direct = compare_metric_maps(
        "m/discrete", base_case.work, new_case.work,
        base_case.quality, new_case.quality,
    )
    via_results = compare_results(base, new)
    assert [d.to_dict() for d in via_results.deltas] == [
        d.to_dict() for d in direct.deltas
    ]
    assert {d.metric for d in direct.deltas} == {
        "quality.ii_total", "quality.loops_at_mii",
        "query.check.units", "query.free.units",
        "reduce.algorithm1.rule1",
    }


def test_missing_metric_on_one_side_not_gated():
    base = _make_result()
    new = _make_result(work={
        "query.check.units": 1000.0,
        "sched.ims.decisions": 64.0,
        "query.assign.units": 400.0,
    })
    comparison = compare_results(base, new)
    assert comparison.ok
    missing = [
        d for d in comparison.deltas if d.metric == "query.assign.units"
    ][0]
    assert missing.classification == "missing-base"
    assert not missing.gated
    # And the mirror image.
    comparison = compare_results(new, base)
    assert comparison.ok
    missing = [
        d for d in comparison.deltas if d.metric == "query.assign.units"
    ][0]
    assert missing.classification == "missing-new"


def test_quality_regression_gates():
    base = _make_result()
    new = _make_result(quality={
        "loops": 4, "loops_at_mii": 3,
        "ii_total": 22, "mii_total": 20, "mii_gap": 2,
    })
    comparison = compare_results(base, new)
    assert not comparison.ok
    metrics = {d.metric for d in comparison.regressions}
    assert "quality.ii_total" in metrics
    assert "quality.loops_at_mii" in metrics


def test_workload_mismatch_skips_case():
    base = _make_result()
    new = _make_result(quality={
        "loops": 8, "loops_at_mii": 8,
        "ii_total": 40, "mii_total": 40, "mii_gap": 0,
    })
    comparison = compare_results(base, new)
    assert comparison.ok
    assert not comparison.deltas  # nothing comparable
    assert any("workload mismatch" in note for note in comparison.notes)


def test_case_on_one_side_only_is_noted():
    base = _make_result()
    new = _make_result(representation="bitvector")
    comparison = compare_results(base, new)
    assert comparison.ok
    assert len(comparison.notes) >= 2  # one per one-sided case


def test_comparison_document_shape():
    base = _make_result()
    new = _make_result(work={
        "query.check.units": 1100.0, "sched.ims.decisions": 64.0,
    })
    document = compare_results(base, new).to_dict()
    assert document["schema"] == "repro-bench-compare"
    assert document["ok"] is False
    assert document["regressions"][0]["metric"] == "query.check.units"


# ----------------------------------------------------------------------
# Renderers
# ----------------------------------------------------------------------
def test_render_result_text_mentions_cases():
    text = render_result_text(_make_result())
    assert "m/discrete" in text
    assert "sha=deadbeef" in text
    assert "4/4" in text  # loops at MII


def test_render_comparison_text_verdicts():
    base = _make_result()
    ok_text = render_comparison_text(
        compare_results(base, BenchResult.from_dict(base.to_dict()))
    )
    assert ok_text.startswith("verdict: OK")
    new = _make_result(work={
        "query.check.units": 1100.0, "sched.ims.decisions": 64.0,
    })
    bad = render_comparison_text(compare_results(base, new))
    assert bad.startswith("verdict: REGRESSION")
    assert "query.check.units" in bad


def test_schema_constants_stable():
    # The checked-in baseline depends on these; bump deliberately.
    assert RESULT_SCHEMA_NAME == "repro-bench-result"
    assert RESULT_SCHEMA_VERSION == 1


# ----------------------------------------------------------------------
# Forward compatibility with pre-attribution results
# ----------------------------------------------------------------------
def test_pre_attribution_fixture_compares_clean(tmp_path):
    """A PR-5-era result (no ``query.attribute.*``) still gates today.

    The attribution plane added a new work currency to the shared
    registries; older stored bench results know nothing about it.  The
    comparator must classify the one-sided counters as informational
    (never gated) instead of failing on the unknown metric.
    """
    import os

    from repro.bench.compare import MISSING_BASE

    fixture = os.path.join(
        os.path.dirname(__file__), "fixtures", "bench-result-pr5.json"
    )
    base = load_result(fixture)
    assert "cydra5-subset/compiled" in base.cases
    # The reader ignores the old per-case wall statistics.
    assert set(base.cases["cydra5-subset/compiled"].to_dict()) == {
        "machine", "representation", "work", "quality",
    }

    new = BenchResult(
        meta={"git_sha": "feedface"},
        config={"loops": 4, "seed": 0},
    )
    new_work = dict(base.cases["cydra5-subset/compiled"].work)
    new_work["query.attribute.units"] = 42.0  # the new currency
    new.add_case(
        BenchCase(
            machine="cydra5-subset",
            representation="compiled",
            work=new_work,
            quality=dict(base.cases["cydra5-subset/compiled"].quality),
        )
    )

    comparison = compare_results(base, new)
    assert comparison.ok  # the new counter must not gate
    missing = [
        delta for delta in comparison.deltas
        if delta.metric == "query.attribute.units"
    ]
    assert missing, "new counter should surface as an ungated delta"
    assert all(d.classification == MISSING_BASE for d in missing)
    assert all(d.kind == "work" for d in missing)
    assert not any(delta.gated for delta in missing)
    # And the rendered report stays usable.
    text = render_comparison_text(comparison)
    assert text.startswith("verdict: OK")


def test_pre_batch_fixture_compares_clean(tmp_path):
    """A PR-5-era result (no ``query.batch.*``) still gates today.

    The corpus batch plane added the BATCH currency and the
    ``corpus-batch``/``corpus-perloop`` cells; stored results that
    predate both must load, compare, and never gate on the one-sided
    counter or the extra cases.
    """
    import os

    from repro.bench.compare import MISSING_BASE

    fixture = os.path.join(
        os.path.dirname(__file__), "fixtures", "bench-result-pr5.json"
    )
    base = load_result(fixture)
    case = base.cases["cydra5-subset/compiled"]
    assert not any("batch" in key for key in case.work)

    new = BenchResult(
        meta={"git_sha": "feedface"},
        config={"loops": 4, "seed": 0},
    )
    new_work = dict(case.work)
    new_work["query.batch.units"] = 42.0  # the batch plane's currency
    new.add_case(
        BenchCase(
            machine="cydra5-subset",
            representation="compiled",
            work=new_work,
            quality=dict(case.quality),
        )
    )
    # A corpus cell the old result never ran must be skipped, not gated.
    new.add_case(
        BenchCase(
            machine="cydra5-subset",
            representation="corpus-batch",
            work={"query.batch.units": 420.0},
            quality={"loops": 8.0},
        )
    )

    comparison = compare_results(base, new)
    assert comparison.ok  # the new counter must not gate
    missing = [
        delta for delta in comparison.deltas
        if delta.metric == "query.batch.units"
    ]
    assert missing, "new counter should surface as an ungated delta"
    assert all(d.classification == MISSING_BASE for d in missing)
    assert not any(delta.gated for delta in missing)
    text = render_comparison_text(comparison)
    assert text.startswith("verdict: OK")
    assert "corpus-batch" in text  # skipped case is still reported


def test_pre_sampler_fixture_compares_clean(tmp_path):
    """A PR-8-era result (no ``query.sample.*``) still gates today.

    The sampling profiler added the SAMPLE currency; stored results that
    predate it must load, compare, and never gate on the one-sided
    counter — the same forward-compatibility contract the attribution
    currency established.
    """
    import os

    from repro.bench.compare import MISSING_BASE

    fixture = os.path.join(
        os.path.dirname(__file__), "fixtures", "bench-result-pr5.json"
    )
    base = load_result(fixture)
    case = base.cases["cydra5-subset/compiled"]
    assert not any("sample" in key for key in case.work)

    new = BenchResult(
        meta={"git_sha": "feedface"},
        config={"loops": 4, "seed": 0},
    )
    new_work = dict(case.work)
    new_work["query.sample.units"] = 42.0  # the sampler's currency
    new.add_case(
        BenchCase(
            machine="cydra5-subset",
            representation="compiled",
            work=new_work,
            quality=dict(case.quality),
        )
    )

    comparison = compare_results(base, new)
    assert comparison.ok  # the new counter must not gate
    missing = [
        delta for delta in comparison.deltas
        if delta.metric == "query.sample.units"
    ]
    assert missing, "new counter should surface as an ungated delta"
    assert all(d.classification == MISSING_BASE for d in missing)
    assert not any(delta.gated for delta in missing)
    text = render_comparison_text(comparison)
    assert text.startswith("verdict: OK")
