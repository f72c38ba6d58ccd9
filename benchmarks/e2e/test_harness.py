"""Self-test of the end-to-end benchmark: ``pytest benchmarks/e2e``.

Kept outside the tier-1 ``testpaths``; it runs the benchmark once in
``--quick`` mode (a few seconds) and exercises the output checks, the
layer hooks and ``compare`` directly.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import child
import layers
import oracle
import run


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    """One traced quick run of corpus-suite (plus its reference child)."""
    out = tmp_path_factory.mktemp("e2e") / "result.json"
    lines = {}
    for trace in (0, 1):
        proc = subprocess.run(
            [sys.executable, run.__file__, "--workload", "corpus-suite",
             "--quick", "--passes", "1", "--trace", str(trace),
             "--out", str(out)],
            cwd=run.ROOT, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        lines[trace] = json.loads(proc.stdout.splitlines()[-1])
    return out, lines


def test_metric_names_match_benchmark_json(quick_run):
    path, lines = quick_run
    spec = run.load_benchmark()
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert list(lines[0]["metrics"]) == end_to_end
    assert list(lines[1]["metrics"]) == per_layer
    with open(path, encoding="utf-8") as handle:
        (doc,) = json.load(handle)["workloads"].values()
    measured = set(doc["metrics"]) - set(end_to_end)
    assert all(name.split(".")[0] in run.SIBLING_BOUND for name in measured)
    # Every layer metric but the seconds behind each share is listed.
    listed = {n for n in doc["layers"] if run.share_name(n) is None}
    assert listed | set(run.EXACT) == set(per_layer)
    assert lines[1]["correct"] and lines[1]["failed"] == 0


def test_compare_file_with_itself_is_unchanged(quick_run):
    path, _ = quick_run
    rows = run.compare(str(path), str(path))
    assert rows
    assert {row["verdict"] for row in rows} == {"unchanged"}


def test_verdicts():
    tight = [1.0, 1.01, 0.99, 1.0]
    assert run.verdict(tight, [1.2, 1.21, 1.19], "lower", 0.1) == "worse"
    assert run.verdict(tight, [0.8, 0.81, 0.79], "lower", 0.1) == "better"
    assert run.verdict(tight, [1.05, 1.04], "lower", 0.1) == "unchanged"
    wide = [0.7, 1.0, 1.3, 1.0]
    assert run.verdict(wide, [1.2, 1.3], "lower", 0.1) == "unresolved"


def _reduced_example():
    from repro.core import reduce_machine
    from repro.machines import cydra5_subset

    machine = cydra5_subset()
    return machine, reduce_machine(machine).reduced


def test_oracle_rejects_a_dropped_usage():
    machine, reduced = _reduced_example()
    original = oracle.forbidden_sets(child.tables_of(machine))
    tables = child.tables_of(reduced)
    assert oracle.check_reduction(
        original, tables, reduced.num_resources, reduced.total_usages
    ) == []
    op = max(tables, key=lambda name: len(tables[name]))
    tables[op] = tables[op][1:]
    problems = oracle.check_reduction(
        original, tables, reduced.num_resources, reduced.total_usages - 1
    )
    assert any("forbidden latencies" in p for p in problems), problems


def test_oracle_rejects_an_mrt_collision():
    from repro.scheduler import IterativeModuloScheduler
    from repro.workloads.loopgen import loop_suite

    machine, reduced = _reduced_example()
    graph = max(loop_suite(64, 0), key=lambda g: g.num_operations)
    inputs = child.export_inputs(
        {"original": machine, "suite": [graph]}
    )
    loop = inputs["loops"][0]
    result = IterativeModuloScheduler(reduced).schedule(graph)
    schedule = child.schedule_doc(
        result.ii, result.mii, result.times, result.chosen_opcodes
    )
    tables, alternatives = inputs["tables"], inputs["alternatives"]
    assert oracle.check_schedule(loop, schedule, tables, alternatives) == []
    times = dict(schedule["times"])
    chosen = dict(schedule["chosen"])
    names = sorted(times)
    # Shift one operation so one of its usages lands on a slot another
    # operation already holds in the original machine's MRT.
    shifted = next(
        (b, times[a] + ca - cb)
        for a in names for b in names if a != b
        for ra, ca in tables[chosen[a]] for rb, cb in tables[chosen[b]]
        if ra == rb
    )
    times[shifted[0]] = shifted[1]
    schedule["times"] = sorted([op, t] for op, t in times.items())
    problems = oracle.check_schedule(loop, schedule, tables, alternatives)
    assert any("collides" in p for p in problems), problems


def test_hooks_are_restored_even_on_error():
    owners = []
    for module_name, path, _layer in layers.HOOKS:
        owner, attribute = layers._resolve(module_name, path)
        owners.append((owner, attribute, vars(owner)[attribute]))
    clock = layers.LayerClock()
    with pytest.raises(RuntimeError):
        with layers.hooked(clock):
            for owner, attribute, original in owners:
                assert vars(owner)[attribute] is not original
            raise RuntimeError("pass failed")
    for owner, attribute, original in owners:
        assert vars(owner)[attribute] is original


def test_missing_hook_is_reported_not_fatal(capsys):
    clock = layers.LayerClock()
    hooks = layers.HOOKS + (("repro.core.reduce", "no_such_step", "reduce.gone"),)
    with layers.hooked(clock, hooks):
        pass
    assert clock.missing == ["reduce.gone"]
    assert "no_such_step" in capsys.readouterr().err


def test_runs_without_the_library_fail_without_a_result(tmp_path):
    bench = tmp_path / "benchmarks" / "e2e"
    bench.mkdir(parents=True)
    for name in os.listdir(run.HERE):
        if name.endswith((".py", ".json", ".md")):
            (bench / name).write_bytes(
                open(os.path.join(run.HERE, name), "rb").read()
            )
    (tmp_path / "BENCHMARK.json").write_bytes(open(run.BENCHMARK, "rb").read())
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "reduce-zoo",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
