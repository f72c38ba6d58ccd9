"""Runlog + sampler overhead benchmark, and the headline runs trajectory.

Two jobs:

* **Overhead pinning** — measure a full IMS schedule bare, the same run
  with a live :class:`~repro.obs.runlog.RunRecorder` finalized and
  appended to a registry, and the same run with the sampler constructed
  but never started.  Both observability costs must stay under the
  repo's <5% disabled-overhead guard (the same margin
  ``tests/test_obs_overhead.py`` enforces structurally).  The recorded
  run feeds each schedule's ``WorkCounters`` to
  :meth:`~repro.obs.runlog.RunRecorder.add_work` and its II and MII to
  ``merge_quality``: the path a recorded CLI command takes, with no
  tracer.

* **Trajectory seeding** — run the default bench matrix through the
  CLI with ``--runlog`` live, check that its result round-trips through
  the artifact store (+ ``.sum.json`` checksum sidecar), and record the
  registry's own view of the run under ``benchmarks/results/``: the
  summed work counters (units and calls, by currency) and quality of
  every schedule the matrix ran.
"""

import os
import time

from conftest import RESULTS_DIR

from repro.cli import main
from repro.machines import cydra5_subset
from repro.obs.runlog import ENV_RUNLOG_CLOCK, RunLog, RunRecorder
from repro.obs.sampler import StackSampler
from repro.scheduler import IterativeModuloScheduler
from repro.workloads import KERNELS

REPEATS = 7
#: Schedules per measured "invocation".  The registry appends once per
#: CLI invocation, not once per loop, so the overhead pin amortizes the
#: fixed append cost over an invocation-sized batch of work — the shape
#: ``repro schedule`` actually has.
LOOPS_PER_RUN = 150


def _best_of(run):
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def test_runlog_and_sampler_overhead(tmp_path, record):
    machine = cydra5_subset()
    graph_builder = KERNELS["daxpy"]
    registry = RunLog(str(tmp_path / "runs"))

    def bare():
        for _ in range(LOOPS_PER_RUN):
            IterativeModuloScheduler(machine).schedule(graph_builder())

    def logged():
        recorder = RunRecorder("schedule", {"kernel": "daxpy"})
        for _ in range(LOOPS_PER_RUN):
            result = IterativeModuloScheduler(machine).schedule(
                graph_builder()
            )
            recorder.add_work(result.work)
            recorder.merge_quality({
                "loops": 1,
                "ii_total": result.ii,
                "mii_total": result.mii,
            })
        registry.append(recorder.finalize("ok", 0))

    def sampler_off():
        sampler = StackSampler(frames=lambda: {})
        assert not sampler.running
        for _ in range(LOOPS_PER_RUN):
            IterativeModuloScheduler(machine).schedule(graph_builder())

    baseline = _best_of(bare)
    with_runlog = _best_of(logged)
    with_sampler_off = _best_of(sampler_off)

    # The repo-wide disabled-overhead contract: 5% plus absolute slack
    # so a sub-millisecond baseline cannot flake the pin.
    margin = baseline * 1.05 + 500e-6
    assert with_runlog <= margin, (
        "runlog append overhead too high: bare=%.6fs logged=%.6fs"
        % (baseline, with_runlog)
    )
    assert with_sampler_off <= margin, (
        "sampler-off overhead too high: bare=%.6fs off=%.6fs"
        % (baseline, with_sampler_off)
    )
    assert len(registry.records()) == REPEATS

    data = {
        "baseline_s": baseline,
        "runlog_append_s": with_runlog,
        "sampler_off_s": with_sampler_off,
        "runlog_ratio": with_runlog / baseline,
        "sampler_off_ratio": with_sampler_off / baseline,
        "margin": 1.05,
        "records_appended": len(registry.records()),
    }
    text = (
        "runlog/sampler overhead (best of %d, %d IMS daxpy schedules"
        " per invocation on %s)\n"
        "  bare schedule        %.6fs\n"
        "  + runlog append      %.6fs  (x%.4f)\n"
        "  sampler off          %.6fs  (x%.4f)\n"
        "  guard: <= 1.05x + 500us absolute slack\n"
        % (
            REPEATS, LOOPS_PER_RUN, machine.name,
            baseline,
            with_runlog, with_runlog / baseline,
            with_sampler_off, with_sampler_off / baseline,
        )
    )
    record(
        "runlog_overhead", text, data=data,
        meta={"machine": machine.name, "kernel": "daxpy",
              "repeats": REPEATS, "loops_per_run": LOOPS_PER_RUN},
    )


def test_headline_runs_trajectory(tmp_path, monkeypatch, record, capsys):
    """Seed the bench trajectory from a runlog-driven run.

    The run works in ``tmp_path`` with relative paths and a pinned
    registry clock, so the recorded ``argv_digest``, timestamps and
    record checksum, and with them ``BENCH_runs_trajectory.json``, are
    the same on every run.
    """
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(ENV_RUNLOG_CLOCK, "1000")
    runlog = "runs"
    output = "bench.json"
    assert main([
        "bench", "run",
        "--output", output,
        "--runlog", runlog,
    ]) == 0
    capsys.readouterr()  # the rendered result table

    # The artifact store wrote the result plus its checksum sidecar,
    # and it loads back through the bench comparator's entry point.
    from repro.bench import load_result

    assert os.path.exists(output + ".sum.json")
    result = load_result(output)
    assert result.cases

    # The same invocation landed in the registry with the summed work.
    records = RunLog(runlog).records()
    assert len(records) == 1
    bench_record = records[0]
    assert bench_record.command == "bench run"
    assert not bench_record.corrupt
    assert bench_record.units().get("check", 0) > 0

    text = (
        "headline runs trajectory\n"
        "  bench run: %d cases\n"
        "  registry record: command=%s outcome=%s check-units=%d\n"
        % (
            len(result.cases),
            bench_record.command,
            bench_record.outcome,
            int(bench_record.units().get("check", 0)),
        )
    )
    record(
        "runs_trajectory", text,
        data={
            "cases": sorted(result.cases),
            "registry": bench_record.data,
        },
        meta={"loops": result.config["loops"]},
    )
    assert os.path.exists(
        os.path.join(RESULTS_DIR, "BENCH_runs_trajectory.json")
    )
