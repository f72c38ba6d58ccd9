"""End-to-end wall-clock benchmark of the reduction and the schedulers.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--seed N] [--passes 10] [--quick] [--out FILE]
    python3 benchmarks/e2e/run.py --workload ims-suite --seed 3 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py compare A.json B.json

Every timed pass is a fresh child process (``child.py``), one at a time,
with ``PYTHONHASHSEED=0`` and no ``REPRO_*`` variable, so process-cold
costs (imports, kernel compiles, in-process memos) are paid as a user pays
them.  Passes are interleaved round-robin across workloads; a discarded
warm-up child per workload runs first so byte-compilation never lands in
``setup_s``.  Untraced passes give the end-to-end metrics; one extra
traced pass per workload gives the per-layer metrics (``layers.py``).
Every output is checked by ``oracle.py``, which shares no code with the
library; the run exits 1 when any check fails.

With ``--workload`` the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from typing import Dict, List, Optional

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
EXPECTED = os.path.join(HERE, "expected.json")

WORKLOADS = ("reduce-cydra5", "reduce-zoo", "ims-suite", "corpus-suite")
#: The CLI's per-loop representations; ``ims-suite`` runs one child each.
REPRESENTATIONS = ("discrete", "bitvector", "compiled")
#: Representations the per-layer metrics are split by (``batch`` is the
#: corpus default today).
LAYER_REPRESENTATIONS = REPRESENTATIONS + ("batch",)
QUERY_FUNCTIONS = ("first_free_with_alternatives", "assign_free", "free")
CURRENCIES = ("check", "check_range", "assign&free", "free", "compile", "batch")
REDUCE_LAYERS = (
    "forbidden", "generating", "prune", "select", "materialize", "verify",
)
#: Leaf-most library modules the stack sampler reports by name; the rest
#: of the library is ``other``, time outside it ``outside``.
SAMPLED_MODULES = (
    "core.elementary", "core.forbidden", "core.generating", "core.machine",
    "core.pruning", "core.reduce", "core.reservation", "core.selection",
    "query.alternatives", "query.base", "query.batch", "query.bitvector",
    "query.compiled", "query.discrete", "query.work", "scheduler.corpus",
    "scheduler.ddg", "scheduler.mii", "scheduler.modulo", "obs",
)
#: Exact end-to-end counts: a change in the worse direction is a regression.
EXACT = {
    "reduced_resources": "lower",
    "reduced_usages": "lower",
    "ii_total": "lower",
    "loops_at_mii": "higher",
}
#: Timings reported beside the ``BENCHMARK.json`` ones, gated by ``compare``
#: with the bound of the metric in the second field.
SIBLING_BOUND = {"item_p99_ms": "item_p50_ms", "ims_s": "pass_s"}
#: A layer whose hook is missing makes these metrics ``null``.
NULLED_BY = {
    "matrix": ("reduce.forbidden", "reduce.verify", "reduce.glue"),
    "reduce.generating": (
        "reduce.generating", "reduce.glue", "reduce.prune_keep_ratio",
    ),
    "reduce.prune": ("reduce.prune", "reduce.glue"),
    "reduce.select": ("reduce.select", "reduce.glue"),
    "reduce.materialize": ("reduce.materialize", "reduce.glue"),
    "reduce.pairs": ("reduce.pairs",),
    "sched.mii": ("sched.mii", "sched.self"),
    "query.build": (
        "query.", "sched.self", "sched.decisions", "sched.evictions",
    ),
}
#: Share of the traced wall time the named layers must cover.
MIN_ATTRIBUTED = 0.90
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark itself cannot run (not an output check failure)."""


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def spawn(config: dict) -> dict:
    """Run one child to completion and return its document."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, json.dumps(config)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError("child %s timed out" % (config,))
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            "child %s failed (exit %d):\n%s"
            % (config, proc.returncode, proc.stderr[-2000:])
        )
    sys.stderr.write(proc.stderr)
    doc = json.loads(lines[-1])
    if "t_ready" in doc:
        doc["setup_s"] = doc["t_ready"] - start
    return doc


def children(workload: str) -> List[Optional[str]]:
    return list(REPRESENTATIONS) if workload == "ims-suite" else [None]


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def input_key(workload: str) -> str:
    return "suite" if workload.endswith("-suite") else workload


class Checker:
    """Checks child outputs against the oracle, once per distinct output."""

    def __init__(self) -> None:
        self.inputs: Dict[str, dict] = {}
        self.verdicts: Dict[str, List[tuple]] = {}
        self.original_sets: Dict[tuple, dict] = {}
        self.seconds: Counter = Counter()

    def has_inputs(self, workload: str) -> bool:
        return input_key(workload) in self.inputs

    def check(self, workload: str, doc: dict) -> List[tuple]:
        """``(item index, problem)`` pairs for one child's outputs."""
        start = time.perf_counter()
        key = input_key(workload)
        if "inputs" in doc:
            self.inputs.setdefault(key, doc.pop("inputs"))
        outputs = doc["outputs"]
        doc["digest"] = oracle.digest(outputs)
        verdict_key = key + ":" + doc["digest"]
        if verdict_key not in self.verdicts:
            self.verdicts[verdict_key] = self._verify(key, outputs)
        self.seconds[workload] += time.perf_counter() - start
        return self.verdicts[verdict_key]

    def _verify(self, key: str, outputs: List[dict]) -> List[tuple]:
        inputs = self.inputs[key]
        items = inputs["machines"] if key != "suite" else inputs["loops"]
        problems = []
        if len(outputs) != len(items):
            problems.append(
                (-1, "%d outputs for %d inputs" % (len(outputs), len(items)))
            )
        for index, out in enumerate(outputs[:len(items)]):
            if "error" in out:
                problems.append((index, out["error"]))
                continue
            if key == "suite":
                found = oracle.check_schedule(
                    items[index], out, inputs["tables"], inputs["alternatives"]
                )
            else:
                found = oracle.check_reduction(
                    self.original(key, index), out["tables"],
                    out["resources"], out["usages"],
                )
            problems.extend((index, p) for p in found)
        return problems

    def original(self, key: str, index: int) -> dict:
        sets = self.original_sets.get((key, index))
        if sets is None:
            tables = self.inputs[key]["machines"][index]["tables"]
            sets = self.original_sets[(key, index)] = oracle.forbidden_sets(tables)
        return sets

    def instances(self, key: str) -> int:
        machines = self.inputs[key]["machines"]
        return sum(
            oracle.instance_count(self.original(key, i))
            for i in range(len(machines))
        )


# ----------------------------------------------------------------------
# One workload's passes
# ----------------------------------------------------------------------
class WorkloadRun:
    """Untraced passes, the traced pass and every problem of one workload."""

    def __init__(self, name: str, seed: int, quick: bool, checker: Checker):
        self.name = name
        self.seed = seed
        self.quick = quick
        self.checker = checker
        self.passes: List[List[dict]] = []
        self.traced: List[dict] = []
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.digests = set()

    def config(self, rep, mode="pass", traced=False) -> dict:
        return {
            "workload": self.name, "seed": self.seed, "quick": self.quick,
            "rep": rep, "mode": mode, "traced": traced,
            "inputs": not self.checker.has_inputs(self.name),
        }

    def warm_up(self) -> None:
        spawn(self.config(children(self.name)[0], mode="warmup"))

    def run(self, traced: bool = False) -> List[dict]:
        docs = []
        for rep in children(self.name):
            doc = spawn(self.config(rep, traced=traced))
            self.record(doc)
            if self.passes and not traced:
                # Checked and digested; only the first pass's outputs are
                # read again (for the exact counts).
                del doc["outputs"]
            docs.append(doc)
        if traced:
            self.traced = docs
        else:
            self.passes.append(docs)
        return docs

    def record(self, doc: dict) -> None:
        problems = self.checker.check(self.name, doc)
        self.attempted += len(doc["outputs"])
        self.failed += len({index for index, _ in problems})
        self.digests.add(doc["digest"])
        for index, problem in problems[:5]:
            self.problems.append("item %d: %s" % (index, problem))

    # ------------------------------------------------------------------
    def metrics(self) -> Dict[str, dict]:
        """End-to-end timings: medians over passes, items pooled."""
        def entry(unit, values, value=None, samples=None):
            return {
                "value": statistics.median(values) if value is None else value,
                "unit": unit,
                "passes": values,
                "samples": len(values) if samples is None else samples,
            }

        setups = [sum(d["setup_s"] for d in p) for p in self.passes]
        walls = [sum(d["pass_s"] for d in p) for p in self.passes]
        rss = [max(d["rss_mb"] for d in p) for p in self.passes]
        items = [[t * 1e3 for d in p for t in d["items_s"]] for p in self.passes]
        pooled = sorted(t for per_pass in items for t in per_pass)
        out = {
            "setup_s": entry("s", setups),
            "pass_s": entry("s", walls),
            "peak_rss_mb": entry("MB", rss),
            "item_p50_ms": entry(
                "ms", [statistics.median(p) for p in items],
                statistics.median(pooled), len(pooled),
            ),
        }
        p99 = statistics.quantiles(pooled, n=100)[98] if len(pooled) > 1 else 0
        if sum(1 for t in pooled if t > p99) >= 10:
            out["item_p99_ms"] = entry(
                "ms", [statistics.quantiles(p, n=100)[98] for p in items],
                p99, len(pooled),
            )
        if self.name == "ims-suite":
            for index, rep in enumerate(REPRESENTATIONS):
                out["ims_s." + rep] = entry(
                    "s", [p[index]["pass_s"] for p in self.passes]
                )
        return out

    def exact(self) -> Dict[str, int]:
        outputs = self.passes[0][0]["outputs"]
        if self.name.startswith("reduce-"):
            return {
                "reduced_resources": sum(o.get("resources", 0) for o in outputs),
                "reduced_usages": sum(o.get("usages", 0) for o in outputs),
            }
        done = [o for o in outputs if "ii" in o]
        return {
            "ii_total": sum(o["ii"] for o in done),
            "loops_at_mii": sum(1 for o in done if o["ii"] == o["mii"]),
        }

    def layers(self, untraced_pass_s: float) -> Dict[str, Optional[float]]:
        """Per-layer metrics of the traced pass (``null`` if a hook is gone)."""
        docs = self.traced
        wall = sum(d["pass_s"] for d in docs)
        stats = [d["stats"] for d in docs]
        out: Dict[str, Optional[float]] = {
            "trace.pass_s": wall,
            "trace.overhead_ratio": wall / untraced_pass_s,
            "trace.attributed_ratio": sum(
                s.get("reduce_s", 0.0) + s.get("sched_s", 0.0) for s in stats
            ) / wall,
            "bench.oracle_s": self.checker.seconds[self.name],
        }
        seconds = Counter()
        calls = Counter()
        counts = Counter()
        for s in stats:
            seconds.update(s["seconds"])
            calls.update(s["calls"])
            counts.update(s["counts"])
        reduce_s = sum(s.get("reduce_s", 0.0) for s in stats)
        inner = 0.0
        for layer in REDUCE_LAYERS:
            out["reduce.%s_s" % layer] = seconds["reduce." + layer]
            inner += seconds["reduce." + layer]
        out["reduce.glue_s"] = reduce_s - inner
        for name in ("pairs", "generating_size", "pruned_size"):
            out["reduce." + name] = counts["reduce." + name]
        out["reduce.prune_keep_ratio"] = (
            counts["reduce.pruned_size"] / counts["reduce.generating_size"]
            if counts["reduce.generating_size"] else 0.0
        )
        out["reduce.instances"] = (
            self.checker.instances(self.name)
            if self.name.startswith("reduce-") else 0
        )
        for suffix, group in [("", stats)] + [
            ("." + rep, [s for s in stats if s.get("representation") == rep])
            for rep in LAYER_REPRESENTATIONS
        ]:
            out.update(self._sched_layers(suffix, group))
        for fn in QUERY_FUNCTIONS:
            out["query.%s.calls" % fn] = calls["query." + fn]
        outputs = [o for d in docs for o in d["outputs"] if "ii" in o]
        at_mii = sum(1 for o in outputs if o["ii"] == o["mii"])
        out["sched.attempts"] = sum(o["ii"] - o["mii"] + 1 for o in outputs)
        out["sched.first_ii_ratio"] = at_mii / len(outputs) if outputs else 0.0
        out["sched.decisions"] = calls["query.assign_free"]
        out["sched.evictions"] = counts["query.evicted"] + calls["query.free"]
        out["corpus.schedule_s"] = sum(s.get("corpus_s", 0.0) for s in stats)
        corpus_units = Counter()
        for s in stats:
            corpus_units.update(s.get("corpus_units", {}))
        for currency in CURRENCIES:
            out["corpus.units." + currency.replace("&", "_")] = (
                corpus_units[currency]
            )
        for name, value in list(out.items()):
            share = share_name(name)
            if share is not None:
                out[share] = value / wall
        samples = Counter()
        for s in stats:
            for module, n in s["samples"].items():
                samples[sample_bucket(module)] += n
        total = sum(samples.values()) or 1
        for bucket in SAMPLED_MODULES + ("other", "outside"):
            out["sample.share." + bucket] = samples[bucket] / total
        for missing in {m for s in stats for m in s["missing"]}:
            for name in out:
                if name.startswith(NULLED_BY.get(missing, (missing,))):
                    out[name] = None
        return out

    @staticmethod
    def _sched_layers(suffix: str, stats: List[dict]) -> Dict[str, float]:
        seconds = Counter()
        for s in stats:
            seconds.update(s["seconds"])
        query_s = seconds["query.build"] + sum(
            v for k, v in seconds.items()
            if k.startswith("query.") and k != "query.build"
        )
        units = sum(s.get("units", 0) for s in stats)
        out = {
            "sched.mii_s" + suffix: seconds["sched.mii"],
            "sched.self_s" + suffix: sum(s.get("sched_s", 0.0) for s in stats)
            - seconds["sched.mii"] - query_s,
            "query.build_s" + suffix: seconds["query.build"],
            "query.units" + suffix: units,
            "query.units_per_us" + suffix: units / (query_s * 1e6)
            if query_s else 0.0,
        }
        for fn in QUERY_FUNCTIONS:
            out["query.%s_s%s" % (fn, suffix)] = seconds["query." + fn]
        return out


def share_name(name: str) -> Optional[str]:
    """``reduce.select_s`` -> ``reduce.select_share`` (also with a
    representation suffix); ``None`` for names that are no layer time."""
    base, dot, rep = name.rpartition(".")
    if rep in LAYER_REPRESENTATIONS and base.endswith("_s"):
        return base[:-2] + "_share." + rep
    if name.endswith("_s") and name.split(".")[0] in (
        "reduce", "sched", "query", "corpus"
    ):
        return name[:-2] + "_share"
    return None


def sample_bucket(module: str) -> str:
    if module == "outside":
        return module
    name = module[len("repro."):]
    if name.startswith("obs."):
        return "obs"
    return name if name in SAMPLED_MODULES else "other"


# ----------------------------------------------------------------------
# A whole run
# ----------------------------------------------------------------------
def run(workloads, seed, quick, passes, seconds, trace) -> dict:
    checker = Checker()
    runs = [WorkloadRun(name, seed, quick, checker) for name in workloads]
    for wl in runs:
        wl.warm_up()
    start = time.perf_counter()
    rounds = 0
    while True:
        for wl in runs:
            wl.run()
        rounds += 1
        sys.stderr.write("round %d done (%.1f s)\n"
                         % (rounds, time.perf_counter() - start))
        if seconds is not None:
            if time.perf_counter() - start >= seconds:
                break
        elif rounds >= passes:
            break
    if trace:
        for wl in runs:
            wl.run(traced=True)
    by_name = {wl.name: wl for wl in runs}
    if "corpus-suite" in by_name and "ims-suite" not in by_name:
        # The corpus path must reproduce per-loop IMS schedules exactly.
        reference = WorkloadRun("ims-suite", seed, quick, checker)
        reference.record(spawn(reference.config("compiled")))
        by_name["corpus-suite"].digests |= reference.digests
    return summarize(runs, seed, quick, rounds, trace)


def summarize(runs, seed, quick, rounds, trace) -> dict:
    pinned = {}
    if seed == 0 and not quick:
        with open(EXPECTED, encoding="utf-8") as handle:
            pinned = json.load(handle)["seed0"]
    suite_digests = set()
    result = {
        "schema": "e2e-bench/1",
        "seed": seed,
        "quick": quick,
        "passes": rounds,
        "python": platform.python_version(),
        "machine": "%s, %d cpus" % (platform.machine(), os.cpu_count() or 0),
        "workloads": {},
    }
    for wl in runs:
        problems = list(wl.problems)
        if len(wl.digests) > 1:
            problems.append(
                "%d different outputs across children (representations, "
                "traced pass or reference run)" % len(wl.digests)
            )
        if wl.name.endswith("-suite"):
            suite_digests |= wl.digests
        exact = wl.exact()
        for name, want in pinned.get(wl.name, {}).items():
            if exact.get(name) != want:
                problems.append(
                    "%s = %s, expected %s" % (name, exact.get(name), want)
                )
        metrics = wl.metrics()
        doc = {
            "metrics": metrics,
            "exact": exact,
            "attempted": wl.attempted,
            "failed": wl.failed,
            "failed_ratio": wl.failed / wl.attempted,
            "problems": problems,
        }
        if trace:
            doc["layers"] = wl.layers(metrics["pass_s"]["value"])
            attributed = doc["layers"]["trace.attributed_ratio"]
            if attributed < MIN_ATTRIBUTED:
                problems.append(
                    "traced pass attributes %.1f%% of its wall time to "
                    "named layers (need %.0f%%)"
                    % (100 * attributed, 100 * MIN_ATTRIBUTED)
                )
        result["workloads"][wl.name] = doc
    if len(suite_digests) > 1:
        for name, doc in result["workloads"].items():
            if name.endswith("-suite"):
                doc["problems"].append("ims-suite and corpus-suite schedules differ")
    for doc in result["workloads"].values():
        doc["correct"] = not doc["problems"] and doc["failed"] == 0
    result["correct"] = all(d["correct"] for d in result["workloads"].values())
    return result


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def load_benchmark() -> dict:
    with open(BENCHMARK, encoding="utf-8") as handle:
        return json.load(handle)


def format_report(result: dict) -> str:
    lines = []
    for name, doc in result["workloads"].items():
        lines.append(
            "== %s  seed %d, %d passes, %d/%d items failed"
            % (name, result["seed"], result["passes"], doc["failed"],
               doc["attempted"])
        )
        for metric, m in doc["metrics"].items():
            q = statistics.quantiles(m["passes"], n=4) if len(m["passes"]) > 1 \
                else [m["value"]] * 3
            lines.append(
                "  %-22s %12.4f %-3s  IQR %.4f-%.4f  n=%d"
                % (metric, m["value"], m["unit"], q[0], q[2], m["samples"])
            )
        for metric, value in doc["exact"].items():
            lines.append("  %-22s %12d count" % (metric, value))
        if "layers" in doc:
            lines.append("  -- layers (traced pass)")
            for metric, value in doc["layers"].items():
                if "_share" in metric:
                    continue
                shown = "null" if value is None else "%.6g" % value
                share = doc["layers"].get(share_name(metric))
                if share is not None:
                    shown += "  (%.1f%%)" % (100 * share)
                lines.append("  %-46s %s" % (metric, shown))
        for problem in doc["problems"]:
            lines.append("  PROBLEM: " + problem)
    return "\n".join(lines)


def result_line(result: dict, trace: bool) -> dict:
    """The one-line result for a single-workload run."""
    (doc,) = result["workloads"].values()
    spec = load_benchmark()["per_layer" if trace else "end_to_end"]
    metrics = {}
    for entry in spec:
        if trace:
            # Exact counts of the other workload kind are 0, not missing.
            value = doc["layers"].get(
                entry["name"], doc["exact"].get(entry["name"], 0)
            )
        else:
            value = doc["metrics"].get(entry["name"], {}).get("value")
        if value is None:
            print("warning: %s not measured; reported as 0" % entry["name"],
                  file=sys.stderr)
            value = 0.0
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return {
        "correct": result["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    """better / worse / unchanged / unresolved for per-pass values."""
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(a)
    change = sign * (statistics.median(b) - base) / base
    spread = max(iqr(a), iqr(b)) / base
    if spread > bound:
        if all(sign * y < sign * x for x in a for y in b):
            return "better"
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "unchanged"


def iqr(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def compare(path_a: str, path_b: str) -> List[dict]:
    with open(path_a, encoding="utf-8") as handle:
        a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        b = json.load(handle)
    spec = {m["name"]: m for m in load_benchmark()["end_to_end"]}
    rows = []
    for workload, wa in a["workloads"].items():
        wb = b["workloads"].get(workload)
        if wb is None:
            continue
        for metric, ma in wa["metrics"].items():
            mb = wb["metrics"].get(metric)
            if mb is None:
                continue
            base = spec[SIBLING_BOUND.get(metric.split(".")[0], metric)]
            rows.append({
                "workload": workload, "metric": metric,
                "a": ma["value"], "b": mb["value"], "bound": base["bound"],
                "verdict": verdict(
                    ma["passes"], mb["passes"], base["better"], base["bound"]
                ),
            })
        for metric, va in wa["exact"].items():
            vb = wb["exact"].get(metric)
            sign = 1 if EXACT[metric] == "lower" else -1
            rows.append({
                "workload": workload, "metric": metric, "a": va, "b": vb,
                "bound": 0,
                "verdict": "unchanged" if vb == va else
                ("better" if sign * (vb - va) < 0 else "worse"),
            })
        rows.extend(units_without_wall(workload, wa, wb, rows))
    return rows


def units_without_wall(workload, wa, wb, rows) -> List[dict]:
    """Flag work units falling >= 10% while wall time does not fall."""
    la, lb = wa.get("layers", {}), wb.get("layers", {})
    wall = next(
        r for r in rows if r["workload"] == workload and r["metric"] == "pass_s"
    )
    if wall["verdict"] == "better":
        return []
    flags = []
    for name, before in la.items():
        after = lb.get(name)
        if not (name == "query.units" or name.startswith("corpus.units.")):
            continue
        if before and after is not None and after <= 0.9 * before:
            flags.append({
                "workload": workload, "metric": name, "a": before, "b": after,
                "bound": 0.1, "verdict": "units without wall",
            })
    return flags


def format_rows(rows: List[dict]) -> str:
    lines = ["%-14s %-28s %14s %14s  %s"
             % ("workload", "metric", "A", "B", "verdict")]
    for r in rows:
        lines.append("%-14s %-28s %14.6g %14.6g  %s" % (
            r["workload"], r["metric"], r["a"], r["b"], r["verdict"],
        ))
    return "\n".join(lines)


# ----------------------------------------------------------------------
def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload and print the result line")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--passes", type=int, default=None,
                        help="untraced passes per workload (default 10, "
                             "2 with --quick)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run untraced rounds until this many seconds "
                             "have passed (overrides --passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="run the traced pass (default 1)")
    parser.add_argument("--quick", action="store_true",
                        help="128 loops and 60 fuzz machines, 2 passes")
    parser.add_argument("--out", help="write the full result JSON here")
    args = parser.parse_args(argv)
    if args.passes is None:
        args.passes = 2 if args.quick else 10
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    return args


def main(argv: List[str]) -> int:
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        rows = compare(argv[1], argv[2])
        print(format_rows(rows))
        return 1 if any(r["verdict"] == "worse" for r in rows) else 0
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("error: %s holds no repro package; run from a checkout"
              % SRC, file=sys.stderr)
        return 2
    workloads = (args.workload,) if args.workload else WORKLOADS
    try:
        result = run(workloads, args.seed, args.quick, args.passes,
                     args.seconds, bool(args.trace))
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print(format_report(result))
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=1)
        print("wrote %s" % args.out)
    if args.workload:
        print(json.dumps(result_line(result, bool(args.trace))))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
