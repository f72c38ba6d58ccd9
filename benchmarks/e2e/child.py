"""One benchmark pass, run in a fresh process by ``run.py``.

Usage: ``python child.py '<json config>'`` with ``src`` on ``PYTHONPATH``.
The config names the workload, seed, representation (``ims-suite``
only), whether the pass is traced, and whether to export the inputs for
the output checks.  The child builds its inputs (set-up), stamps
``t_ready``, runs the timed pass through the library's public functions
only, and prints one JSON document as its last line of output.

Everything between process start and ``t_ready`` (interpreter start,
imports, machine construction, the cydra5-subset reduction, suite
generation) is set-up; the pass itself includes scheduler construction
and first kernel compiles, because every ``repro`` run pays them.
"""

from __future__ import annotations

import json
import resource
import sys
import threading
import time
import traceback
from contextlib import nullcontext

LOOPS = 1327
QUICK_LOOPS = 128
ZOO_PER_PROFILE = 200
QUICK_ZOO_PER_PROFILE = 20
#: Fuzz profiles of the zoo.  ``deep`` is left out: its heavy tail made
#: one 200-machine draw take minutes.
ZOO_PROFILES = ("mixed", "clustered-vliw", "buffered-pu")


def tables_of(machine) -> dict:
    """Reservation tables as plain data, for the output checks."""
    return {
        op: sorted([resource_, cycle] for resource_, cycle in
                   machine.table(op).iter_usages())
        for op in machine.operation_names
    }


def failure(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


# ----------------------------------------------------------------------
# Set-up: inputs from the seed
# ----------------------------------------------------------------------
def zoo_machines(seed: int, per_profile: int) -> list:
    from repro.fuzz.mdlgen import PROFILES, generate_machine
    from repro.machines import (
        alpha21064, buffered_pu, clustered_vliw, cydra5_subset,
        example_machine, mips_r3000, playdoh,
    )

    machines = [
        build() for build in (
            cydra5_subset, alpha21064, mips_r3000, playdoh, buffered_pu,
            clustered_vliw, example_machine,
        )
    ]
    for profile in ZOO_PROFILES:
        for index in range(per_profile):
            machines.append(
                generate_machine(seed * 1000 + index, PROFILES[profile])
            )
    return machines


def setup(config: dict) -> dict:
    """The pass's inputs and library entry points; importing them is
    set-up too, so no pass pays for an import."""
    workload, seed, quick = config["workload"], config["seed"], config["quick"]
    from repro.core import reduce_machine

    if workload == "reduce-cydra5":
        from repro.machines import cydra5

        return {"machines": [cydra5()], "reduce_machine": reduce_machine}
    if workload == "reduce-zoo":
        per_profile = QUICK_ZOO_PER_PROFILE if quick else ZOO_PER_PROFILE
        return {
            "machines": zoo_machines(seed, per_profile),
            "reduce_machine": reduce_machine,
        }
    from repro.machines import cydra5_subset
    from repro.scheduler import CorpusScheduler, IterativeModuloScheduler
    from repro.workloads.loopgen import loop_suite

    original = cydra5_subset()
    return {
        "original": original,
        "machine": reduce_machine(original).reduced,
        "suite": loop_suite(QUICK_LOOPS if quick else LOOPS, seed),
        "ims": IterativeModuloScheduler,
        "corpus": CorpusScheduler,
    }


def export_inputs(inputs: dict) -> dict:
    if "machines" in inputs:
        return {"machines": [
            {"name": m.name, "tables": tables_of(m)} for m in inputs["machines"]
        ]}
    original = inputs["original"]
    loops = []
    opcodes = set()
    for graph in inputs["suite"]:
        ops = [[op.name, op.opcode] for op in graph.operations()]
        opcodes.update(opcode for _, opcode in ops)
        loops.append({
            "name": graph.name,
            "ops": ops,
            "edges": [[e.src, e.dst, e.latency, e.distance]
                      for e in graph.edges()],
        })
    return {
        "loops": loops,
        "tables": tables_of(original),
        "alternatives": {
            opcode: list(original.alternatives_of(opcode))
            for opcode in sorted(opcodes)
        },
    }


# ----------------------------------------------------------------------
# Timed passes
# ----------------------------------------------------------------------
def pass_reduce(inputs: dict, clock) -> tuple:
    reduce_machine = inputs["reduce_machine"]
    items, reduced = [], []
    for machine in inputs["machines"]:
        start = time.perf_counter()
        try:
            with clock.reducing() if clock is not None else nullcontext():
                reduced.append(reduce_machine(machine).reduced)
        except Exception as exc:  # one bad machine must not end the pass
            reduced.append(exc)
        items.append(time.perf_counter() - start)

    def finish():
        outputs = [
            {"name": machine.name, "error": failure(out)}
            if isinstance(out, Exception) else {
                "name": machine.name,
                "tables": tables_of(out),
                "resources": out.num_resources,
                "usages": out.total_usages,
            }
            for machine, out in zip(inputs["machines"], reduced)
        ]
        return outputs, {"reduce_s": sum(items)}

    return items, finish


def schedule_doc(ii, mii, times, chosen) -> dict:
    return {
        "ii": ii,
        "mii": mii,
        "times": sorted([op, t] for op, t in times.items()),
        "chosen": sorted([op, alt] for op, alt in chosen.items()),
    }


def pass_ims(inputs: dict, representation: str) -> tuple:
    start = time.perf_counter()
    scheduler = inputs["ims"](inputs["machine"], representation=representation)
    items, results = [], []
    for graph in inputs["suite"]:
        begin = time.perf_counter()
        try:
            results.append(scheduler.schedule(graph))
        except Exception as exc:  # one bad loop must not end the pass
            results.append(exc)
        items.append(time.perf_counter() - begin)
    sched_s = time.perf_counter() - start

    def finish():
        outputs = [
            {"error": failure(r)} if isinstance(r, Exception)
            else schedule_doc(r.ii, r.mii, r.times, r.chosen_opcodes)
            for r in results
        ]
        units = sum(r.work.total_units for r in results
                    if not isinstance(r, Exception))
        return outputs, {
            "sched_s": sched_s, "units": units,
            "representation": representation,
        }

    return items, finish


def pass_corpus(inputs: dict) -> tuple:
    start = time.perf_counter()
    result = inputs["corpus"](inputs["machine"]).schedule_suite(inputs["suite"])
    sched_s = time.perf_counter() - start

    def finish():
        outputs = [
            {"error": "%s: %s" % (o.error_type, o.error)} if o.failed
            else schedule_doc(o.ii, o.mii, o.times, o.chosen_opcodes)
            for o in result.outcomes
        ]
        return outputs, {
            "sched_s": sched_s,
            "corpus_s": sched_s,
            "units": result.work.total_units,
            "corpus_units": dict(result.work.units),
            "representation": result.representation,
        }

    return [sched_s], finish


def run_pass(config: dict, inputs: dict, clock) -> tuple:
    """``(item seconds, finish)``; ``finish()`` exports the outputs and
    pass statistics after the clock has stopped."""
    workload = config["workload"]
    if workload.startswith("reduce-"):
        return pass_reduce(inputs, clock)
    if workload == "ims-suite":
        return pass_ims(inputs, config["rep"])
    return pass_corpus(inputs)


def peak_rss_mb() -> float:
    """This process's peak resident set.

    Linux carries ``ru_maxrss`` across ``exec``, so a child would report
    the parent's size whenever the parent is larger; the kernel's
    per-address-space high-water mark ``VmHWM`` is read instead where
    it exists.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv) -> int:
    config = json.loads(argv[1])
    inputs = setup(config)
    doc = {}
    if config["mode"] == "pass":
        if config["traced"]:
            import layers

            clock = layers.LayerClock()
            sampler = layers.StackSampler(threading.get_ident())
            with layers.hooked(clock), sampler:
                doc["t_ready"] = time.perf_counter()
                items, finish = run_pass(config, inputs, clock)
                end = time.perf_counter()
        else:
            doc["t_ready"] = time.perf_counter()
            items, finish = run_pass(config, inputs, None)
            end = time.perf_counter()
        doc["rss_mb"] = peak_rss_mb()
        outputs, stats = finish()
        if config["traced"]:
            stats.update(
                seconds=dict(clock.seconds),
                calls=dict(clock.calls),
                counts=dict(clock.counts),
                missing=clock.missing,
                samples=dict(sampler.counts),
            )
        doc.update(
            pass_s=end - doc["t_ready"],
            items_s=items,
            outputs=outputs,
            stats=stats,
        )
        if config["inputs"]:
            doc["inputs"] = export_inputs(inputs)
    sys.stdout.write(json.dumps(doc, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
