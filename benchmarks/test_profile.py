"""Profile benchmark — the ``repro.obs`` layer applied to the paper's
pipeline: reduce the Cydra-5 subset, modulo-schedule a slice of the loop
suite under tracing, and record the per-phase time/work breakdown.

``results/BENCH_profile.json`` is the first checked-in machine-readable
perf snapshot; its ``data`` field is the obs metrics document (schema
``repro-obs-metrics``), so the perf trajectory of every phase and query
function can be tracked run over run.
"""

import os

from conftest import BENCH_LOOPS

from repro.machines import cydra5_subset
from repro.obs.export import metrics_document, render_text
from repro.obs.profile import profile_machine
from repro.obs.trace import Tracer

#: Loops to profile; a slice of the benchmark suite keeps the checked-in
#: snapshot quick to regenerate while exercising every phase.
PROFILE_LOOPS = int(os.environ.get("REPRO_PROFILE_LOOPS", "0")) or min(
    64, BENCH_LOOPS
)


def test_profile_snapshot(benchmark, record):
    machine = cydra5_subset()
    tracer = Tracer()

    benchmark.pedantic(
        profile_machine,
        args=(machine,),
        kwargs={"loops": PROFILE_LOOPS, "tracer": tracer},
        rounds=1,
        iterations=1,
    )

    document = metrics_document(tracer)
    record(
        "profile",
        render_text(tracer),
        data=document,
        meta={"machine": machine.name, "loops": PROFILE_LOOPS},
    )

    # Every pipeline phase must have been traced, and the query table must
    # account the same calls WorkCounters saw.
    timers = document["timers"]
    for phase in ("profile.reduce", "profile.schedule",
                  "reduce.generating_set", "sched.ims.schedule"):
        assert timers[phase]["count"] >= 1
    assert document["queries"]["check"]["calls"] > 0
    assert document["counters"]["profile.loops"] == PROFILE_LOOPS
