"""Compiled query kernels: batched-scan work reduction under the IMS.

The compiled representation precompiles packed reservation masks and
pairwise collision bitsets, then answers the scheduler's candidate-window
scans with one batched kernel per alternative instead of one table walk
per window cycle.  This benchmark pins the headline claim: on the study
machines the IMS check path (``check`` + ``check_range`` units) costs at
least 2x fewer work units than the per-cycle discrete scan, with
*identical* schedules (same II per loop, same placements — the paper's
constraint-preservation bar applied to an optimization).
"""

import pytest

from repro.bench.runner import deterministic_work
from repro.obs.profile import profile_machine
from repro.obs.trace import Tracer

LOOPS = 4

#: Work-unit keys of the scheduler's contention-test path.  ``check``
#: covers the per-cycle fallback; ``check_range`` carries the batched
#: kernels' charges.
CHECK_PATH_KEYS = ("query.check.units", "query.check_range.units")


def _case(machine, representation):
    tracer = Tracer()
    counters = profile_machine(
        machine, loops=LOOPS, representation=representation, tracer=tracer
    )
    work = deterministic_work(tracer, counters)
    check_path = sum(work.get(key, 0) for key in CHECK_PATH_KEYS)
    quality = tuple(
        work.get("profile." + key, 0)
        for key in ("loops", "loops_at_mii", "ii_total", "mii_total")
    )
    return check_path, quality, work


@pytest.mark.parametrize(
    "machine_name", ("cydra5-subset", "alpha21064")
)
def test_compiled_check_path_at_least_2x_cheaper(machines, machine_name):
    machine = machines[machine_name]
    discrete_units, discrete_quality, _ = _case(machine, "discrete")
    compiled_units, compiled_quality, _ = _case(machine, "compiled")
    # Identical schedule quality first: same loops at MII, same II total.
    assert compiled_quality == discrete_quality
    assert compiled_units > 0
    assert discrete_units >= 2 * compiled_units, (
        "check-path units: discrete=%d compiled=%d (ratio %.2f < 2.0)"
        % (discrete_units, compiled_units, discrete_units / compiled_units)
    )


def test_compiled_beats_bitvector_on_subset(machines):
    """The collision bitsets should not lose to the word-scan fast path."""
    machine = machines["cydra5-subset"]
    bitvector_units, bitvector_quality, _ = _case(machine, "bitvector")
    compiled_units, compiled_quality, _ = _case(machine, "compiled")
    assert compiled_quality == bitvector_quality
    assert compiled_units <= bitvector_units


def test_work_reduction_summary(machines, record):
    rows = [
        "Compiled query kernels: IMS check-path work units (loop suite[%d])"
        % LOOPS,
        "",
        "  %-14s %10s %10s %10s %8s %8s"
        % ("machine", "discrete", "bitvector", "compiled", "ratio", "II"),
    ]
    data = {}
    for name in ("example", "cydra5-subset", "alpha21064"):
        machine = machines[name]
        per_rep = {}
        quality = None
        for representation in ("discrete", "bitvector", "compiled"):
            units, rep_quality, _ = _case(machine, representation)
            per_rep[representation] = units
            assert quality is None or rep_quality == quality
            quality = rep_quality
        ratio = per_rep["discrete"] / max(1, per_rep["compiled"])
        rows.append(
            "  %-14s %10d %10d %10d %7.2fx %8d"
            % (
                name,
                per_rep["discrete"],
                per_rep["bitvector"],
                per_rep["compiled"],
                ratio,
                quality[2],
            )
        )
        data[name] = {
            "check_path_units": per_rep,
            "discrete_over_compiled": round(ratio, 3),
            "quality": {
                "loops": quality[0],
                "loops_at_mii": quality[1],
                "ii_total": quality[2],
                "mii_total": quality[3],
            },
        }
    record(
        "compiled_kernels",
        "\n".join(rows),
        data=data,
        meta={"loops": LOOPS},
    )
