"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures.  Besides
the pytest-benchmark timing rows, each harness writes its reproduced
table to ``benchmarks/results/<name>.txt`` (and echoes it to stdout when
pytest runs with ``-s``), so ``EXPERIMENTS.md`` can be checked against
fresh output at any time.
"""

from __future__ import annotations

import json
import os
from typing import Optional

import pytest

from repro.core import ForbiddenLatencyMatrix, reduce_machine
from repro.machines import (
    alpha21064,
    cydra5,
    cydra5_subset,
    example_machine,
    mips_r3000,
)

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Loops in the scheduling benchmarks; the paper used 1327.
BENCH_LOOPS = int(os.environ.get("REPRO_BENCH_LOOPS", "1327"))

#: Pinned reproduced numbers, one entry per benchmark.
EXPECTED_PATH = os.path.join(os.path.dirname(__file__), "paper_expected.json")


@pytest.fixture(scope="session")
def paper_pins():
    """``check(name, values, loops=None)``: assert a benchmark's numbers
    against its ``paper_expected.json`` pins.

    ``values`` maps each pinned key to the reproduced number.  A
    scheduling benchmark's pins hold only at its recorded loop count;
    when ``REPRO_BENCH_LOOPS`` changes it, the check skips the test
    after its own assertions ran.  Reduction tables record no count.
    """
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        expected = json.load(handle)["benchmarks"]

    def check(name: str, values, loops: Optional[int] = None) -> None:
        entry = expected[name]
        if loops != entry.get("loops"):
            pytest.skip(
                "%s pins hold at %d loops, not %d"
                % (name, entry["loops"], loops)
            )
        misses = {
            key: (values[key], value, tolerance)
            for key, (value, tolerance) in entry["pins"].items()
            if abs(values[key] - value) > tolerance
        }
        assert not misses, "%s moved off its pins: %s" % (name, misses)

    return check


@pytest.fixture(scope="session")
def record():
    """Write one reproduced table to the results directory and stdout.

    When ``data`` is given, a machine-readable ``BENCH_<name>.json``
    companion (see ``_tables.write_bench_json``) is written next to the
    text table.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)

    def _record(name: str, text: str, data=None, meta=None) -> str:
        path = os.path.join(RESULTS_DIR, name + ".txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
        if data is not None:
            from _tables import write_bench_json

            write_bench_json(name, data, RESULTS_DIR, meta=meta)
        print("\n" + "=" * 72)
        print("[%s]" % name)
        print(text)
        return path

    return _record


@pytest.fixture(scope="session")
def machines():
    return {
        "example": example_machine(),
        "cydra5": cydra5(),
        "cydra5-subset": cydra5_subset(),
        "alpha21064": alpha21064(),
        "mips-r3000": mips_r3000(),
    }


@pytest.fixture(scope="session")
def matrices(machines):
    return {
        name: ForbiddenLatencyMatrix.from_machine(md)
        for name, md in machines.items()
    }


def _reduce_all(machine, word_cycle_list):
    """The paper's five columns: original, res-uses, and k-cycle words."""
    reductions = {"res-uses": reduce_machine(machine)}
    for k in word_cycle_list:
        reductions["%d-cycle-word" % k] = reduce_machine(
            machine, objective="word-uses", word_cycles=k
        )
    return reductions


@pytest.fixture(scope="session")
def cydra5_reductions(machines):
    return _reduce_all(machines["cydra5"], (1, 2, 4))


@pytest.fixture(scope="session")
def subset_reductions(machines):
    return _reduce_all(machines["cydra5-subset"], (1, 3, 7))


@pytest.fixture(scope="session")
def alpha_reductions(machines):
    return _reduce_all(machines["alpha21064"], (1, 4, 9))


@pytest.fixture(scope="session")
def mips_reductions(machines):
    return _reduce_all(machines["mips-r3000"], (1, 4, 9))
