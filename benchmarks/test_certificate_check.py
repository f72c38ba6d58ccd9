"""Certificate checking vs full equivalence re-verification.

The reduction cache's warm-hit claim: validating a stored preservation
certificate (soundness + coverage of the Theorem-1 witness pairs, no
matrix construction) costs a fraction of the work of
``assert_equivalent``, which re-derives both forbidden-latency matrices.
This benchmark pins that ratio per study machine and records the
numbers behind it in ``BENCH_certificates.json``.
"""

from repro.core import reduce_machine
from repro.core.certificate import (
    check_certificate,
    equivalence_work_units,
    issue_certificate,
)


def _case(machine):
    reduction = reduce_machine(machine)
    certificate = issue_certificate(reduction)
    check = check_certificate(
        certificate, machine, reduction.reduced, recompute_matrix=False
    )
    equivalence = equivalence_work_units(machine, reduction.reduced)
    return {
        "certificate_units": check.units,
        "equivalence_units": equivalence,
        "speedup": round(equivalence / max(1, check.units), 2),
        "instances": check.instances,
        "classes": check.classes,
    }


def test_certificate_check_is_cheaper_on_every_study_machine(
    machines, record
):
    rows = {name: _case(machine) for name, machine in machines.items()}
    for name, row in rows.items():
        assert row["certificate_units"] < row["equivalence_units"], name

    width = max(len(name) for name in rows)
    lines = [
        "Warm-hit verification cost (work units)",
        "",
        "%-*s %12s %12s %8s %10s %8s"
        % (
            width, "machine", "certificate", "equivalence", "speedup",
            "instances", "classes",
        ),
    ]
    for name in sorted(rows):
        row = rows[name]
        lines.append(
            "%-*s %12d %12d %7.1fx %10d %8d"
            % (
                width, name, row["certificate_units"],
                row["equivalence_units"], row["speedup"],
                row["instances"], row["classes"],
            )
        )
    record(
        "certificates",
        "\n".join(lines),
        data=rows,
        meta={"mode": "structural", "source": "test_certificate_check.py"},
    )
