"""Shared benchmark-output helpers.

The table renderer lives in the library proper; this module adds the
machine-readable companion format: every benchmark that records a
``results/<name>.txt`` table can also emit ``results/BENCH_<name>.json``
with the numbers behind the table, so perf trajectories can be tracked
by tooling instead of by diffing formatted text.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional, Sequence

from repro.core.elementary import elementary_pairs
from repro.stats.metrics import average_usages_per_op, average_word_usages
from repro.stats.tables import render_reduction_table

#: Schema of the ``BENCH_*.json`` documents.  Bump on breaking changes
#: and record the migration in docs/observability.md.
BENCH_SCHEMA_NAME = "repro-bench"
BENCH_SCHEMA_VERSION = 1


def bench_document(
    name: str, data: object, meta: Optional[Dict[str, object]] = None
) -> Dict[str, object]:
    """Envelope for one benchmark's machine-readable results."""
    return {
        "schema": BENCH_SCHEMA_NAME,
        "version": BENCH_SCHEMA_VERSION,
        "name": name,
        "meta": dict(meta or {}),
        "data": data,
    }


def write_bench_json(
    name: str,
    data: object,
    results_dir: str,
    meta: Optional[Dict[str, object]] = None,
) -> str:
    """Write ``BENCH_<name>.json`` next to the text table; returns path."""
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, "BENCH_%s.json" % name)
    document = bench_document(name, data, meta)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def reduction_table_data(
    machine, reductions, word_cycles: Sequence[int]
) -> Dict[str, Dict[str, float]]:
    """The numbers behind a Tables 1-4 render, keyed by column.

    Mirrors :func:`repro.stats.tables.render_reduction_table`: one entry
    per column (original, res-uses, k-cycle words), each with the
    resource count and the average (word) usages per operation — the
    paper's headline reduction metrics, machine-readable so the
    ``BENCH_*.json`` trajectory can track them per commit.
    """
    columns = [("original", machine, 1)]
    columns.append(("res-uses", reductions["res-uses"].reduced, 1))
    for k in word_cycles:
        key = "%d-cycle-word" % k
        columns.append((key, reductions[key].reduced, k))
    return {
        name: {
            "resources": md.num_resources,
            "avg_usages_per_op": average_usages_per_op(md),
            "avg_word_usages_per_op": average_word_usages(md, k),
        }
        for name, md, k in columns
    }


def pin_values(data: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """``{"<row>.<column>": number}`` from a table's nested numbers, the
    keys its ``paper_expected.json`` pins use."""
    return {
        "%s.%s" % (row, column): number
        for row, entries in data.items()
        for column, number in entries.items()
    }


def reduction_facts(reduction) -> Dict[str, int]:
    """Steps 1-2 facts of a machine's res-uses ``Reduction``, keyed as
    its ``paper_expected.json`` pins: operations, operation classes,
    canonical forbidden latencies and the largest one (Step 1), then
    elementary pairs and the sizes of the generating set and of its
    pruned pool (Step 2).  Tables 1-4 pin them without printing them."""
    matrix = reduction.matrix
    return {
        "step1.operations": len(matrix.operations),
        "step1.classes": len(matrix.operation_classes()),
        "step1.latencies": matrix.instance_count,
        "step1.max_latency": matrix.max_latency,
        "step2.pairs": len(elementary_pairs(matrix)),
        "step2.generating_set": len(reduction.generating_set),
        "step2.pruned_set": len(reduction.pruned_set),
    }


__all__ = [
    "BENCH_SCHEMA_NAME",
    "BENCH_SCHEMA_VERSION",
    "bench_document",
    "pin_values",
    "reduction_facts",
    "reduction_table_data",
    "render_reduction_table",
    "write_bench_json",
]
