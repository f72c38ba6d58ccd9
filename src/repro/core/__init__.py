"""Core reduction machinery: reservation tables to reduced machines.

The public surface of this subpackage mirrors the paper's three steps:

1. :class:`ForbiddenLatencyMatrix` — Step 1, forbidden latency extraction;
2. :func:`build_generating_set` — Step 2, Algorithm 1 (maximal resources);
3. :func:`select_resources` / :func:`reduce_machine` — Step 3, selection.

Preservation certificates are imported from :mod:`repro.core.certificate`
itself, so no name of this package loads the MDL serializer,
``hashlib`` or ``json``.
"""

from repro._exports import export_table

__getattr__, __dir__, __all__ = export_table(__name__, {
    "exact_cover": ("SearchExhausted", "exact_minimum_cover"),
    "elementary": (
        "Resource", "Usage", "elementary_pair", "elementary_pairs",
        "generated_instances", "is_maximal", "normalize_resource",
        "resource_is_valid", "usages_compatible",
    ),
    "forbidden": (
        "ForbiddenLatencyMatrix", "canonical_instance", "collapse_to_classes",
    ),
    "generating": ("TraceStep", "build_generating_set"),
    "machine": ("MachineBuilder", "MachineDescription"),
    "pruning": ("prune_covered_resources",),
    "reduce": (
        "Reduction", "machine_from_selection", "reduce_for_word_size",
        "reduce_machine",
    ),
    "reservation": ("ReservationTable",),
    "selection": (
        "RES_USES", "WORD_USES", "SelectionResult", "select_resources",
    ),
    "witness": ("Witness", "find_witness"),
    "verify": (
        "assert_equivalent", "differences", "matrices_equal",
        "schedule_is_contention_free",
    ),
})
