"""Core reduction machinery: reservation tables to reduced machines.

The public surface of this subpackage mirrors the paper's three steps:

1. :class:`ForbiddenLatencyMatrix` — Step 1, forbidden latency extraction;
2. :func:`build_generating_set` — Step 2, Algorithm 1 (maximal resources);
3. :func:`select_resources` / :func:`reduce_machine` — Step 3, selection.

Preservation certificates are imported from :mod:`repro.core.certificate`
itself, so ``import repro.core`` does not load the MDL serializer,
``hashlib`` or ``json``.
"""

from repro.core.exact_cover import SearchExhausted, exact_minimum_cover
from repro.core.elementary import (
    Resource,
    Usage,
    elementary_pair,
    elementary_pairs,
    generated_instances,
    is_maximal,
    normalize_resource,
    resource_is_valid,
    usages_compatible,
)
from repro.core.forbidden import (
    ForbiddenLatencyMatrix,
    canonical_instance,
    collapse_to_classes,
)
from repro.core.generating import TraceStep, build_generating_set
from repro.core.machine import MachineBuilder, MachineDescription
from repro.core.pruning import prune_covered_resources
from repro.core.reduce import (
    RES_USES,
    WORD_USES,
    Reduction,
    machine_from_selection,
    reduce_for_word_size,
    reduce_machine,
)
from repro.core.reservation import ReservationTable
from repro.core.selection import SelectionResult, select_resources
from repro.core.witness import Witness, find_witness
from repro.core.verify import (
    assert_equivalent,
    differences,
    matrices_equal,
    schedule_is_contention_free,
)

__all__ = [
    "ForbiddenLatencyMatrix",
    "MachineBuilder",
    "MachineDescription",
    "RES_USES",
    "Reduction",
    "ReservationTable",
    "Resource",
    "SearchExhausted",
    "SelectionResult",
    "TraceStep",
    "Usage",
    "Witness",
    "WORD_USES",
    "assert_equivalent",
    "build_generating_set",
    "canonical_instance",
    "collapse_to_classes",
    "differences",
    "exact_minimum_cover",
    "elementary_pair",
    "find_witness",
    "elementary_pairs",
    "generated_instances",
    "is_maximal",
    "machine_from_selection",
    "matrices_equal",
    "normalize_resource",
    "prune_covered_resources",
    "reduce_for_word_size",
    "reduce_machine",
    "resource_is_valid",
    "schedule_is_contention_free",
    "select_resources",
    "usages_compatible",
]
