"""Machine-description metrics (the numbers of Tables 1-4).

Three metrics per description, following paper Section 6:

* total number of resources;
* average resource usages per operation class;
* average *word usages* per operation for a bitvector representation with
  ``k`` cycle-vectors per word: the number of non-empty groups of k
  consecutive cycles in each reservation table, averaged over every
  operation class and every possible alignment between the reserved and
  reservation bitvectors.

The paper packs as many cycle-vectors per machine word as fit, so
``k = word_bits // num_resources``; e.g. the 15-resource reduced Cydra 5
packs 2 cycles per 32-bit word and 4 per 64-bit word.
"""

from repro._exports import export_table

__getattr__, __dir__, __all__ = export_table(__name__, {
    "metrics": (
        "MachineStats", "average_usages_per_op", "average_word_usages",
        "cycles_per_word", "describe", "operation_frequencies",
        "reserved_bits_per_cycle", "word_usage_count",
    ),
    "tables": ("render_reduction_table",),
})
