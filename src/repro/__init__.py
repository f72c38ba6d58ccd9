"""repro — reduced multipipeline machine descriptions.

A production-quality reproduction of Eichenberger & Davidson, *A Reduced
Multipipeline Machine Description that Preserves Scheduling Constraints*
(PLDI 1996): exact, automated reduction of reservation-table machine
descriptions, contention query modules (discrete / bitvector / modulo),
finite-state-automata baselines, and an Iterative Modulo Scheduler that
evaluates them.

Quickstart
----------
>>> from repro import example_machine, reduce_machine
>>> reduction = reduce_machine(example_machine())
>>> reduction.reduced.num_resources
2
"""

from repro._exports import export_table

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = export_table(__name__, {
    "core.forbidden": ("ForbiddenLatencyMatrix",),
    "core.machine": ("MachineBuilder", "MachineDescription"),
    "core.reduce": ("Reduction", "reduce_machine"),
    "core.reservation": ("ReservationTable",),
    "core.selection": ("RES_USES", "WORD_USES"),
    "core.verify": ("assert_equivalent", "matrices_equal"),
    "machines.example": ("example_machine",),
})
__all__.append("__version__")
