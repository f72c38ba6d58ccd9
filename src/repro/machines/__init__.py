"""Machine descriptions: the paper's example, its three study machines,
and small toy machines used by tests and documentation."""

from repro._exports import export_table

__getattr__, __dir__, __all__ = export_table(__name__, {
    "alpha": ("alpha21064",),
    "builtin": ("CORPUS_MACHINES", "STUDY_MACHINES"),
    "clustered": ("clustered_vliw",),
    "cydra5": ("SUBSET_OPERATIONS", "cydra5", "cydra5_subset"),
    "example": ("example_machine",),
    "exposed": ("buffered_pu",),
    "mips": ("mips_r3000",),
    "playdoh": ("PLAYDOH_LATENCIES", "PLAYDOH_MIX", "playdoh"),
    "toys": (
        "alternatives_machine", "dense_conflict_machine", "empty_op_machine",
        "independent_ops_machine", "issue_limited_machine",
        "single_op_machine",
    ),
})
