"""Workloads: the synthetic 1327-loop benchmark and named kernels."""

from repro._exports import export_table

__getattr__, __dir__, __all__ = export_table(__name__, {
    "blockgen": ("DEFAULT_MIX", "block_suite", "generate_block"),
    "kernels": ("KERNELS", "all_kernels"),
    "translate": (
        "CYDRA_TO_ALPHA", "CYDRA_TO_MIPS", "CYDRA_TO_PLAYDOH", "PORTS",
        "port_graph", "translate_graph",
    ),
    "loopgen": (
        "MAX_OPS", "MIN_OPS", "RESULT_LATENCY", "generate_loop",
        "graph_signature", "loop_suite",
    ),
})
