"""Textual machine description language (parser and writer)."""

from repro._exports import export_table

__getattr__, __dir__, __all__ = export_table(__name__, {
    "format": (
        "RawMachine", "RawOperation", "RawUsage", "dump_file", "dumps",
        "load_file", "loads", "parse", "parse_file",
    ),
})
