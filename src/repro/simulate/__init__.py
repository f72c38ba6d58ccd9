"""Cycle-accurate issue simulation of schedules against a machine."""

from repro._exports import export_table

__getattr__, __dir__, __all__ = export_table(__name__, {
    "pipeline": ("ConflictEvent", "SimulationReport", "simulate"),
})
