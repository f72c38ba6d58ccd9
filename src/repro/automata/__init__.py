"""Finite-state-automata baselines (related work, paper Section 2).

* :class:`PipelineAutomaton` — monolithic contention-recognizing automaton
  (Proebsting & Fraser); exact, one lookup per event, but state counts
  grow quickly with pipeline depth.
* :class:`FactoredAutomata` — per-resource-group factoring (Müller): far
  smaller, at one lookup per factor per event.
* :class:`AutomatonQueryModule` — a Bala & Rubin style query module with
  per-cycle state arrays, supporting unrestricted placement by
  re-propagating states through later cycles (charged as work).
"""

from repro._exports import export_table

__getattr__, __dir__, __all__ = export_table(__name__, {
    "core": ("ADVANCE", "AutomatonTooLarge", "PipelineAutomaton"),
    "factored": (
        "PER_RESOURCE", "UNIT", "FactoredAutomata", "factor_resources",
    ),
    "minimize": ("is_minimal", "minimize"),
    "pair": ("PairedAutomatonQueryModule",),
    "query": ("AutomatonQueryModule",),
})
