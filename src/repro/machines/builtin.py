"""The built-in machines, keyed by the names ``repro`` commands accept.

Each factory imports its machine's module on first call, so a command
that names one built-in machine loads no other.
"""

from importlib import import_module
from typing import Callable

from repro.core.machine import MachineDescription


def _factory(module: str, function: str) -> Callable[[], MachineDescription]:
    """``repro.machines.<module>.<function>``, imported on first call."""

    def build() -> MachineDescription:
        return getattr(import_module("repro.machines." + module), function)()

    build.__name__ = build.__qualname__ = function
    return build


#: The paper's three study machines, keyed by short name.
STUDY_MACHINES = {
    "cydra5": _factory("cydra5", "cydra5"),
    "cydra5-subset": _factory("cydra5", "cydra5_subset"),
    "alpha21064": _factory("alpha", "alpha21064"),
    "mips-r3000": _factory("mips", "mips_r3000"),
}

#: Modern machine families grown out of the fuzzing corpus:
#: exposed-datapath and clustered-VLIW shapes beyond the paper's three
#: study machines.
CORPUS_MACHINES = {
    "buffered-pu": _factory("exposed", "buffered_pu"),
    "clustered-vliw": _factory("clustered", "clustered_vliw"),
}

#: Every machine a ``repro`` command accepts by name.
BUILTIN_MACHINES = dict(
    STUDY_MACHINES,
    example=_factory("example", "example_machine"),
    playdoh=_factory("playdoh", "playdoh"),
    **CORPUS_MACHINES,
)
