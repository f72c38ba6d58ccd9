"""The built-in machines, keyed by the names ``repro`` commands accept."""

from repro.machines.alpha import alpha21064
from repro.machines.clustered import clustered_vliw
from repro.machines.cydra5 import cydra5, cydra5_subset
from repro.machines.example import example_machine
from repro.machines.exposed import buffered_pu
from repro.machines.mips import mips_r3000
from repro.machines.playdoh import playdoh

#: The paper's three study machines, keyed by short name.
STUDY_MACHINES = {
    "cydra5": cydra5,
    "cydra5-subset": cydra5_subset,
    "alpha21064": alpha21064,
    "mips-r3000": mips_r3000,
}

#: Modern machine families grown out of the fuzzing corpus:
#: exposed-datapath and clustered-VLIW shapes beyond the paper's three
#: study machines.
CORPUS_MACHINES = {
    "buffered-pu": buffered_pu,
    "clustered-vliw": clustered_vliw,
}

#: Every machine a ``repro`` command accepts by name.
BUILTIN_MACHINES = dict(
    STUDY_MACHINES, example=example_machine, playdoh=playdoh,
    **CORPUS_MACHINES,
)
