"""Gate-level logic simulation, stimulus, activity and error metrics.

The simulator is two-valued and levelized, vectorized with numpy across a
batch of stimuli.  It serves three purposes in the flow:

1. functional verification of the operator generators against golden models,
2. switching-activity extraction (the "VCD annotation" of the paper's power
   analysis step),
3. application-level accuracy measurement under LSB gating.
"""

from repro.sim.simulator import LogicSimulator, SimulationMode
from repro.sim.packed import PackedCompileError, PackedEngine
from repro.sim.vectors import (
    int_to_bits,
    bits_to_int,
    random_words,
    zero_lsbs,
)
from repro.sim.activity import (
    measure_activity,
    clear_activity_cache,
    ActivityReport,
)
from repro.sim.errors import error_metrics, ErrorReport
from repro.sim import golden

__all__ = [
    "LogicSimulator",
    "SimulationMode",
    "PackedCompileError",
    "PackedEngine",
    "int_to_bits",
    "bits_to_int",
    "random_words",
    "zero_lsbs",
    "measure_activity",
    "clear_activity_cache",
    "ActivityReport",
    "error_metrics",
    "ErrorReport",
    "golden",
]
