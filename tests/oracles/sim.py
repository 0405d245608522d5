"""The interpreted simulator as a test oracle.

:class:`~repro.sim.simulator.LogicSimulator` falls back to its
interpreted loop when :class:`~repro.sim.packed.PackedEngine` raises
:class:`~repro.sim.packed.PackedCompileError`.  Making the compile fail
at that one seam yields the reference engine the packed kernel is
differential-tested against.
"""

import contextlib

import pytest

from repro.sim.packed import PackedCompileError
from repro.sim.simulator import LogicSimulator, SimulationMode


def _refuse(*args, **kwargs):
    raise PackedCompileError("packed engine disabled by the oracle")


@contextlib.contextmanager
def interpreted_engine():
    """Scope in which every new simulator runs the interpreted loop."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.sim.simulator.PackedEngine", _refuse)
        yield


def interpreted_simulator(
    netlist, mode: SimulationMode = SimulationMode.CYCLE
) -> LogicSimulator:
    """A simulator of *netlist* pinned to the interpreted reference loop."""
    with interpreted_engine():
        simulator = LogicSimulator(netlist, mode)
    assert simulator.engine == "interpreted"
    return simulator
