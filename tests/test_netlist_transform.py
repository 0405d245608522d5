"""High-fanout buffering and resizing: compliance and functional equivalence."""

import numpy as np
import pytest

from repro.netlist.builder import NetlistBuilder
from repro.netlist.transform import buffer_high_fanout, reconnect_input
from repro.netlist.validate import validate_netlist
from repro.operators import booth_multiplier
from repro.sim.simulator import LogicSimulator, SimulationMode
from repro.sim import golden
from repro.techlib.library import Library


@pytest.fixture(scope="module")
def library():
    return Library()


def _max_signal_fanout(netlist):
    worst = 0
    for net in netlist.nets:
        if net.is_clock:
            continue
        if net.driver is not None and net.driver.cell.template.name in (
            "TIELO", "TIEHI",
        ):
            continue
        worst = max(worst, net.fanout)
    return worst


def test_buffering_enforces_fanout_limit(library):
    netlist = booth_multiplier(library, width=16)
    assert _max_signal_fanout(netlist) > 8
    inserted = buffer_high_fanout(netlist, max_fanout=8)
    assert inserted > 0
    assert _max_signal_fanout(netlist) <= 8
    validate_netlist(netlist)


def test_buffering_preserves_function(library):
    netlist = booth_multiplier(library, width=8, registered=False)
    buffer_high_fanout(netlist, max_fanout=6)
    rng = np.random.default_rng(11)
    a = rng.integers(-128, 128, 1000)
    b = rng.integers(-128, 128, 1000)
    sim = LogicSimulator(netlist, SimulationMode.TRANSPARENT)
    out = sim.run_combinational({"A": a, "B": b})["P"]
    assert np.array_equal(out, golden.multiply_reference(a, b, 8))


def test_resizing_preserves_function(library):
    netlist = booth_multiplier(library, width=6, registered=False)
    for cell in netlist.cells[::3]:
        cell.set_drive("X4")
    a, b = np.meshgrid(np.arange(-32, 32), np.arange(-32, 32))
    a, b = a.ravel(), b.ravel()
    sim = LogicSimulator(netlist, SimulationMode.TRANSPARENT)
    out = sim.run_combinational({"A": a, "B": b})["P"]
    assert np.array_equal(out, golden.multiply_reference(a, b, 6))


def test_buffering_is_idempotent(library):
    netlist = booth_multiplier(library, width=8)
    buffer_high_fanout(netlist, max_fanout=8)
    assert buffer_high_fanout(netlist, max_fanout=8) == 0


def test_compliant_netlist_untouched(library):
    builder = NetlistBuilder("t", library)
    a = builder.input_bus("A", 1)[0]
    builder.output_bus("Y", [builder.inv(a)])
    assert buffer_high_fanout(builder.netlist, max_fanout=8) == 0


def test_reconnect_input_moves_pin(library):
    builder = NetlistBuilder("t", library)
    a = builder.input_bus("A", 2)
    y = builder.inv(a[0])
    builder.output_bus("Y", [y])
    cell = builder.netlist.cells[0]
    pin = a[0].sinks[0]
    reconnect_input(builder.netlist, pin, a[1])
    assert cell.input_nets[0] is a[1]
    assert a[0].fanout == 0
    assert a[1].fanout == 1


def test_reconnect_rejects_output_pins(library):
    builder = NetlistBuilder("t", library)
    a = builder.input_bus("A", 1)[0]
    y = builder.inv(a)
    with pytest.raises(ValueError, match="input pins"):
        reconnect_input(builder.netlist, y.driver, a)
