"""Gate-level netlist intermediate representation.

The IR is deliberately simple: a :class:`~repro.netlist.netlist.Netlist` owns
:class:`~repro.netlist.cell.CellInst` and :class:`~repro.netlist.net.Net`
objects; buses group port nets; a builder provides the ergonomic construction
API the operator generators use.  Analysis engines (simulation, STA, power)
compile the IR into flat numpy-friendly arrays rather than traversing it.
"""

from repro.netlist.net import Net, PinRef
from repro.netlist.cell import CellInst
from repro.netlist.netlist import Netlist, PortBus
from repro.netlist.builder import NetlistBuilder
from repro.netlist.validate import validate_netlist, NetlistError
from repro.netlist.verilog import write_verilog, read_verilog
from repro.netlist.transform import buffer_high_fanout

__all__ = [
    "Net",
    "PinRef",
    "CellInst",
    "Netlist",
    "PortBus",
    "NetlistBuilder",
    "validate_netlist",
    "NetlistError",
    "write_verilog",
    "read_verilog",
    "buffer_high_fanout",
]
