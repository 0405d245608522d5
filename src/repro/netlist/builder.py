"""Ergonomic construction API used by the operator generators.

The builder wraps a :class:`~repro.netlist.netlist.Netlist` and offers
word-level helpers (buses, gate instantiation with automatic naming,
registered words, constants) so the arithmetic generators read like
structural RTL.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.netlist.net import Net
from repro.netlist.netlist import Netlist, PortBus
from repro.techlib.library import Library


class NetlistBuilder:
    """Builds a netlist gate by gate with automatic unique naming."""

    def __init__(self, name: str, library: Library, default_drive: str = "X1"):
        self.netlist = Netlist(name, library)
        self.library = library
        self.default_drive = default_drive
        self._name_counters: Dict[str, int] = {}
        self._const_nets: Dict[bool, Net] = {}

    # -- naming ------------------------------------------------------------

    def unique_name(self, prefix: str) -> str:
        """Return a fresh name ``prefix_<n>`` (used for auto-named gates/nets)."""
        count = self._name_counters.get(prefix, 0)
        self._name_counters[prefix] = count + 1
        return f"{prefix}_{count}"

    # Backwards-compatible internal alias.
    _unique = unique_name

    # -- ports --------------------------------------------------------------

    def input_bus(self, name: str, width: int) -> List[Net]:
        """Declare a *width*-bit primary input bus; returns nets LSB first."""
        nets = [self.netlist.add_net(f"{name}[{i}]") for i in range(width)]
        self.netlist.mark_input_bus(name, nets)
        return nets

    def output_bus(
        self, name: str, nets: Sequence[Net], signed: bool = True
    ) -> PortBus:
        """Declare *nets* (LSB first) as a primary output bus."""
        return self.netlist.mark_output_bus(name, list(nets), signed=signed)

    def clock(self, name: str = "clk") -> Net:
        """Declare the clock input net (at most one per netlist)."""
        net = self.netlist.add_net(name)
        self.netlist.set_clock(net)
        return net

    # -- gates ---------------------------------------------------------------

    def gate(self, template_name: str, *inputs: Net, drive: str = None) -> Net:
        """Instantiate a single-output gate; returns its output net."""
        outputs = self.gate_multi(template_name, *inputs, drive=drive)
        if len(outputs) != 1:
            raise ValueError(
                f"{template_name} has {len(outputs)} outputs; use gate_multi()"
            )
        return outputs[0]

    def gate_multi(
        self, template_name: str, *inputs: Net, drive: str = None
    ) -> Tuple[Net, ...]:
        """Instantiate any gate; returns its output nets in template order."""
        template = self.library.template(template_name)
        inst_name = self._unique(template_name.lower())
        out_nets = [
            self.netlist.add_net(f"{inst_name}_{pin.lower()}")
            for pin in template.outputs
        ]
        self.netlist.add_cell(
            inst_name,
            template,
            list(inputs),
            out_nets,
            drive_name=drive or self.default_drive,
        )
        return tuple(out_nets)

    # -- common gate shorthands ----------------------------------------------

    def inv(self, a: Net) -> Net:
        return self.gate("INV", a)

    def buf(self, a: Net) -> Net:
        return self.gate("BUF", a)

    def and2(self, a: Net, b: Net) -> Net:
        return self.gate("AND2", a, b)

    def or2(self, a: Net, b: Net) -> Net:
        return self.gate("OR2", a, b)

    def xor2(self, a: Net, b: Net) -> Net:
        return self.gate("XOR2", a, b)

    def mux2(self, a: Net, b: Net, select: Net) -> Net:
        """2:1 multiplexer: output = a when select=0, b when select=1."""
        return self.gate("MUX2", a, b, select)

    def full_adder(self, a: Net, b: Net, cin: Net) -> Tuple[Net, Net]:
        """Returns (sum, carry_out)."""
        return self.gate_multi("FA", a, b, cin)

    def half_adder(self, a: Net, b: Net) -> Tuple[Net, Net]:
        """Returns (sum, carry_out)."""
        return self.gate_multi("HA", a, b)

    # -- constants -------------------------------------------------------------

    def const(self, value: bool) -> Net:
        """A constant-0 or constant-1 net (one shared tie cell per value)."""
        value = bool(value)
        if value not in self._const_nets:
            template = "TIEHI" if value else "TIELO"
            self._const_nets[value] = self.gate(template)
        return self._const_nets[value]

    # -- sequential -------------------------------------------------------------

    def dff(self, d: Net, name: Optional[str] = None) -> Net:
        """A D flip-flop on the builder's clock; returns the Q net."""
        if self.netlist.clock_net is None:
            raise ValueError("declare the clock with clock() before adding DFFs")
        template = self.library.template("DFF")
        inst_name = name or self._unique("dff")
        q_net = self.netlist.add_net(f"{inst_name}_q")
        self.netlist.add_cell(
            inst_name, template, [d, self.netlist.clock_net], [q_net],
            drive_name=self.default_drive,
        )
        return q_net

    def register_word(self, word: Sequence[Net], prefix: str = "reg") -> List[Net]:
        """Register every bit of *word*; returns the Q nets, LSB first."""
        return [self.dff(bit, name=self._unique(prefix)) for bit in word]

    # -- finish ----------------------------------------------------------------

    def build(self) -> Netlist:
        """Return the completed netlist."""
        return self.netlist
