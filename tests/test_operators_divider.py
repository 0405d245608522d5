"""Non-restoring divider."""

import numpy as np
import pytest

from repro.netlist.validate import validate_netlist
from repro.operators import divider
from repro.sim.simulator import LogicSimulator, SimulationMode
from repro.techlib.library import Library

LIBRARY = Library()


class TestDivider:
    @pytest.mark.parametrize("width", [3, 5, 6])
    def test_exhaustive(self, width):
        netlist = divider(LIBRARY, width=width, registered=False)
        validate_netlist(netlist)
        sim = LogicSimulator(netlist, SimulationMode.TRANSPARENT)
        n, d = np.meshgrid(np.arange(1 << width), np.arange(1, 1 << width))
        n, d = n.ravel(), d.ravel()
        out = sim.run_combinational({"N": n, "D": d}, signed=False)
        assert np.array_equal(out["Q"], n // d)
        assert np.array_equal(out["R"], n % d)

    def test_random_wide(self):
        width = 12
        netlist = divider(LIBRARY, width=width, registered=False)
        sim = LogicSimulator(netlist, SimulationMode.TRANSPARENT)
        rng = np.random.default_rng(1)
        n = rng.integers(0, 1 << width, 3000)
        d = rng.integers(1, 1 << width, 3000)
        out = sim.run_combinational({"N": n, "D": d}, signed=False)
        assert np.array_equal(out["Q"], n // d)
        assert np.array_equal(out["R"], n % d)

    def test_division_by_zero_saturates(self):
        netlist = divider(LIBRARY, width=5, registered=False)
        sim = LogicSimulator(netlist, SimulationMode.TRANSPARENT)
        out = sim.run_combinational(
            {"N": np.asarray([13, 0]), "D": np.asarray([0, 0])}, signed=False
        )
        assert np.all(out["Q"] == 31)  # hardware-style all-ones

    def test_registered_latency(self):
        netlist = divider(LIBRARY, width=6)
        sim = LogicSimulator(netlist, SimulationMode.CYCLE)
        stim = [{"N": np.asarray([47]), "D": np.asarray([5])}] * 3
        trace = sim.run_cycles(stim)
        assert trace.output("Q", 2)[0] == 9
        assert trace.output("R", 2)[0] == 2

    def test_width_validation(self):
        with pytest.raises(ValueError):
            divider(LIBRARY, width=1)

    def test_quotient_depth_deactivates_late_under_gating(self):
        """Gating dividend LSBs makes the *last* quotient bits constant
        only when the divisor is gated too -- the stress case described in
        the module docstring.  Just assert the case analysis terminates
        and classifies sanely."""
        from repro.sta.caseanalysis import dvas_case

        netlist = divider(LIBRARY, width=8)
        case = dvas_case(netlist, [4])[0]
        assert 0.0 < case.constant_fraction() < 1.0

    def test_flow_compatible(self):
        from repro.core.flow import implement_base

        counter = {"n": 0}

        def factory():
            counter["n"] += 1
            return divider(LIBRARY, width=8, name=f"div_{counter['n']}")

        design = implement_base(factory, LIBRARY)
        assert design.fclk_ghz > 0
