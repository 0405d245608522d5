"""Adequate adder and L1-norm operators."""

import numpy as np
import pytest

from repro.netlist.validate import validate_netlist
from repro.operators import adequate_adder, l1_norm
from repro.sim.simulator import LogicSimulator, SimulationMode
from repro.sim.vectors import zero_lsbs
from repro.sta.caseanalysis import dvas_case
from repro.techlib.library import Library

LIBRARY = Library()


class TestAdequateAdder:
    @pytest.mark.parametrize("width", [4, 8])
    def test_exhaustive_or_random(self, width):
        netlist = adequate_adder(LIBRARY, width=width, registered=False)
        validate_netlist(netlist)
        sim = LogicSimulator(netlist, SimulationMode.TRANSPARENT)
        lo, hi = -(1 << (width - 1)), 1 << (width - 1)
        if width <= 4:
            a, b = np.meshgrid(np.arange(lo, hi), np.arange(lo, hi))
            a, b = a.ravel(), b.ravel()
        else:
            rng = np.random.default_rng(0)
            a = rng.integers(lo, hi, 2000)
            b = rng.integers(lo, hi, 2000)
        out = sim.run_combinational({"A": a, "B": b})["S"]
        assert np.array_equal(out, a + b)  # width+1 bits: never wraps

    def test_registered_latency(self):
        netlist = adequate_adder(LIBRARY, width=6)
        sim = LogicSimulator(netlist, SimulationMode.CYCLE)
        stim = [{"A": np.asarray([13]), "B": np.asarray([-5])}] * 3
        trace = sim.run_cycles(stim)
        assert trace.output("S", 2)[0] == 8

    def test_gating_deactivates_low_bits(self):
        netlist = adequate_adder(LIBRARY, width=8)
        case = dvas_case(netlist, [4])[0]
        s_bus = netlist.output_buses["S"]
        for net in s_bus.nets[:4]:
            assert case.values[net.index] == 0


class TestL1Norm:
    def _golden(self, a_words, b_words, width):
        total = np.zeros_like(a_words[0])
        for a, b in zip(a_words, b_words):
            total = total + np.abs(a - b)
        return total

    @pytest.mark.parametrize("elements,width", [(1, 5), (2, 6), (4, 6), (3, 5)])
    def test_against_golden(self, elements, width):
        netlist = l1_norm(
            LIBRARY, elements=elements, width=width, registered=False
        )
        validate_netlist(netlist)
        sim = LogicSimulator(netlist, SimulationMode.TRANSPARENT)
        rng = np.random.default_rng(elements * 10 + width)
        lo, hi = -(1 << (width - 1)) + 1, 1 << (width - 1)
        a_words = [rng.integers(lo, hi, 1500) for _ in range(elements)]
        b_words = [rng.integers(lo, hi, 1500) for _ in range(elements)]
        stim = {f"A{i}": a_words[i] for i in range(elements)}
        stim.update({f"B{i}": b_words[i] for i in range(elements)})
        out = sim.run_combinational(stim)["Y"]
        assert np.array_equal(out, self._golden(a_words, b_words, width))

    def test_int_min_wraps_like_hardware(self):
        """|INT_MIN| wraps in two's complement; the netlist must match the
        width-limited semantics, not python's unbounded abs."""
        width = 4
        netlist = l1_norm(LIBRARY, elements=1, width=width, registered=False)
        sim = LogicSimulator(netlist, SimulationMode.TRANSPARENT)
        out = sim.run_combinational(
            {"A0": np.asarray([-8]), "B0": np.asarray([0])}
        )["Y"]
        assert out[0] == 8  # -(-8) fits in the width+1-bit unsigned result

    def test_zero_elements_rejected(self):
        with pytest.raises(ValueError):
            l1_norm(LIBRARY, elements=0)

    def test_accuracy_scaling_error_bound(self):
        """LSB gating bounds the L1 error by n * 2^(dropped+1)."""
        elements, width, active = 4, 8, 4
        netlist = l1_norm(
            LIBRARY, elements=elements, width=width, registered=False
        )
        sim = LogicSimulator(netlist, SimulationMode.TRANSPARENT)
        rng = np.random.default_rng(3)
        lo, hi = -100, 100
        a_words = [rng.integers(lo, hi, 500) for _ in range(elements)]
        b_words = [rng.integers(lo, hi, 500) for _ in range(elements)]
        exact = self._golden(a_words, b_words, width)
        stim = {
            f"A{i}": zero_lsbs(a_words[i], width, active)
            for i in range(elements)
        }
        stim.update(
            {
                f"B{i}": zero_lsbs(b_words[i], width, active)
                for i in range(elements)
            }
        )
        approx = sim.run_combinational(stim)["Y"]
        bound = elements * (1 << (width - active))
        assert np.max(np.abs(approx - exact)) <= bound

    def test_flow_compatible(self):
        """The L1 norm runs through the full implementation flow."""
        from repro.core.flow import implement_base

        design = implement_base(
            lambda: l1_norm(LIBRARY, elements=2, width=6), LIBRARY
        )
        assert design.fclk_ghz > 0
