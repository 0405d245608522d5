"""All adder generators: exhaustive small widths, random larger, hypothesis."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.netlist.builder import NetlistBuilder
from repro.operators.adders import (
    carry_select_adder,
    kogge_stone_adder,
    ripple_carry_adder,
    sign_extend,
    subtractor,
)
from repro.sim.simulator import LogicSimulator, SimulationMode
from repro.techlib.library import Library

LIBRARY = Library()
ADDERS = {
    "ripple": ripple_carry_adder,
    "kogge_stone": kogge_stone_adder,
    "carry_select": carry_select_adder,
}


def _build_adder(adder, width, with_cin=False):
    builder = NetlistBuilder(f"add{width}", LIBRARY)
    a = builder.input_bus("A", width)
    b = builder.input_bus("B", width)
    cin = builder.input_bus("CIN", 1)[0] if with_cin else None
    sums, cout = adder(builder, a, b, cin=cin)
    builder.output_bus("S", sums, signed=False)
    builder.output_bus("CO", [cout], signed=False)
    return LogicSimulator(builder.build(), SimulationMode.TRANSPARENT)


@pytest.mark.parametrize("name", sorted(ADDERS))
@pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
def test_exhaustive_small_widths(name, width):
    sim = _build_adder(ADDERS[name], width)
    values = np.arange(1 << width)
    a, b = np.meshgrid(values, values)
    a, b = a.ravel(), b.ravel()
    out = sim.run_combinational({"A": a, "B": b})
    total = a + b
    assert np.array_equal(out["S"], total % (1 << width)), name
    assert np.array_equal(out["CO"], total >> width), name


@pytest.mark.parametrize("name", sorted(ADDERS))
def test_exhaustive_with_carry_in(name):
    width = 3
    sim = _build_adder(ADDERS[name], width, with_cin=True)
    rows = list(itertools.product(range(8), range(8), range(2)))
    a = np.asarray([r[0] for r in rows])
    b = np.asarray([r[1] for r in rows])
    cin = np.asarray([r[2] for r in rows])
    out = sim.run_combinational({"A": a, "B": b, "CIN": cin})
    total = a + b + cin
    assert np.array_equal(out["S"], total % 8)
    assert np.array_equal(out["CO"], total >> width)


@pytest.mark.parametrize("name", sorted(ADDERS))
def test_random_wide(name):
    width = 24
    sim = _build_adder(ADDERS[name], width)
    rng = np.random.default_rng(7)
    a = rng.integers(0, 1 << width, 500)
    b = rng.integers(0, 1 << width, 500)
    out = sim.run_combinational({"A": a, "B": b})
    total = a + b
    assert np.array_equal(out["S"], total % (1 << width))
    assert np.array_equal(out["CO"], total >> width)


@settings(max_examples=30, deadline=None)
@given(
    a=st.integers(min_value=0, max_value=(1 << 16) - 1),
    b=st.integers(min_value=0, max_value=(1 << 16) - 1),
)
def test_carry_select_matches_ripple_property(a, b):
    """The fast adder and the trivially-correct one always agree."""
    sim_fast = _build_adder(carry_select_adder, 16)
    sim_slow = _build_adder(ripple_carry_adder, 16)
    fast = sim_fast.run_combinational({"A": [a], "B": [b]})
    slow = sim_slow.run_combinational({"A": [a], "B": [b]})
    assert fast["S"][0] == slow["S"][0]
    assert fast["CO"][0] == slow["CO"][0]


def test_subtractor():
    builder = NetlistBuilder("sub4", LIBRARY)
    a = builder.input_bus("A", 4)
    b = builder.input_bus("B", 4)
    diff, _ = subtractor(builder, a, b)
    builder.output_bus("D", diff)
    sim = LogicSimulator(builder.build(), SimulationMode.TRANSPARENT)
    values = np.arange(-8, 8)
    a_v, b_v = np.meshgrid(values, values)
    a_v, b_v = a_v.ravel(), b_v.ravel()
    out = sim.run_combinational({"A": a_v, "B": b_v})["D"]
    expected = a_v - b_v
    expected = np.mod(expected + 8, 16) - 8  # wrap to signed 4-bit
    assert np.array_equal(out, expected)


class TestStructure:
    def test_width_mismatch_rejected(self):
        builder = NetlistBuilder("t", LIBRARY)
        a = builder.input_bus("A", 4)
        b = builder.input_bus("B", 3)
        with pytest.raises(ValueError, match="widths differ"):
            ripple_carry_adder(builder, a, b)

    def test_zero_width_rejected(self):
        builder = NetlistBuilder("t", LIBRARY)
        with pytest.raises(ValueError, match="zero-width"):
            ripple_carry_adder(builder, [], [])

    def test_carry_select_block_size_validated(self):
        builder = NetlistBuilder("t", LIBRARY)
        a = builder.input_bus("A", 4)
        b = builder.input_bus("B", 4)
        with pytest.raises(ValueError, match="block_size"):
            carry_select_adder(builder, a, b, block_size=0)

    def test_sign_extend_adds_no_gates(self):
        builder = NetlistBuilder("t", LIBRARY)
        a = builder.input_bus("A", 4)
        before = len(builder.netlist.cells)
        extended = sign_extend(a, 8)
        assert len(builder.netlist.cells) == before
        assert len(extended) == 8
        assert all(net is a[3] for net in extended[4:])

    def test_sign_extend_rejects_shrink(self):
        builder = NetlistBuilder("t", LIBRARY)
        a = builder.input_bus("A", 4)
        with pytest.raises(ValueError):
            sign_extend(a, 2)
