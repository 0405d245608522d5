"""Multiplier correctness: exhaustive small, random large, encoding units."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.netlist.builder import NetlistBuilder
from repro.operators import booth_multiplier
from repro.operators.encoding import booth_encode
from repro.operators.wallace import columns_from_rows, wallace_reduce
from repro.sim import golden
from repro.sim.simulator import LogicSimulator, SimulationMode
from repro.techlib.library import Library

LIBRARY = Library()


class TestBoothMultiplier:
    @pytest.mark.parametrize("width", [2, 4, 6])
    def test_exhaustive(self, width):
        netlist = booth_multiplier(LIBRARY, width=width, registered=False)
        sim = LogicSimulator(netlist, SimulationMode.TRANSPARENT)
        lo, hi = -(1 << (width - 1)), 1 << (width - 1)
        a, b = np.meshgrid(np.arange(lo, hi), np.arange(lo, hi))
        a, b = a.ravel(), b.ravel()
        out = sim.run_combinational({"A": a, "B": b})["P"]
        assert np.array_equal(out, golden.multiply_reference(a, b, width))

    def test_random_16bit(self):
        netlist = booth_multiplier(LIBRARY, width=16, registered=False)
        sim = LogicSimulator(netlist, SimulationMode.TRANSPARENT)
        rng = np.random.default_rng(0)
        a = rng.integers(-(1 << 15), 1 << 15, 5000)
        b = rng.integers(-(1 << 15), 1 << 15, 5000)
        out = sim.run_combinational({"A": a, "B": b})["P"]
        assert np.array_equal(out, golden.multiply_reference(a, b, 16))

    def test_corner_operands_16bit(self):
        netlist = booth_multiplier(LIBRARY, width=16, registered=False)
        sim = LogicSimulator(netlist, SimulationMode.TRANSPARENT)
        extremes = np.asarray([-(1 << 15), (1 << 15) - 1, -1, 0, 1])
        a, b = np.meshgrid(extremes, extremes)
        a, b = a.ravel(), b.ravel()
        out = sim.run_combinational({"A": a, "B": b})["P"]
        assert np.array_equal(out, golden.multiply_reference(a, b, 16))

    def test_registered_latency_two_cycles(self):
        netlist = booth_multiplier(LIBRARY, width=8)
        sim = LogicSimulator(netlist, SimulationMode.CYCLE)
        a = np.asarray([17, -5])
        b = np.asarray([-3, 11])
        stim = [{"A": a, "B": b}] * 3
        trace = sim.run_cycles(stim)
        assert np.array_equal(
            trace.output("P", 2), golden.multiply_reference(a, b, 8)
        )

    def test_odd_width_rejected(self):
        with pytest.raises(ValueError, match="even"):
            booth_multiplier(LIBRARY, width=5)

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.integers(min_value=-(1 << 15), max_value=(1 << 15) - 1),
        b=st.integers(min_value=-(1 << 15), max_value=(1 << 15) - 1),
    )
    def test_matches_python_semantics(self, a, b):
        sim = _cached_booth16()
        out = sim.run_combinational({"A": [a], "B": [b]})["P"][0]
        assert out == a * b


_BOOTH16_SIM = None


def _cached_booth16():
    global _BOOTH16_SIM
    if _BOOTH16_SIM is None:
        netlist = booth_multiplier(LIBRARY, width=16, registered=False)
        _BOOTH16_SIM = LogicSimulator(netlist, SimulationMode.TRANSPARENT)
    return _BOOTH16_SIM


class TestBoothEncoding:
    def test_group_count(self):
        builder = NetlistBuilder("t", LIBRARY)
        y = builder.input_bus("Y", 8)
        groups = booth_encode(builder, y)
        assert len(groups) == 4

    def test_odd_width_rejected(self):
        builder = NetlistBuilder("t", LIBRARY)
        y = builder.input_bus("Y", 3)
        with pytest.raises(ValueError, match="even"):
            booth_encode(builder, y)

    def test_digit_decode_exhaustive(self):
        """Each group's (single, double, negate) must encode the Booth digit.

        A 4-bit multiplier has two groups; group 0 sees the window
        (y1, y0, 0) and group 1 sees (y3, y2, y1).  The radix-4 digit of a
        window (h, m, l) is ``-2h + m + l``.
        """
        builder = NetlistBuilder("t", LIBRARY)
        y = builder.input_bus("Y", 4)
        groups = booth_encode(builder, y)
        control = []
        for group in groups:
            control.extend([group.single, group.double, group.negate])
        builder.output_bus("CTL", control, signed=False)
        sim = LogicSimulator(builder.build(), SimulationMode.TRANSPARENT)
        for word in range(16):
            out = int(
                sim.run_combinational(
                    {"Y": np.asarray([word])}, signed=False
                )["CTL"][0]
            )
            bits = [(word >> i) & 1 for i in range(4)]
            windows = [(bits[1], bits[0], 0), (bits[3], bits[2], bits[1])]
            for g, (h, m, l) in enumerate(windows):
                single = (out >> (3 * g)) & 1
                double = (out >> (3 * g + 1)) & 1
                negate = (out >> (3 * g + 2)) & 1
                digit = -2 * h + m + l
                assert single == (abs(digit) == 1), (word, g)
                assert double == (abs(digit) == 2), (word, g)
                if digit < 0:
                    assert negate == 1, (word, g)


class TestWallace:
    def test_columns_from_rows_discards_overflow(self):
        builder = NetlistBuilder("t", LIBRARY)
        a = builder.input_bus("A", 4)
        columns = columns_from_rows([(2, a)], width=4)
        assert [len(c) for c in columns] == [0, 0, 1, 1]

    def test_wallace_preserves_sum(self):
        """Reducing a bit matrix then adding the two rows equals the sum."""
        builder = NetlistBuilder("t", LIBRARY)
        width = 6
        rows = [builder.input_bus(f"R{i}", width) for i in range(5)]
        columns = columns_from_rows([(0, r) for r in rows], width)
        row_a, row_b = wallace_reduce(builder, columns)
        from repro.operators.adders import ripple_carry_adder

        total, _ = ripple_carry_adder(builder, row_a, row_b)
        builder.output_bus("S", total, signed=False)
        sim = LogicSimulator(builder.build(), SimulationMode.TRANSPARENT)
        rng = np.random.default_rng(9)
        stim = {f"R{i}": rng.integers(0, 1 << width, 200) for i in range(5)}
        out = sim.run_combinational(stim, signed=False)["S"]
        expected = sum(stim[f"R{i}"] for i in range(5)) % (1 << width)
        assert np.array_equal(out, expected)


class TestPipelinedBooth:
    def test_three_cycle_latency_correct_product(self):
        netlist = booth_multiplier(LIBRARY, width=8, pipelined=True)
        sim = LogicSimulator(netlist, SimulationMode.CYCLE)
        rng = np.random.default_rng(2)
        a = rng.integers(-128, 128, 50)
        b = rng.integers(-128, 128, 50)
        stim = [{"A": a, "B": b}] * 4
        trace = sim.run_cycles(stim)
        assert np.array_equal(
            trace.output("P", 3), golden.multiply_reference(a, b, 8)
        )

    def test_streaming_pipeline(self):
        """New operands every cycle; products emerge 3 cycles later."""
        netlist = booth_multiplier(LIBRARY, width=6, pipelined=True)
        sim = LogicSimulator(netlist, SimulationMode.CYCLE)
        rng = np.random.default_rng(3)
        ops = [
            (rng.integers(-32, 32, 8), rng.integers(-32, 32, 8))
            for _ in range(6)
        ]
        stim = [{"A": a, "B": b} for a, b in ops]
        stim += [stim[-1]] * 3  # flush
        trace = sim.run_cycles(stim)
        for cycle, (a, b) in enumerate(ops):
            assert np.array_equal(
                trace.output("P", cycle + 3),
                golden.multiply_reference(a, b, 6),
            ), f"operand set {cycle}"

    def test_pipeline_shortens_critical_path(self):
        from repro.sta.engine import StaEngine
        from repro.sta.graph import compile_timing_graph

        flat = booth_multiplier(LIBRARY, width=8, name="flat8")
        piped = booth_multiplier(
            LIBRARY, width=8, name="piped8", pipelined=True
        )
        d_flat = StaEngine(
            compile_timing_graph(flat), LIBRARY
        ).critical_path_delay(1.0, np.ones(len(flat.cells), bool))
        d_piped = StaEngine(
            compile_timing_graph(piped), LIBRARY
        ).critical_path_delay(1.0, np.ones(len(piped.cells), bool))
        assert d_piped < 0.8 * d_flat

    def test_unregistered_pipeline_rejected(self):
        with pytest.raises(ValueError, match="registered"):
            booth_multiplier(LIBRARY, width=8, registered=False, pipelined=True)

    def test_flow_closes_faster_clock(self):
        """The implementation flow should sign off a higher fclk for the
        pipelined variant of the same multiplier."""
        from repro.core.flow import select_clock_for

        counter = {"n": 0}

        def flat_factory():
            counter["n"] += 1
            return booth_multiplier(LIBRARY, 8, name=f"pf{counter['n']}")

        def piped_factory():
            counter["n"] += 1
            return booth_multiplier(
                LIBRARY, 8, name=f"pp{counter['n']}", pipelined=True
            )

        flat_clock = select_clock_for(flat_factory, LIBRARY)
        piped_clock = select_clock_for(piped_factory, LIBRARY)
        assert piped_clock.frequency_ghz > flat_clock.frequency_ghz
