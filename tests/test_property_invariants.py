"""Hypothesis property tests on the flow's core invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.netlist.builder import NetlistBuilder
from repro.operators import booth_multiplier
from repro.operators.adders import carry_select_adder, ripple_carry_adder
from repro.operators.wallace import columns_from_rows, wallace_reduce
from repro.sim.simulator import LogicSimulator, SimulationMode
from repro.sim.vectors import bits_to_int, int_to_bits, zero_lsbs
from repro.sta.caseanalysis import UNKNOWN, dvas_case
from repro.sta.lattice import all_bb_configs, all_state_configs
from repro.techlib.library import Library
from repro.techlib.models import (
    delay_scale_factor,
    leakage_scale_factor,
    threshold_voltage,
)

LIBRARY = Library()

_BOOTH6 = booth_multiplier(LIBRARY, width=6, registered=False)
_BOOTH6_SIM = LogicSimulator(_BOOTH6, SimulationMode.TRANSPARENT)


class TestArithmeticProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        a=st.integers(min_value=-32, max_value=31),
        b=st.integers(min_value=-32, max_value=31),
    )
    def test_booth_commutes(self, a, b):
        ab = _BOOTH6_SIM.run_combinational({"A": [a], "B": [b]})["P"][0]
        ba = _BOOTH6_SIM.run_combinational({"A": [b], "B": [a]})["P"][0]
        assert ab == ba == a * b

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.integers(min_value=-32, max_value=31),
        b=st.integers(min_value=-32, max_value=31),
        bits=st.integers(min_value=1, max_value=6),
    )
    def test_gated_product_equals_product_of_gated(self, a, b, bits):
        """DVAS semantics: the hardware with gated inputs computes the
        exact product of the gated operands."""
        ga = int(zero_lsbs(np.asarray([a]), 6, bits)[0])
        gb = int(zero_lsbs(np.asarray([b]), 6, bits)[0])
        out = _BOOTH6_SIM.run_combinational({"A": [ga], "B": [gb]})["P"][0]
        assert out == ga * gb

    @settings(max_examples=30, deadline=None)
    @given(
        rows=st.lists(
            st.integers(min_value=0, max_value=255),
            min_size=3,
            max_size=7,
        )
    )
    def test_wallace_preserves_any_sum(self, rows):
        width = 8
        builder = NetlistBuilder("w", LIBRARY)
        row_nets = [builder.input_bus(f"R{i}", width) for i in range(len(rows))]
        columns = columns_from_rows([(0, r) for r in row_nets], width)
        a, b = wallace_reduce(builder, columns)
        total, _ = ripple_carry_adder(builder, a, b)
        builder.output_bus("S", total, signed=False)
        sim = LogicSimulator(builder.build(), SimulationMode.TRANSPARENT)
        stim = {f"R{i}": np.asarray([v]) for i, v in enumerate(rows)}
        out = sim.run_combinational(stim, signed=False)["S"][0]
        assert out == sum(rows) % (1 << width)


class TestPhysicsProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        vdd=st.floats(min_value=0.6, max_value=1.2),
        vbb=st.floats(min_value=-1.1, max_value=1.1),
    )
    def test_speed_and_leakage_trade_monotonically(self, vdd, vbb):
        eps = 0.05
        assume(vbb + eps <= 1.1)
        d_more = delay_scale_factor(vdd, vbb + eps)
        d_less = delay_scale_factor(vdd, vbb)
        assert d_more <= d_less  # more forward bias never slower
        assert leakage_scale_factor(vdd, vbb + eps) >= leakage_scale_factor(
            vdd, vbb
        )

    @settings(max_examples=50, deadline=None)
    @given(vbb=st.floats(min_value=-1.1, max_value=1.1))
    def test_vth_linear_in_vbb(self, vbb):
        base = threshold_voltage(0.0, 1.0)
        shifted = threshold_voltage(vbb, 1.0)
        slope = (
            LIBRARY.process.body_factor
            + LIBRARY.process.lvt_offset / LIBRARY.process.fbb_voltage
        )
        assert shifted == pytest.approx(base - slope * vbb)


class TestCaseAnalysisProperties:
    @settings(max_examples=15, deadline=None)
    @given(bits=st.integers(min_value=0, max_value=6))
    def test_constants_grow_as_bits_shrink(self, bits):
        more_gated = dvas_case(_BOOTH6, [bits])[0]
        less_gated = dvas_case(_BOOTH6, [min(bits + 2, 6)])[0]
        # Every net constant at the *larger* bitwidth stays constant at the
        # smaller one (gating more inputs can only add constants).
        stricter = more_gated.values != UNKNOWN
        looser = less_gated.values != UNKNOWN
        assert np.all(stricter | ~looser)

    @settings(max_examples=15, deadline=None)
    @given(bits=st.integers(min_value=0, max_value=6))
    def test_case_analysis_agrees_with_simulation(self, bits):
        """Any net the case analysis calls constant must never toggle in a
        gated random simulation (soundness of the timing filter)."""
        case = dvas_case(_BOOTH6, [bits])[0]
        rng = np.random.default_rng(bits)
        a = zero_lsbs(rng.integers(-32, 32, 64), 6, bits)
        b = zero_lsbs(rng.integers(-32, 32, 64), 6, bits)
        values = {}
        sim = _BOOTH6_SIM
        batch = 64
        vals = {}
        sim._apply_inputs(vals, {"A": a, "B": b}, batch)
        sim._evaluate_combinational(vals, batch)
        for net in _BOOTH6.nets:
            code = case.values[net.index]
            if code != UNKNOWN and net.index in vals:
                observed = vals[net.index]
                assert np.all(observed == bool(code)), net.name


class TestConfigEnumerationProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        domains=st.integers(min_value=0, max_value=8),
    )
    def test_bb_configs_complete(self, domains):
        configs = all_bb_configs(domains)
        assert configs.shape == (1 << domains, domains)
        assert len({tuple(r) for r in configs}) == 1 << domains

    @settings(max_examples=20, deadline=None)
    @given(
        domains=st.integers(min_value=1, max_value=5),
        states=st.integers(min_value=1, max_value=4),
    )
    def test_state_configs_complete(self, domains, states):
        configs = all_state_configs(domains, states)
        assert configs.shape == (states**domains, domains)
        assert len({tuple(r) for r in configs}) == states**domains


class TestPackingProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.integers(min_value=0, max_value=(1 << 12) - 1),
            min_size=1,
            max_size=20,
        ),
        width=st.integers(min_value=12, max_value=20),
    )
    def test_pack_unpack_identity_any_width(self, values, width):
        array = np.asarray(values)
        assert np.array_equal(
            bits_to_int(int_to_bits(array, width), signed=False), array
        )


class TestNewOperatorProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=255),
        d=st.integers(min_value=1, max_value=255),
    )
    def test_divider_euclidean_property(self, n, d):
        """Q*D + R == N and 0 <= R < D -- checked on the netlist."""
        sim = _cached_div8()
        out = sim.run_combinational(
            {"N": [n], "D": [d]}, signed=False
        )
        q, r = int(out["Q"][0]), int(out["R"][0])
        assert q * d + r == n
        assert 0 <= r < d

    @settings(max_examples=25, deadline=None)
    @given(
        x=st.integers(min_value=-2000, max_value=2000),
        y=st.integers(min_value=-2000, max_value=2000),
        z=st.integers(min_value=-(1 << 13), max_value=(1 << 13) - 1),
    )
    def test_cordic_norm_gain_property(self, x, y, z):
        """CORDIC rotation preserves |v| up to the constant gain (within
        the quantization error of the iteration count)."""
        assume(x * x + y * y > 100)
        from repro.sim.golden import cordic_reference

        out = cordic_reference(
            np.asarray([x]), np.asarray([y]), np.asarray([z]), 16, 12
        )
        norm_in = float(np.hypot(x, y))
        norm_out = float(np.hypot(out["XO"][0], out["YO"][0]))
        assert norm_out == pytest.approx(norm_in * 1.64676, rel=0.02, abs=24)


_DIV8_SIM = None


def _cached_div8():
    global _DIV8_SIM
    if _DIV8_SIM is None:
        from repro.operators import divider
        from repro.sim.simulator import LogicSimulator, SimulationMode

        netlist = divider(LIBRARY, width=8, registered=False, name="pdiv8")
        _DIV8_SIM = LogicSimulator(netlist, SimulationMode.TRANSPARENT)
    return _DIV8_SIM
