"""Differential lock-in of the packed simulation engine.

The contract under test: the compiled bit-packed engine of
:mod:`repro.sim.packed` is *bit-identical* to the interpreted reference
simulator (:mod:`tests.oracles.sim`) on every API -- combinational evaluation, cycle-accurate
traces, streaming toggle rates and memoized activity reports -- for any
netlist it accepts, at any batch size (including non-multiples of the
64-lane word).  Netlists are generated with hypothesis over the full
combinational cell mix plus registers; the FIR covers real sequential
feedback (delay line + accumulator).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.sim.activity as activity_module
from repro.netlist.builder import NetlistBuilder
from repro.operators import booth_multiplier, fir_filter
from repro.operators.fir import FirParameters
from repro.sim.activity import (
    activity_cache_size,
    clear_activity_cache,
    measure_activity,
)
from repro.sim.packed import (
    PackedCompileError,
    PackedEngine,
    lane_mask,
    pack_lanes,
    popcount_rows,
    unpack_lanes,
    words_for,
)
from repro.sim.simulator import LogicSimulator, SimulationMode
from repro.sim.vectors import random_words
from repro.techlib.cells import CellTemplate
from repro.techlib.library import Library
from tests.oracles.sim import interpreted_engine, interpreted_simulator

LIBRARY = Library()

#: Batch sizes straddling the 64-lane word boundary.
BATCHES = [1, 3, 63, 64, 65, 130]

_UNARY = ("INV", "BUF")
_BINARY = ("AND2", "OR2", "NAND2", "NOR2", "XOR2", "XNOR2")
_TERNARY = ("AND3", "OR3", "NAND3", "NOR3", "AOI21", "OAI21", "MUX2")


# ---------------------------------------------------------------------------
# Random-netlist strategies
# ---------------------------------------------------------------------------


@st.composite
def _netlists(draw, sequential: bool):
    """A random netlist over the full packed cell mix.

    With *sequential*, register stages are interleaved with the logic, so
    later gates consume state from earlier cycles (registered feedback).
    """
    width = draw(st.integers(min_value=2, max_value=5))
    builder = NetlistBuilder("rand", LIBRARY)
    if sequential:
        builder.clock()
    pool = list(builder.input_bus("A", width))
    if draw(st.booleans()):
        pool += builder.input_bus("B", draw(st.integers(1, 4)))
    if draw(st.booleans()):
        pool.append(builder.const(draw(st.booleans())))

    kinds = ["u", "b", "t", "ha", "fa"] + (["dff"] * 2 if sequential else [])
    num_gates = draw(st.integers(min_value=3, max_value=20))
    for _ in range(num_gates):
        kind = draw(st.sampled_from(kinds))
        pick = lambda: pool[draw(st.integers(0, len(pool) - 1))]
        if kind == "u":
            pool.append(builder.gate(draw(st.sampled_from(_UNARY)), pick()))
        elif kind == "b":
            pool.append(
                builder.gate(draw(st.sampled_from(_BINARY)), pick(), pick())
            )
        elif kind == "t":
            pool.append(
                builder.gate(
                    draw(st.sampled_from(_TERNARY)), pick(), pick(), pick()
                )
            )
        elif kind == "ha":
            pool.extend(builder.half_adder(pick(), pick()))
        elif kind == "fa":
            pool.extend(builder.full_adder(pick(), pick(), pick()))
        else:
            pool.append(builder.dff(pick()))

    out_width = min(len(pool), width + 2)
    builder.output_bus("Y", pool[-out_width:], signed=draw(st.booleans()))
    return builder.build()


def _stimulus(netlist, batch, rng):
    """One cycle of random full-range signed stimulus for every input bus."""
    return {
        name: random_words(rng, batch, bus.width, signed=True)
        for name, bus in netlist.input_buses.items()
    }


def _both_engines(netlist, mode):
    interpreted = interpreted_simulator(netlist, mode)
    packed = LogicSimulator(netlist, mode)
    assert packed.engine == "packed"
    return interpreted, packed


# ---------------------------------------------------------------------------
# Engine differential on random netlists
# ---------------------------------------------------------------------------


class TestEngineDifferential:
    @settings(max_examples=40, deadline=None)
    @given(
        netlist=_netlists(sequential=False),
        batch=st.sampled_from(BATCHES),
        seed=st.integers(0, 2**16),
    )
    def test_combinational_bit_identical(self, netlist, batch, seed):
        interpreted, packed = _both_engines(
            netlist, SimulationMode.TRANSPARENT
        )
        inputs = _stimulus(netlist, batch, np.random.default_rng(seed))
        reference = interpreted.run_combinational(inputs)
        result = packed.run_combinational(inputs)
        assert set(result) == set(reference)
        for name in reference:
            np.testing.assert_array_equal(result[name], reference[name])

    @settings(max_examples=25, deadline=None)
    @given(
        netlist=_netlists(sequential=True),
        batch=st.sampled_from([1, 3, 64, 65]),
        cycles=st.integers(3, 6),
        seed=st.integers(0, 2**16),
    )
    def test_cycle_trace_bit_identical(self, netlist, batch, cycles, seed):
        interpreted, packed = _both_engines(netlist, SimulationMode.CYCLE)
        rng = np.random.default_rng(seed)
        stimulus = [_stimulus(netlist, batch, rng) for _ in range(cycles)]
        reference = interpreted.run_cycles(stimulus, collect_net_values=True)
        result = packed.run_cycles(stimulus, collect_net_values=True)
        for cycle in range(cycles):
            for name in reference.outputs_per_cycle[cycle]:
                np.testing.assert_array_equal(
                    result.output(name, cycle), reference.output(name, cycle)
                )
            np.testing.assert_array_equal(
                result.net_values_per_cycle[cycle],
                reference.net_values_per_cycle[cycle],
            )

    @settings(max_examples=25, deadline=None)
    @given(
        netlist=_netlists(sequential=True),
        batch=st.sampled_from([1, 3, 64, 65]),
        warmup=st.integers(0, 2),
        seed=st.integers(0, 2**16),
    )
    def test_toggle_rates_bit_identical(self, netlist, batch, warmup, seed):
        interpreted, packed = _both_engines(netlist, SimulationMode.CYCLE)
        rng = np.random.default_rng(seed)
        stimulus = [_stimulus(netlist, batch, rng) for _ in range(warmup + 4)]
        reference = interpreted.toggle_rates(stimulus, warmup_cycles=warmup)
        result = packed.toggle_rates(stimulus, warmup_cycles=warmup)
        np.testing.assert_array_equal(result, reference)


class TestOperatorDifferential:
    """The same contract on real Table 1 operators."""

    @pytest.fixture(scope="class")
    def booth6(self):
        return booth_multiplier(LIBRARY, width=6, name="pk_booth6")

    @pytest.fixture(scope="class")
    def fir6(self):
        return fir_filter(LIBRARY, FirParameters(taps=4, width=6), name="pk_fir6")

    @pytest.mark.parametrize("batch", BATCHES)
    def test_booth_cycle_all_batch_sizes(self, booth6, batch):
        interpreted, packed = _both_engines(booth6, SimulationMode.CYCLE)
        rng = np.random.default_rng(7 * batch + 1)
        stimulus = [_stimulus(booth6, batch, rng) for _ in range(5)]
        reference = interpreted.run_cycles(stimulus)
        result = packed.run_cycles(stimulus)
        for cycle in range(5):
            np.testing.assert_array_equal(
                result.output("P", cycle), reference.output("P", cycle)
            )
        np.testing.assert_array_equal(
            packed.toggle_rates(stimulus, warmup_cycles=1),
            interpreted.toggle_rates(stimulus, warmup_cycles=1),
        )

    def test_fir_sequential_feedback(self, fir6):
        """Accumulator/delay-line feedback through the packed state rows."""
        interpreted, packed = _both_engines(fir6, SimulationMode.CYCLE)
        rng = np.random.default_rng(99)
        stimulus = [_stimulus(fir6, 13, rng) for _ in range(8)]
        reference = interpreted.run_cycles(stimulus)
        result = packed.run_cycles(stimulus)
        for cycle in range(8):
            for name in reference.outputs_per_cycle[cycle]:
                np.testing.assert_array_equal(
                    result.output(name, cycle), reference.output(name, cycle)
                )

    def test_streaming_matches_collected_matrix(self, booth6):
        """The packed streaming accumulator equals the trace-matrix path
        run on the same packed engine (not just the interpreted one)."""
        packed = LogicSimulator(booth6, SimulationMode.CYCLE)
        assert packed.engine == "packed"
        rng = np.random.default_rng(5)
        stimulus = [_stimulus(booth6, 13, rng) for _ in range(6)]
        trace = packed.run_cycles(stimulus, collect_net_values=True)
        trace.net_values_per_cycle = trace.net_values_per_cycle[2:]
        np.testing.assert_array_equal(
            packed.toggle_rates(stimulus, warmup_cycles=2),
            trace.toggle_counts(),
        )

    @pytest.mark.parametrize("active_bits", [2, 6])
    def test_measure_activity_cross_engine(self, fir6, active_bits):
        """DVAS-gated activity reports are engine-independent, bit for bit."""
        clear_activity_cache()
        with interpreted_engine():
            (reference,) = measure_activity(
                fir6, [active_bits], cycles=10, batch=13
            )
        clear_activity_cache()
        (result,) = measure_activity(fir6, [active_bits], cycles=10, batch=13)
        assert result is not reference
        np.testing.assert_array_equal(result.rates, reference.rates)
        clear_activity_cache()


# ---------------------------------------------------------------------------
# Interpreted fallback
# ---------------------------------------------------------------------------


def _netlist_with_unsupported_template():
    """A netlist using a template the packed engine has no op for."""
    builder = NetlistBuilder("weird", LIBRARY)
    a, b, c = builder.input_bus("A", 3)
    majority = CellTemplate(
        name="MAJ3",
        inputs=("A", "B", "C"),
        outputs=("Z",),
        evaluate=lambda a, b, c: ((a & b) | (b & c) | (a & c),),
        drives=LIBRARY.template("AND3").drives,
    )
    netlist = builder.build()
    out = netlist.add_net("maj_z")
    netlist.add_cell("maj0", majority, [a, b, c], [out])
    netlist.mark_output_bus("Y", [out], signed=False)
    return netlist


class TestEngineSelection:
    def test_auto_falls_back_on_unsupported_template(self):
        netlist = _netlist_with_unsupported_template()
        simulator = LogicSimulator(netlist, SimulationMode.TRANSPARENT)
        assert simulator.engine == "interpreted"
        out = simulator.run_combinational({"A": np.array([0, 3, 5, 7])})
        np.testing.assert_array_equal(out["Y"], [0, 1, 1, 1])

    def test_unknown_engine_rejected(self):
        """No engine selector is left: the keyword does not exist."""
        netlist = _tiny_netlist("XOR2")
        with pytest.raises(TypeError, match="engine"):
            LogicSimulator(netlist, SimulationMode.CYCLE, engine="packed")
        with pytest.raises(TypeError, match="engine"):
            measure_activity(netlist, [2], cycles=8, batch=16, engine="packed")

    def test_explicit_packed_raises_on_unsupported_template(self):
        """The packed compile itself refuses the template -- the error
        the simulator's fallback catches."""
        netlist = _netlist_with_unsupported_template()
        order = netlist.topological_cells()
        with pytest.raises(PackedCompileError, match="MAJ3"):
            PackedEngine(netlist, order, True)


# ---------------------------------------------------------------------------
# Bitplane packing primitives
# ---------------------------------------------------------------------------


class TestPackingPrimitives:
    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.integers(1, 5),
        batch=st.sampled_from(BATCHES),
        seed=st.integers(0, 2**16),
    )
    def test_pack_unpack_roundtrip(self, rows, batch, seed):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=(rows, batch)).astype(bool)
        packed = pack_lanes(bits)
        assert packed.shape == (rows, words_for(batch))
        np.testing.assert_array_equal(unpack_lanes(packed, batch), bits)

    @settings(max_examples=40, deadline=None)
    @given(rows=st.integers(1, 4), batch=st.sampled_from(BATCHES))
    def test_popcount_rows(self, rows, batch):
        rng = np.random.default_rng(rows * 1000 + batch)
        bits = rng.integers(0, 2, size=(rows, batch)).astype(bool)
        counts = popcount_rows(pack_lanes(bits))
        np.testing.assert_array_equal(counts, bits.sum(axis=1))

    @pytest.mark.parametrize("batch", BATCHES)
    def test_lane_mask_covers_exactly_the_batch(self, batch):
        mask = lane_mask(batch)
        assert mask.shape == (words_for(batch),)
        as_bits = unpack_lanes(mask[None, :], words_for(batch) * 64)[0]
        assert as_bits[:batch].all()
        assert not as_bits[batch:].any()


# ---------------------------------------------------------------------------
# Activity cache: content fingerprint + LRU bound
# ---------------------------------------------------------------------------


def _tiny_netlist(op: str):
    """Two structurally different netlists with identical name and counts."""
    builder = NetlistBuilder("twin", LIBRARY)
    a, b = builder.input_bus("A", 2)
    builder.clock()
    builder.output_bus("Y", [builder.dff(builder.gate(op, a, b))], signed=False)
    return builder.build()


class TestActivityCache:
    def test_fingerprint_distinguishes_same_name_same_counts(self):
        """The old (name, num_nets) key collided here; the content
        fingerprint must not."""
        xor_net = _tiny_netlist("XOR2")
        and_net = _tiny_netlist("AND2")
        assert xor_net.content_fingerprint() != and_net.content_fingerprint()
        clear_activity_cache()
        xor_rates = measure_activity(xor_net, [2], cycles=8, batch=16)[0].rates
        and_rates = measure_activity(and_net, [2], cycles=8, batch=16)[0].rates
        assert activity_cache_size() == 2
        assert not np.array_equal(xor_rates, and_rates)
        clear_activity_cache()

    def test_fingerprint_stable_across_rebuilds(self):
        assert (
            _tiny_netlist("XOR2").content_fingerprint()
            == _tiny_netlist("XOR2").content_fingerprint()
        )

    def test_cache_hit_returns_same_report(self):
        clear_activity_cache()
        netlist = _tiny_netlist("XOR2")
        first = measure_activity(netlist, [2], cycles=8, batch=16)[0]
        again = measure_activity(netlist, [2], cycles=8, batch=16)[0]
        assert again is first
        assert activity_cache_size() == 1
        clear_activity_cache()

    def test_lru_bound_evicts_oldest(self, monkeypatch):
        monkeypatch.setattr(activity_module, "ACTIVITY_CACHE_LIMIT", 2)
        clear_activity_cache()
        netlist = _tiny_netlist("XOR2")
        first = measure_activity(netlist, [1], cycles=8, batch=16)[0]
        measure_activity(netlist, [2], cycles=8, batch=16)
        # Touch mode 1 so mode 2 is the LRU entry, then overflow.
        assert measure_activity(netlist, [1], cycles=8, batch=16)[0] is first
        measure_activity(netlist, [3], cycles=8, batch=16)
        assert activity_cache_size() == 2
        assert measure_activity(netlist, [1], cycles=8, batch=16)[0] is first
        # Mode 2 was evicted: recomputing it is a miss (new object).
        second = measure_activity(netlist, [2], cycles=8, batch=16)[0]
        assert activity_cache_size() == 2
        assert measure_activity(netlist, [2], cycles=8, batch=16)[0] is second
        clear_activity_cache()
