"""Differential lock-in of the lane-parallel case analysis and activity.

Case analysis evaluates every forced map (every accuracy mode, for
:func:`~repro.sta.caseanalysis.dvas_case`) as a lane of one compiled,
table-driven sweep; activity simulates every mode's stimulus as a
word-aligned lane group of one packed cycle loop.  The contract under
test:

* every lane's net codes **and** fixpoint sweep count equal the per-cell
  reference walker of :mod:`tests.oracles.caseanalysis` -- on the
  paper's operators at fixture scale for every bitwidth, and on random
  sequential netlists whose forced maps include internal nets,
  flip-flop Q nets, tie cells and the clock;
* on the same operators and netlists, every lane's active-arc mask (one
  sensitization-table lookup per template) equals the per-cell
  sensitization walker;
* a mode's activity report is bit-identical whether it is measured
  alone or as one lane group among others, on the packed engine and on
  the interpreted fallback.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.netlist.builder import NetlistBuilder
from repro.operators import booth_multiplier, fft_butterfly, fir_filter
from repro.operators.fir import FirParameters
from repro.sim.activity import clear_activity_cache, measure_activity
from repro.sim.simulator import LogicSimulator, SimulationMode
from repro.sim.vectors import random_words
from repro.sta.caseanalysis import (
    CaseLanes,
    dvas_case,
    propagate_constants,
    propagate_lanes,
)
from repro.sta.graph import compile_timing_graph
from repro.techlib.library import Library
from tests.oracles.caseanalysis import (
    reference_arc_mask,
    reference_dvas_case,
    reference_propagate,
)
from tests.oracles.sim import interpreted_engine

LIBRARY = Library()

_UNARY = ("INV", "BUF")
_BINARY = ("AND2", "OR2", "NAND2", "NOR2", "XOR2", "XNOR2")
_TERNARY = ("AND3", "OR3", "NAND3", "NOR3", "AOI21", "OAI21", "MUX2")

#: The paper's operator families at fixture scale.
OPERATORS = {
    "booth8": lambda: booth_multiplier(LIBRARY, width=8),
    "fir4x8": lambda: fir_filter(LIBRARY, FirParameters(taps=4, width=8)),
    "butterfly8": lambda: fft_butterfly(LIBRARY, width=8),
}


@pytest.fixture(scope="module", params=sorted(OPERATORS))
def operator(request):
    return OPERATORS[request.param]()


def _assert_lane_matches(lanes: CaseLanes, lane: int, reference) -> None:
    np.testing.assert_array_equal(lanes.values[:, lane], reference.values)
    assert int(lanes.sweeps[lane]) == reference.sweeps
    case = lanes[lane]
    np.testing.assert_array_equal(case.values, reference.values)
    assert case.sweeps == reference.sweeps
    assert case.forced == reference.forced


# ---------------------------------------------------------------------------
# Case analysis on the paper's operators
# ---------------------------------------------------------------------------


class TestOperatorLanes:
    def test_every_bitwidth_matches_reference(self, operator):
        width = max(bus.width for bus in operator.input_buses.values())
        bitwidths = list(range(width + 1))
        lanes = dvas_case(operator, bitwidths)
        assert len(lanes) == len(bitwidths)
        assert lanes.values.shape == (len(operator.nets), len(bitwidths))
        for lane, bits in enumerate(bitwidths):
            _assert_lane_matches(
                lanes, lane, reference_dvas_case(operator, bits)
            )

    def test_every_bitwidth_arc_mask_matches_reference(self, operator):
        width = max(bus.width for bus in operator.input_buses.values())
        graph = compile_timing_graph(operator)
        for case in dvas_case(operator, list(range(width + 1))):
            np.testing.assert_array_equal(
                case.active_arc_mask(graph), reference_arc_mask(case, graph)
            )

    def test_lane_order_and_company_do_not_matter(self, operator):
        """A mode's lane equals its standalone one-lane analysis."""
        lanes = dvas_case(operator, [5, 1, 3])
        for lane, bits in enumerate([5, 1, 3]):
            alone = dvas_case(operator, [bits])
            np.testing.assert_array_equal(
                lanes.values[:, lane], alone.values[:, 0]
            )
            assert lanes.sweeps[lane] == alone.sweeps[0]

    def test_per_bus_override_applies_to_every_lane(self):
        netlist = booth_multiplier(LIBRARY, width=6)
        lanes = dvas_case(netlist, [6, 3], buses={"A": 2})
        for lane, bits in enumerate([6, 3]):
            _assert_lane_matches(
                lanes, lane, reference_dvas_case(netlist, bits, {"A": 2})
            )

    def test_fir_needs_many_sweeps(self):
        """The FIR's accumulator feedback is what makes the fixpoint
        long; the lanes must count its sweeps, not stop at the first."""
        netlist = OPERATORS["fir4x8"]()
        lanes = dvas_case(netlist, [2, 8])
        assert lanes.sweeps.min() > 3


class TestCaseLanesApi:
    def test_lanes_are_built_afresh(self):
        lanes = dvas_case(booth_multiplier(LIBRARY, width=4), [2, 4])
        first, again = lanes[0], lanes[0]
        assert first is not again
        np.testing.assert_array_equal(first.values, again.values)
        assert lanes[-1].forced == lanes[1].forced
        assert [case.sweeps for case in lanes] == list(lanes.sweeps)

    def test_out_of_range_lane(self):
        lanes = dvas_case(booth_multiplier(LIBRARY, width=4), [2])
        with pytest.raises(IndexError):
            lanes[1]
        with pytest.raises(IndexError):
            lanes[-2]

    def test_no_bitwidths(self):
        netlist = booth_multiplier(LIBRARY, width=4)
        lanes = dvas_case(netlist, [])
        assert len(lanes) == 0
        assert list(lanes) == []
        assert lanes.values.shape == (len(netlist.nets), 0)

    def test_negative_width_rejected(self):
        netlist = booth_multiplier(LIBRARY, width=4)
        with pytest.raises(ValueError, match="negative active width"):
            dvas_case(netlist, [4], buses={"A": -1})

    def test_non_convergence_raises_like_the_reference(self):
        """A toggling register needs two sweeps; one is not enough."""
        builder = NetlistBuilder("t", LIBRARY)
        builder.clock()
        netlist = builder.netlist
        q = netlist.add_net("q")
        d = builder.inv(q)
        netlist.add_cell(
            "ff", LIBRARY.template("DFF"), [d, netlist.clock_net], [q]
        )
        netlist.mark_output_bus("Q", [q])
        with pytest.raises(RuntimeError, match="did not converge"):
            reference_propagate(netlist, {}, max_sweeps=1)
        with pytest.raises(RuntimeError, match="did not converge"):
            propagate_constants(netlist, {}, max_sweeps=1)
        assert propagate_constants(netlist, {}, max_sweeps=2).sweeps == 2


# ---------------------------------------------------------------------------
# Case analysis on random sequential netlists
# ---------------------------------------------------------------------------


@st.composite
def _feedback_netlists(draw):
    """A random netlist with registered feedback and register chains.

    Register Q nets exist before the logic is drawn, so gates can read
    state; each register's D is drawn afterwards from everything,
    including other registers' Q (a shift chain, in either netlist
    order) and its own Q (a hold register).
    """
    builder = NetlistBuilder("lanes", LIBRARY)
    builder.clock()
    netlist = builder.netlist
    pool = list(builder.input_bus("A", draw(st.integers(1, 4))))
    if draw(st.booleans()):
        pool += builder.input_bus("B", draw(st.integers(1, 3)))
    for value in (False, True):
        if draw(st.booleans()):
            pool.append(builder.const(value))
    q_nets = [netlist.add_net(f"q{i}") for i in range(draw(st.integers(0, 4)))]
    pool += q_nets

    def pick():
        return pool[draw(st.integers(0, len(pool) - 1))]

    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(["u", "b", "t", "ha", "fa"]))
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
        else:
            pool.extend(builder.full_adder(pick(), pick(), pick()))
    for i, q in enumerate(q_nets):
        netlist.add_cell(
            f"ff{i}", LIBRARY.template("DFF"), [pick(), netlist.clock_net], [q]
        )
    netlist.mark_output_bus("Y", pool[-min(len(pool), 4):], signed=False)
    return netlist


@st.composite
def _netlist_and_forced_lanes(draw):
    netlist = draw(_feedback_netlists())
    forced = st.dictionaries(
        st.integers(0, len(netlist.nets) - 1), st.booleans(), max_size=6
    )
    return netlist, draw(st.lists(forced, min_size=1, max_size=4))


class TestRandomNetlistLanes:
    @settings(max_examples=120, deadline=None)
    @given(case=_netlist_and_forced_lanes())
    def test_lanes_match_reference(self, case):
        netlist, forced_lanes = case
        lanes = propagate_lanes(netlist, forced_lanes)
        for lane, forced in enumerate(forced_lanes):
            _assert_lane_matches(
                lanes, lane, reference_propagate(netlist, forced)
            )

    @settings(max_examples=60, deadline=None)
    @given(case=_netlist_and_forced_lanes())
    def test_arc_masks_match_reference(self, case):
        netlist, forced_lanes = case
        graph = compile_timing_graph(netlist)
        for lane in propagate_lanes(netlist, forced_lanes):
            np.testing.assert_array_equal(
                lane.active_arc_mask(graph), reference_arc_mask(lane, graph)
            )

    @settings(max_examples=40, deadline=None)
    @given(case=_netlist_and_forced_lanes())
    def test_forced_internal_nets_hold(self, case):
        """Forced nets read their forced value, even when a cell drives
        them, except the clock, which case analysis always leaves
        unknown."""
        netlist, forced_lanes = case
        lanes = propagate_lanes(netlist, forced_lanes)
        clock = netlist.clock_net.index
        for lane, forced in enumerate(forced_lanes):
            for net, value in forced.items():
                expected = 2 if net == clock else int(value)
                assert lanes.values[net, lane] == expected


# ---------------------------------------------------------------------------
# Activity lane groups
# ---------------------------------------------------------------------------


def _separately(netlist, bitwidths, **stimulus):
    reports = []
    for bits in bitwidths:
        clear_activity_cache()
        reports.extend(measure_activity(netlist, [bits], **stimulus))
    clear_activity_cache()
    return reports


class TestActivityLanes:
    @pytest.mark.parametrize("batch", [13, 64, 65])
    def test_lane_groups_equal_one_bitwidth_runs(self, operator, batch):
        bitwidths = [1, 4, 8, 3]
        stimulus = dict(cycles=9, batch=batch, seed=11)
        clear_activity_cache()
        together = measure_activity(operator, bitwidths, **stimulus)
        alone = _separately(operator, bitwidths, **stimulus)
        for bits, grouped, single in zip(bitwidths, together, alone):
            assert grouped.active_bits == single.active_bits == bits
            np.testing.assert_array_equal(grouped.rates, single.rates)

    def test_interpreted_fallback_equals_packed_lanes(self):
        netlist = OPERATORS["fir4x8"]()
        stimulus = dict(cycles=8, batch=13, seed=3)
        clear_activity_cache()
        with interpreted_engine():
            reference = measure_activity(netlist, [2, 8, 5], **stimulus)
        clear_activity_cache()
        result = measure_activity(netlist, [2, 8, 5], **stimulus)
        clear_activity_cache()
        for ref, got in zip(reference, result):
            assert got is not ref
            np.testing.assert_array_equal(got.rates, ref.rates)

    def test_cached_modes_are_not_resimulated(self):
        netlist = booth_multiplier(LIBRARY, width=4)
        clear_activity_cache()
        (first,) = measure_activity(netlist, [2], cycles=8, batch=8)
        again = measure_activity(netlist, [3, 2], cycles=8, batch=8)
        assert again[1] is first
        clear_activity_cache()


def _schedule(netlist, cycles, batch, rng):
    return [
        {
            name: random_words(rng, batch, bus.width, signed=True)
            for name, bus in netlist.input_buses.items()
        }
        for _ in range(cycles)
    ]


class TestToggleRatesGrouped:
    @settings(max_examples=30, deadline=None)
    @given(
        netlist=_feedback_netlists(),
        groups=st.integers(1, 3),
        batch=st.sampled_from([1, 13, 64, 70]),
        seed=st.integers(0, 2**16),
    )
    def test_groups_equal_single_runs(self, netlist, groups, batch, seed):
        rng = np.random.default_rng(seed)
        schedules = [_schedule(netlist, 6, batch, rng) for _ in range(groups)]
        simulator = LogicSimulator(netlist, SimulationMode.CYCLE)
        assert simulator.engine == "packed"
        grouped = simulator.toggle_rates_grouped(schedules, warmup_cycles=1)
        assert grouped.shape == (groups, len(netlist.nets))
        for rates, schedule in zip(grouped, schedules):
            np.testing.assert_array_equal(
                rates, simulator.toggle_rates(schedule, warmup_cycles=1)
            )

    def test_varying_bus_sets_take_the_per_cycle_path(self):
        """When a schedule drops a bus after the first cycle, nothing is
        prepacked; each group's inputs are applied cycle by cycle, and
        an absent bus holds its last value in every group alike."""
        netlist = booth_multiplier(LIBRARY, width=4)
        rng = np.random.default_rng(1)
        schedules = []
        for _ in range(3):
            schedule = _schedule(netlist, 6, 13, rng)
            for cycle in schedule[2:]:
                del cycle["B"]
            schedules.append(schedule)
        simulator = LogicSimulator(netlist, SimulationMode.CYCLE)
        grouped = simulator.toggle_rates_grouped(schedules, warmup_cycles=1)
        for rates, schedule in zip(grouped, schedules):
            np.testing.assert_array_equal(
                rates, simulator.toggle_rates(schedule, warmup_cycles=1)
            )

    def test_ragged_groups_rejected(self):
        netlist = booth_multiplier(LIBRARY, width=4)
        rng = np.random.default_rng(0)
        simulator = LogicSimulator(netlist, SimulationMode.CYCLE)
        with pytest.raises(ValueError, match="one batch"):
            simulator.toggle_rates_grouped(
                [_schedule(netlist, 4, 8, rng), _schedule(netlist, 4, 9, rng)]
            )
        with pytest.raises(ValueError, match="cycle count"):
            simulator.toggle_rates_grouped(
                [_schedule(netlist, 4, 8, rng), _schedule(netlist, 5, 8, rng)]
            )
