"""Case analysis: constant propagation, sequential fixpoint, sensitization."""

import numpy as np
import pytest

from repro.netlist.builder import NetlistBuilder
from repro.operators import booth_multiplier, fir_filter, FirParameters
from repro.sta.caseanalysis import (
    UNKNOWN,
    ZERO,
    ONE,
    dvas_case,
    propagate_constants,
)
from repro.sta.graph import compile_timing_graph
from repro.techlib.library import Library

LIBRARY = Library()


class TestCombinationalPropagation:
    def test_and_with_zero_is_zero(self):
        builder = NetlistBuilder("t", LIBRARY)
        a = builder.input_bus("A", 2)
        y = builder.and2(a[0], a[1])
        builder.output_bus("Y", [y])
        case = propagate_constants(builder.netlist, {a[0].index: False})
        assert case.values[y.index] == ZERO

    def test_or_with_zero_stays_unknown(self):
        builder = NetlistBuilder("t", LIBRARY)
        a = builder.input_bus("A", 2)
        y = builder.or2(a[0], a[1])
        builder.output_bus("Y", [y])
        case = propagate_constants(builder.netlist, {a[0].index: False})
        assert case.values[y.index] == UNKNOWN

    def test_or_with_one_is_one(self):
        builder = NetlistBuilder("t", LIBRARY)
        a = builder.input_bus("A", 2)
        y = builder.or2(a[0], a[1])
        builder.output_bus("Y", [y])
        case = propagate_constants(builder.netlist, {a[0].index: True})
        assert case.values[y.index] == ONE

    def test_tie_cells_are_constant(self):
        builder = NetlistBuilder("t", LIBRARY)
        a = builder.input_bus("A", 1)
        zero = builder.const(False)
        one = builder.const(True)
        y = builder.and2(a[0], one)
        builder.output_bus("Y", [y])
        case = propagate_constants(builder.netlist, {})
        assert case.values[zero.index] == ZERO
        assert case.values[one.index] == ONE
        assert case.values[y.index] == UNKNOWN

    def test_xor_cancellation_not_assumed(self):
        """x XOR x is always 0, but 3-valued analysis cannot see it."""
        builder = NetlistBuilder("t", LIBRARY)
        a = builder.input_bus("A", 1)
        y = builder.xor2(a[0], a[0])
        builder.output_bus("Y", [y])
        case = propagate_constants(builder.netlist, {})
        assert case.values[y.index] == UNKNOWN  # pessimistic but sound


class TestSequentialFixpoint:
    def test_constant_d_keeps_reset_value(self):
        builder = NetlistBuilder("t", LIBRARY)
        a = builder.input_bus("A", 1)
        builder.clock()
        zero = builder.const(False)
        q = builder.dff(builder.and2(a[0], zero))
        builder.output_bus("Q", [q])
        case = propagate_constants(builder.netlist, {})
        assert case.values[q.index] == ZERO

    def test_toggling_flop_goes_unknown(self):
        builder = NetlistBuilder("t", LIBRARY)
        builder.clock()
        netlist = builder.netlist
        q = netlist.add_net("q")
        d = builder.inv(q)
        netlist.add_cell("ff", LIBRARY.template("DFF"), [d, netlist.clock_net], [q])
        netlist.mark_output_bus("Q", [q])
        case = propagate_constants(netlist, {})
        assert case.values[q.index] == UNKNOWN

    def test_fir_delay_line_deactivates_under_gating(self):
        """The headline sequential case: gated sample LSBs stay constant
        through the whole delay line, accumulator and beyond."""
        params = FirParameters(taps=4, width=8)
        netlist = fir_filter(LIBRARY, params)
        case = dvas_case(netlist, [4])[0]
        # Every delay-line register of a gated bit must be constant zero.
        constant_regs = 0
        for cell in netlist.sequential_cells:
            if cell.name.startswith("dl") and "_reg" in cell.name:
                if case.values[cell.output_nets[0].index] == ZERO:
                    constant_regs += 1
        assert constant_regs >= params.taps * 4  # 4 gated bits per stage

    def test_counter_stays_active(self):
        params = FirParameters(taps=4, width=8)
        netlist = fir_filter(LIBRARY, params)
        case = dvas_case(netlist, [2])[0]
        tap_bus = netlist.output_buses["TAP"]
        for net in tap_bus.nets:
            assert case.values[net.index] == UNKNOWN


class TestDvasCase:
    def test_forces_low_bits_of_every_bus(self):
        netlist = booth_multiplier(LIBRARY, width=8)
        case = dvas_case(netlist, [3])[0]
        for bus in netlist.input_buses.values():
            for net in bus.nets[:5]:
                assert case.values[net.index] == ZERO
            for net in bus.nets[5:]:
                assert case.values[net.index] == UNKNOWN

    def test_product_lsbs_become_constant(self):
        netlist = booth_multiplier(LIBRARY, width=8, registered=False)
        case = dvas_case(netlist, [4])[0]
        product = netlist.output_buses["P"]
        # Structurally provable zeros: the bottom 4 product bits (multiples
        # of the gated multiplicand LSBs).  Bits 4..7 are also zero
        # *arithmetically* (the product is a multiple of 2^8), but the
        # proof needs same-signal cancellation (neg XOR neg), which
        # three-valued case analysis -- like PrimeTime's -- soundly
        # over-approximates as unknown.
        for net in product.nets[:4]:
            assert case.values[net.index] == ZERO
        assert case.values[product.nets[10].index] == UNKNOWN

    def test_constant_fraction_monotone_in_gating(self):
        netlist = booth_multiplier(LIBRARY, width=8)
        fractions = [
            dvas_case(netlist, [bits])[0].constant_fraction()
            for bits in (8, 6, 4, 2)
        ]
        assert fractions == sorted(fractions)

    def test_per_bus_override(self):
        netlist = booth_multiplier(LIBRARY, width=8)
        case = dvas_case(netlist, [8], buses={"A": 2})[0]
        a = netlist.input_buses["A"]
        b = netlist.input_buses["B"]
        assert case.values[a.nets[0].index] == ZERO
        assert case.values[b.nets[0].index] == UNKNOWN


class TestSensitization:
    def test_mux_select_constant_blocks_unselected_input(self):
        builder = NetlistBuilder("t", LIBRARY)
        a = builder.input_bus("A", 3)  # a[2] is the select
        y = builder.mux2(a[0], a[1], a[2])
        builder.output_bus("Y", [y])
        netlist = builder.netlist
        case = propagate_constants(netlist, {a[2].index: False})
        graph = compile_timing_graph(netlist)
        mask = case.active_arc_mask(graph)
        # Arc order within the MUX cell: inputs (A, B, S) -> output Y.
        mux_arcs = [
            i for i in range(len(graph.arc_from))
            if netlist.cells[graph.arc_cell[i]].template.name == "MUX2"
        ]
        arc_a, arc_b, arc_s = mux_arcs
        assert mask[arc_a]          # selected input propagates
        assert not mask[arc_b]      # unselected input is blocked
        assert not mask[arc_s]      # constant select has no arc

    def test_and_side_zero_blocks_other_input(self):
        builder = NetlistBuilder("t", LIBRARY)
        a = builder.input_bus("A", 2)
        y = builder.and2(a[0], a[1])
        builder.output_bus("Y", [y])
        netlist = builder.netlist
        case = propagate_constants(netlist, {a[1].index: False})
        graph = compile_timing_graph(netlist)
        mask = case.active_arc_mask(graph)
        assert not mask.any()  # output is constant: nothing propagates

    def test_full_accuracy_blocks_only_tie_fed_arcs(self):
        """At full bitwidth nothing is gated, so the only inactive arcs
        belong to cells with a structurally constant (tie) side input."""
        netlist = booth_multiplier(LIBRARY, width=4)
        case = dvas_case(netlist, [4])[0]
        graph = compile_timing_graph(netlist)
        mask = case.active_arc_mask(graph)
        assert mask.mean() > 0.9
        for ordinal in np.nonzero(~mask)[0]:
            cell = netlist.cells[graph.arc_cell[ordinal]]
            codes = [case.values[n.index] for n in cell.input_nets]
            assert any(code != UNKNOWN for code in codes)
