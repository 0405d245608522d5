"""STA engine: hand-checkable netlists, corners, case analysis, reports."""

import numpy as np
import pytest

from repro.netlist.builder import NetlistBuilder
from repro.operators import booth_multiplier
from repro.sta.caseanalysis import dvas_case
from repro.sta.constraints import ClockConstraint
from repro.sta.engine import StaEngine
from repro.sta.graph import compile_timing_graph
from repro.sta.histogram import slack_histogram
from repro.techlib.library import Library

LIBRARY = Library()


def _inverter_chain(length, width_bus=1):
    builder = NetlistBuilder(f"chain{length}", LIBRARY)
    a = builder.input_bus("A", 1)
    builder.clock()
    net = builder.register_word(a)[0]
    for _ in range(length):
        net = builder.inv(net)
    builder.output_bus("Y", builder.register_word([net]))
    return builder.build()


class TestArrivalPropagation:
    def test_chain_delay_is_sum_of_stages(self):
        netlist = _inverter_chain(4)
        graph = compile_timing_graph(netlist)
        engine = StaEngine(graph, LIBRARY)
        fbb = np.ones(graph.num_cells, bool)
        delay = engine.critical_path_delay(1.0, fbb)
        # clk-to-q + 4 inverters + the output flop's D load; all at the
        # reference corner, so reconstruct from the library data.
        dff = LIBRARY.template("DFF")
        inv = LIBRARY.template("INV").drives["X1"]
        stage_load = inv.input_cap_ff
        expected = (
            dff.clk_to_q_ps
            + 3 * (inv.intrinsic_delay_ps + inv.load_coeff_ps_per_ff * stage_load)
            + (inv.intrinsic_delay_ps
               + inv.load_coeff_ps_per_ff * dff.drives["X1"].input_cap_ff)
        )
        assert delay == pytest.approx(expected, rel=1e-6)

    def test_longer_chain_is_slower(self):
        short = _inverter_chain(3)
        long = _inverter_chain(9)
        d_short = StaEngine(
            compile_timing_graph(short), LIBRARY
        ).critical_path_delay(1.0, np.ones(len(short.cells), bool))
        d_long = StaEngine(
            compile_timing_graph(long), LIBRARY
        ).critical_path_delay(1.0, np.ones(len(long.cells), bool))
        assert d_long > d_short

    def test_corner_scaling(self):
        netlist = _inverter_chain(6)
        graph = compile_timing_graph(netlist)
        engine = StaEngine(graph, LIBRARY)
        fbb = np.ones(graph.num_cells, bool)
        nobb = np.zeros(graph.num_cells, bool)
        d_ref = engine.critical_path_delay(1.0, fbb)
        d_slow = engine.critical_path_delay(0.8, nobb)
        expected_ratio = LIBRARY.delay_factor(LIBRARY.nobb_corner(0.8))
        assert d_slow / d_ref == pytest.approx(expected_ratio, rel=1e-6)

    def test_mixed_vth_between_pure_corners(self):
        netlist = _inverter_chain(8)
        graph = compile_timing_graph(netlist)
        engine = StaEngine(graph, LIBRARY)
        fbb = np.ones(graph.num_cells, bool)
        nobb = np.zeros(graph.num_cells, bool)
        half = np.arange(graph.num_cells) % 2 == 0
        d_fbb = engine.critical_path_delay(1.0, fbb)
        d_half = engine.critical_path_delay(1.0, half)
        d_nobb = engine.critical_path_delay(1.0, nobb)
        assert d_fbb < d_half < d_nobb


class TestSlackAndFeasibility:
    def test_feasible_iff_period_exceeds_delay(self):
        netlist = _inverter_chain(5)
        graph = compile_timing_graph(netlist)
        engine = StaEngine(graph, LIBRARY)
        fbb = np.ones(graph.num_cells, bool)
        delay = engine.critical_path_delay(1.0, fbb)
        setup = LIBRARY.template("DFF").setup_ps
        ok = engine.analyze(ClockConstraint(delay + setup + 1.0), 1.0, fbb)
        bad = engine.analyze(ClockConstraint(delay + setup - 1.0), 1.0, fbb)
        assert ok.feasible
        assert not bad.feasible

    def test_required_times_consistent_with_slack(self):
        netlist = booth_multiplier(LIBRARY, width=6)
        graph = compile_timing_graph(netlist)
        engine = StaEngine(graph, LIBRARY)
        fbb = np.ones(graph.num_cells, bool)
        report = engine.analyze(ClockConstraint(2000.0), 1.0, fbb)
        net_slack = report.net_slack_ps()
        live = (report.arrival_ps > -1e29) & (report.required_ps < 1e29)
        # On live nets, slack = required - arrival must also be what the
        # endpoint slacks bound from below.
        assert net_slack[live].min() == pytest.approx(
            report.worst_slack_ps, abs=1e-6
        )

    def test_clock_uncertainty_tightens(self):
        netlist = _inverter_chain(5)
        graph = compile_timing_graph(netlist)
        engine = StaEngine(graph, LIBRARY)
        fbb = np.ones(graph.num_cells, bool)
        loose = engine.analyze(ClockConstraint(500.0), 1.0, fbb)
        tight = engine.analyze(
            ClockConstraint(500.0, uncertainty_ps=50.0), 1.0, fbb
        )
        assert tight.worst_slack_ps == pytest.approx(
            loose.worst_slack_ps - 50.0
        )


class TestCaseAnalysisIntegration:
    def test_gating_never_slows_the_design(self):
        netlist = booth_multiplier(LIBRARY, width=8)
        graph = compile_timing_graph(netlist)
        engine = StaEngine(graph, LIBRARY)
        fbb = np.ones(graph.num_cells, bool)
        delays = [
            engine.critical_path_delay(
                1.0, fbb, case=dvas_case(netlist, [bits])[0]
            )
            for bits in (8, 6, 4, 2, 1)
        ]
        assert all(b <= a + 1e-9 for a, b in zip(delays, delays[1:]))

    def test_path_class_counts(self):
        netlist = booth_multiplier(LIBRARY, width=8)
        graph = compile_timing_graph(netlist)
        engine = StaEngine(graph, LIBRARY)
        fbb = np.ones(graph.num_cells, bool)
        case = dvas_case(netlist, [4])[0]
        full_delay = engine.critical_path_delay(1.0, fbb)
        report = engine.analyze(
            ClockConstraint(full_delay * 0.8), 1.0, fbb, case=case
        )
        counts = report.path_class_counts()
        assert counts["disabled"] > 0
        assert counts["positive_slack"] > 0
        total = sum(counts.values())
        assert total == len(graph.endpoint_nets)


class TestHistogram:
    def test_histogram_totals(self):
        netlist = booth_multiplier(LIBRARY, width=8)
        graph = compile_timing_graph(netlist)
        engine = StaEngine(graph, LIBRARY)
        fbb = np.ones(graph.num_cells, bool)
        report = engine.analyze(ClockConstraint(900.0), 1.0, fbb)
        hist = slack_histogram(report, num_bins=16)
        assert hist.counts.sum() == hist.total
        assert hist.total == int(np.count_nonzero(report.endpoint_active))

    def test_violations_detected_at_low_vdd(self):
        netlist = booth_multiplier(LIBRARY, width=8)
        graph = compile_timing_graph(netlist)
        engine = StaEngine(graph, LIBRARY)
        fbb = np.ones(graph.num_cells, bool)
        delay = engine.critical_path_delay(1.0, fbb)
        constraint = ClockConstraint(delay * 1.05)
        at_nominal = slack_histogram(engine.analyze(constraint, 1.0, fbb))
        scaled = slack_histogram(engine.analyze(constraint, 0.8, fbb))
        assert at_nominal.violating == 0
        assert scaled.violating > 0
        assert scaled.violating_fraction > at_nominal.violating_fraction

    def test_format_text_marks_violations(self):
        netlist = booth_multiplier(LIBRARY, width=8)
        graph = compile_timing_graph(netlist)
        engine = StaEngine(graph, LIBRARY)
        fbb = np.ones(graph.num_cells, bool)
        delay = engine.critical_path_delay(1.0, fbb)
        report = engine.analyze(ClockConstraint(delay * 0.9), 1.0, fbb)
        text = slack_histogram(report).format_text()
        assert "#" in text  # violating bins
        assert "violating endpoints:" in text

    def test_empty_histogram(self):
        netlist = booth_multiplier(LIBRARY, width=4)
        graph = compile_timing_graph(netlist)
        engine = StaEngine(graph, LIBRARY)
        fbb = np.ones(graph.num_cells, bool)
        case = dvas_case(netlist, [0])[0]  # everything gated
        report = engine.analyze(ClockConstraint(1000.0), 1.0, fbb, case=case)
        hist = slack_histogram(report)
        assert hist.total == 0
        assert hist.violating_fraction == 0.0
