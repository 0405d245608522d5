"""Hold analysis and path reporting."""

import numpy as np
import pytest

from repro.netlist.builder import NetlistBuilder
from repro.operators import booth_multiplier
from repro.sta.caseanalysis import dvas_case
from repro.sta.constraints import ClockConstraint
from repro.sta.engine import StaEngine
from repro.sta.graph import compile_timing_graph
from repro.sta.hold import HoldAnalyzer
from repro.sta.report_timing import extract_path, report_timing
from repro.techlib.library import Library

LIBRARY = Library()


def _shift_register(stages, through_gate=True):
    """A shift register; with *through_gate* each hop has one buffer."""
    builder = NetlistBuilder("shift", LIBRARY)
    a = builder.input_bus("A", 1)
    builder.clock()
    net = a[0]
    for i in range(stages):
        q = builder.dff(net, name=f"stage{i}")
        net = builder.buf(q) if through_gate else q
    builder.output_bus("Q", [net])
    return builder.build()


class TestHold:
    def test_booth_meets_hold_at_fast_corner(self, booth8_base):
        graph = booth8_base.timing_graph()
        analyzer = HoldAnalyzer(graph, LIBRARY)
        report = analyzer.analyze(
            1.0, np.ones(graph.num_cells, bool)
        )
        assert report.feasible
        assert report.violations() == []

    def test_direct_q_to_d_violates_hold(self):
        netlist = _shift_register(3, through_gate=False)
        graph = compile_timing_graph(netlist)
        analyzer = HoldAnalyzer(graph, LIBRARY)
        report = analyzer.analyze(1.0, np.ones(graph.num_cells, bool))
        # clk-to-q (35 ps) exceeds hold (8 ps), so even direct hops pass.
        assert report.feasible

    def test_min_arrival_below_max_arrival(self):
        netlist = booth_multiplier(LIBRARY, width=6)
        graph = compile_timing_graph(netlist)
        fbb = np.ones(graph.num_cells, bool)
        hold = HoldAnalyzer(graph, LIBRARY).analyze(1.0, fbb)
        setup = StaEngine(graph, LIBRARY).analyze(
            ClockConstraint(1e6), 1.0, fbb
        )
        live = (hold.min_arrival_ps < 1e29) & (setup.arrival_ps > -1e29)
        assert np.all(
            hold.min_arrival_ps[live] <= setup.arrival_ps[live] + 1e-6
        )

    def test_boost_shrinks_min_arrival(self):
        netlist = booth_multiplier(LIBRARY, width=6)
        graph = compile_timing_graph(netlist)
        analyzer = HoldAnalyzer(graph, LIBRARY)
        fast = analyzer.analyze(1.0, np.ones(graph.num_cells, bool))
        slow = analyzer.analyze(1.0, np.zeros(graph.num_cells, bool))
        live = (fast.min_arrival_ps < 1e29) & (slow.min_arrival_ps < 1e29)
        assert np.all(
            fast.min_arrival_ps[live] <= slow.min_arrival_ps[live] + 1e-6
        )

    def test_case_analysis_deactivates_endpoints(self):
        netlist = booth_multiplier(LIBRARY, width=6)
        graph = compile_timing_graph(netlist)
        analyzer = HoldAnalyzer(graph, LIBRARY)
        case = dvas_case(netlist, [2])[0]
        gated = analyzer.analyze(1.0, np.ones(graph.num_cells, bool), case=case)
        full = analyzer.analyze(1.0, np.ones(graph.num_cells, bool))
        assert gated.endpoint_active.sum() < full.endpoint_active.sum()


class TestReportTiming:
    @pytest.fixture(scope="class")
    def engine(self):
        netlist = booth_multiplier(LIBRARY, width=8)
        graph = compile_timing_graph(netlist)
        return StaEngine(graph, LIBRARY)

    def test_worst_path_arrival_matches_report(self, engine):
        fbb = np.ones(engine.graph.num_cells, bool)
        constraint = ClockConstraint(1000.0)
        paths = report_timing(engine, constraint, 1.0, fbb)
        assert len(paths) == 1
        path = paths[0]
        report = engine.analyze(constraint, 1.0, fbb, compute_required=False)
        worst_arrival = report.arrival_ps[
            engine.graph.endpoint_nets[report.endpoint_active]
        ].max()
        assert path.arrival_ps == pytest.approx(worst_arrival, abs=0.5)

    def test_incrementals_sum_to_arrival(self, engine):
        fbb = np.ones(engine.graph.num_cells, bool)
        path = report_timing(engine, ClockConstraint(1000.0), 1.0, fbb)[0]
        total = path.stages[0].arrival_ps + sum(
            s.incremental_ps for s in path.stages[1:]
        )
        assert total == pytest.approx(path.arrival_ps, abs=0.5)

    def test_slack_sign_matches_constraint(self, engine):
        fbb = np.ones(engine.graph.num_cells, bool)
        tight = report_timing(engine, ClockConstraint(200.0), 1.0, fbb)[0]
        loose = report_timing(engine, ClockConstraint(5000.0), 1.0, fbb)[0]
        assert tight.slack_ps < 0.0
        assert loose.slack_ps > 0.0
        assert "VIOLATED" in tight.format_text()
        assert "MET" in loose.format_text()

    def test_multiple_paths_ordered_by_slack(self, engine):
        fbb = np.ones(engine.graph.num_cells, bool)
        paths = report_timing(
            engine, ClockConstraint(1000.0), 1.0, fbb, max_paths=5
        )
        slacks = [p.slack_ps for p in paths]
        assert slacks == sorted(slacks)

    def test_gated_paths_avoid_constant_logic(self, engine):
        netlist = engine.graph.netlist
        fbb = np.ones(engine.graph.num_cells, bool)
        case = dvas_case(netlist, [3])[0]
        path = report_timing(
            engine, ClockConstraint(1000.0), 1.0, fbb, case=case
        )[0]
        for stage in path.stages:
            net = netlist.net(stage.net_name)
            assert case.values[net.index] == 2  # UNKNOWN: still active

    def test_fully_gated_design_has_no_paths(self, engine):
        netlist = engine.graph.netlist
        fbb = np.ones(engine.graph.num_cells, bool)
        case = dvas_case(netlist, [0])[0]
        paths = report_timing(
            engine, ClockConstraint(1000.0), 1.0, fbb, case=case
        )
        # Only the always-active register clocking remains, if anything.
        for path in paths:
            assert path.depth >= 0  # no crash; may be empty list
