"""Leakage and dynamic power models."""

import numpy as np
import pytest

from repro.operators import booth_multiplier
from repro.pnr.grid import GridPartition, insert_domains
from repro.pnr.parasitics import extract_parasitics
from repro.pnr.placer import GlobalPlacer
from repro.power.analysis import PowerAnalyzer, PowerReport
from repro.power.dynamic import DynamicPowerModel, switched_capacitance
from repro.power.leakage import LeakageModel
from repro.sim.activity import measure_activity
from repro.sta.lattice import all_bb_configs
from repro.techlib.library import Library

LIBRARY = Library()


@pytest.fixture(scope="module")
def booth6():
    return booth_multiplier(LIBRARY, width=6)


@pytest.fixture(scope="module")
def booth6_activity(booth6):
    return measure_activity(booth6, [6], cycles=16, batch=16)[0]


class TestLeakage:
    def test_fbb_multiplies_leakage(self, booth6):
        model = LeakageModel(booth6)
        n = len(booth6.cells)
        nobb = model.total(1.0, np.zeros(n, bool))
        fbb = model.total(1.0, np.ones(n, bool))
        expected = LIBRARY.leakage_factor(LIBRARY.fbb_corner(1.0))
        assert fbb / nobb == pytest.approx(expected)

    def test_batch_matches_per_config(self, booth6):
        model = LeakageModel(booth6)
        rng = np.random.default_rng(0)
        domains = rng.integers(0, 4, len(booth6.cells))
        configs = all_bb_configs(4)
        batch = model.total_batch(0.9, domains, configs)
        for k, config in enumerate(configs):
            single = model.total(0.9, config[domains])
            assert batch[k] == pytest.approx(single)

    def test_refresh_tracks_resizing(self, booth6):
        model = LeakageModel(booth6)
        n = len(booth6.cells)
        before = model.total(1.0, np.zeros(n, bool))
        target = booth6.combinational_cells[0]
        old_drive = target.drive_name
        target.set_drive("X4")
        try:
            assert model.total(1.0, np.zeros(n, bool)) == before  # stale
            model.refresh()
            assert model.total(1.0, np.zeros(n, bool)) > before
        finally:
            target.set_drive(old_drive)

    def test_leakage_scales_down_with_vdd(self, booth6):
        model = LeakageModel(booth6)
        n = len(booth6.cells)
        fbb = np.ones(n, bool)
        assert model.total(0.6, fbb) < model.total(1.0, fbb)


class TestDynamic:
    def test_formula(self, booth6, booth6_activity):
        model = DynamicPowerModel(booth6)
        power = model.total(booth6_activity, 1.0, 1.0)
        manual = 0.5 * float(
            (booth6_activity.rates * model.switched_cap_ff).sum()
        ) * 1e-15 * 1e9
        assert power == pytest.approx(manual)

    def test_quadratic_in_vdd(self, booth6, booth6_activity):
        model = DynamicPowerModel(booth6)
        p_10 = model.total(booth6_activity, 1.0, 1.0)
        p_08 = model.total(booth6_activity, 0.8, 1.0)
        assert p_08 / p_10 == pytest.approx(0.64)

    def test_linear_in_frequency(self, booth6, booth6_activity):
        model = DynamicPowerModel(booth6)
        assert model.total(booth6_activity, 1.0, 2.0) == pytest.approx(
            2.0 * model.total(booth6_activity, 1.0, 1.0)
        )

    def test_wire_cap_adds_power(self, booth6, booth6_activity):
        placement = GlobalPlacer(booth6, seed=1).run()
        parasitics = extract_parasitics(placement)
        bare = DynamicPowerModel(booth6)
        wired = DynamicPowerModel(booth6, parasitics)
        assert wired.total(booth6_activity, 1.0, 1.0) > bare.total(
            booth6_activity, 1.0, 1.0
        )

    def test_activity_netlist_mismatch_rejected(self, booth6_activity):
        other = booth_multiplier(LIBRARY, width=4, name="other4")
        model = DynamicPowerModel(other)
        with pytest.raises(ValueError, match="does not match"):
            model.total(booth6_activity, 1.0, 1.0)

    def test_bad_frequency_rejected(self, booth6, booth6_activity):
        model = DynamicPowerModel(booth6)
        with pytest.raises(ValueError, match="frequency"):
            model.total(booth6_activity, 1.0, 0.0)

    def test_switched_cap_includes_driver_and_sinks(self, booth6):
        caps = switched_capacitance(booth6)
        assert np.all(caps[1:] >= 0.0)
        # A net with fanout should carry at least its sinks' input caps.
        net = max(booth6.nets, key=lambda n: n.fanout)
        floor = sum(p.cell.drive.input_cap_ff for p in net.sinks)
        assert caps[net.index] >= floor


class TestAnalyzer:
    def test_report_composition(self, booth6, booth6_activity):
        analyzer = PowerAnalyzer(booth6)
        n = len(booth6.cells)
        report = analyzer.report(booth6_activity, 1.0, 1.0, np.ones(n, bool))
        assert report.total_w == pytest.approx(
            report.dynamic_w + report.leakage_w
        )
        assert 0.0 < report.leakage_fraction < 1.0
        assert "mW" in str(report)

    def test_gating_cuts_dynamic_not_leakage(self, booth6, booth6_activity):
        analyzer = PowerAnalyzer(booth6)
        n = len(booth6.cells)
        (gated_activity,) = measure_activity(booth6, [2], cycles=16, batch=16)
        full = analyzer.report(booth6_activity, 1.0, 1.0, np.ones(n, bool))
        gated = analyzer.report(gated_activity, 1.0, 1.0, np.ones(n, bool))
        assert gated.dynamic_w < full.dynamic_w
        assert gated.leakage_w == pytest.approx(full.leakage_w)

    def test_total_batch_matches_report(self, booth6, booth6_activity):
        placement = GlobalPlacer(booth6, seed=4).run()
        insertion = insert_domains(placement, GridPartition(2, 2))
        analyzer = PowerAnalyzer(booth6)
        configs = all_bb_configs(4)
        batch = analyzer.total_batch(
            booth6_activity, 0.9, 1.0, insertion.domains, configs
        )
        for k in (0, 7, 15):
            fbb_cells = configs[k][insertion.domains]
            report = analyzer.report(booth6_activity, 0.9, 1.0, fbb_cells)
            assert batch[k] == pytest.approx(report.total_w)
