"""End-to-end checks of the paper's qualitative claims on a small design.

These tests exercise the whole stack (generate -> place -> size -> domains
-> explore) and assert the *shape* of the paper's findings; the benchmarks
reproduce the full-size numbers.
"""

import numpy as np
import pytest

from repro.core.config import ExplorationSettings
from repro.core.dvas import dvas_explore
from repro.core.exploration import ExhaustiveExplorer
from repro.core.flow import implement_with_domains
from repro.pnr.grid import GridPartition, area_overhead
from repro.sta.caseanalysis import dvas_case
from repro.sta.engine import StaEngine
from repro.sta.histogram import slack_histogram

SETTINGS = ExplorationSettings(
    bitwidths=(2, 4, 6, 8),
    activity_cycles=12,
    activity_batch=12,
)


class TestWallOfSlack:
    """Fig. 1: endpoint slack piles up near zero; scaling VDD floods the
    histogram with violations."""

    def test_histogram_shifts_into_violation_at_low_vdd(
        self, booth8_base, library
    ):
        design = booth8_base
        engine = StaEngine(design.timing_graph(), library)
        fbb = np.ones(len(design.netlist.cells), bool)
        nominal = slack_histogram(
            engine.analyze(design.constraint, 1.0, fbb)
        )
        scaled = slack_histogram(
            engine.analyze(design.constraint, 0.8, fbb)
        )
        assert nominal.violating == 0
        # On the small test design many endpoints are trivial (input regs,
        # port captures), so the violating fraction is diluted vs Fig. 1b.
        assert scaled.violating_fraction > 0.15

    def test_gating_restores_timing_compliance(self, booth8_base, library):
        """Fig. 2 / Section II-B: reducing the dynamic deactivates enough
        paths to restore compliance at a reduced supply."""
        design = booth8_base
        engine = StaEngine(design.timing_graph(), library)
        fbb = np.ones(len(design.netlist.cells), bool)
        full = engine.analyze(design.constraint, 0.9, fbb)
        gated = engine.analyze(
            design.constraint, 0.9, fbb,
            case=dvas_case(design.netlist, [2])[0],
        )
        assert gated.worst_slack_ps > full.worst_slack_ps


class TestSelectiveBoosting:
    """Section III: the added Vth knob lets only critical regions burn
    boosted leakage."""

    def test_partial_boost_feasible_at_reduced_accuracy(
        self, booth8_domained
    ):
        result = ExhaustiveExplorer(booth8_domained).run(SETTINGS)
        low_acc = result.best_per_bitwidth[2]
        high_acc = result.best_per_bitwidth[8]
        assert low_acc.num_boosted_domains < high_acc.num_boosted_domains

    def test_leakage_scales_with_boosted_domains(self, booth8_domained):
        result = ExhaustiveExplorer(booth8_domained).run(SETTINGS)
        points = sorted(
            result.best_per_bitwidth.values(),
            key=lambda p: p.num_boosted_domains,
        )
        same_vdd = {}
        for p in points:
            same_vdd.setdefault(p.vdd, []).append(p)
        for group in same_vdd.values():
            if len(group) >= 2:
                leaks = [p.leakage_power_w for p in group]
                boosts = [p.num_boosted_domains for p in group]
                # Within one supply, fewer boosted domains -> less leakage.
                order = np.argsort(boosts)
                assert np.all(np.diff(np.asarray(leaks)[order]) >= -1e-12)


class TestAreaOverheadClaims:
    """Fig. 6b / Table I: overhead grows with domain count; the paper's
    configurations land around 15-17% (2x2) and ~30% (3x3)."""

    def test_monotone_in_domain_count(self, booth8_base):
        plan = booth8_base.placement.floorplan
        grids = [(1, 2), (2, 1), (1, 3), (3, 1), (2, 2), (3, 3)]
        overheads = {
            g: area_overhead(plan, GridPartition(*g)) for g in grids
        }
        assert overheads[(2, 2)] > overheads[(1, 2)]
        assert overheads[(3, 3)] > overheads[(2, 2)]

    def test_structure_matters_less_than_count(self, booth8_base):
        plan = booth8_base.placement.floorplan
        o_12 = area_overhead(plan, GridPartition(1, 2))
        o_21 = area_overhead(plan, GridPartition(2, 1))
        assert abs(o_12 - o_21) < 0.1


class TestExplorationCostClaims:
    """Section III-C: the exploration is O(2^NMAX * B * NVDD) and mostly
    filtered by STA."""

    def test_point_count_formula(self, booth8_domained):
        result = ExhaustiveExplorer(booth8_domained).run(SETTINGS)
        expected = (
            (1 << booth8_domained.num_domains)
            * len(SETTINGS.bitwidths)
            * len(SETTINGS.vdd_values)
        )
        assert result.points_evaluated == expected

    def test_runtime_is_interactive(self, booth8_domained):
        result = ExhaustiveExplorer(booth8_domained).run(SETTINGS)
        assert result.runtime_s < 60.0


class TestMethodComparison:
    def test_proposed_covers_dvas_nobb_accuracy_range(
        self, booth8_base, booth8_domained
    ):
        """Wherever DVAS (NoBB) is feasible, the proposed method also has a
        feasible point.  It may cost somewhat more there: the paper itself
        notes DVAS can be "(marginally) better ... at very small
        bitwidths" because of the guardband/incremental-placement
        overheads of the domained die."""
        nobb = dvas_explore(booth8_base, fbb=False, settings=SETTINGS)
        proposed = ExhaustiveExplorer(booth8_domained).run(SETTINGS)
        for bits, point in nobb.best_per_bitwidth.items():
            assert bits in proposed.best_per_bitwidth
            ours = proposed.best_per_bitwidth[bits]
            assert ours.total_power_w < point.total_power_w * 2.0
