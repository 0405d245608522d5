"""Alternative partitioning (the future-work ablation helpers)."""

import numpy as np
import pytest

from repro.core.exploration import ExhaustiveExplorer
from repro.core.config import ExplorationSettings
from repro.pnr.partition import slack_oracle_domains, with_custom_domains
from repro.sta.caseanalysis import dvas_case
from repro.sta.engine import StaEngine


class TestSlackOracle:
    def test_covers_all_cells_and_domains(self, booth8_domained):
        domains = slack_oracle_domains(booth8_domained, 6, 4)
        assert domains.shape == (len(booth8_domained.netlist.cells),)
        assert set(np.unique(domains)) == {0, 1, 2, 3}

    def test_domain_zero_is_most_critical(self, booth8_domained, library):
        design = booth8_domained
        domains = slack_oracle_domains(design, 6, 4)
        graph = design.timing_graph()
        engine = StaEngine(graph, library)
        report = engine.analyze(
            design.constraint, 1.0,
            np.ones(graph.num_cells, bool),
            case=dvas_case(design.netlist, [6])[0],
        )
        slack = report.cell_slack_ps()
        mean_first = slack[domains == 0].mean()
        mean_last = slack[domains == 3].mean()
        assert mean_first < mean_last

    def test_single_domain(self, booth8_domained):
        domains = slack_oracle_domains(booth8_domained, 8, 1)
        assert set(np.unique(domains)) == {0}

    def test_invalid_count_rejected(self, booth8_domained):
        with pytest.raises(ValueError):
            slack_oracle_domains(booth8_domained, 8, 0)


class TestCustomDomains:
    def test_view_preserves_everything_but_domains(self, booth8_domained):
        domains = slack_oracle_domains(booth8_domained, 6, 4)
        view = with_custom_domains(booth8_domained, domains, 4)
        assert view.netlist is booth8_domained.netlist
        assert view.constraint is booth8_domained.constraint
        assert view.area_overhead == booth8_domained.area_overhead
        assert np.array_equal(view.domains, domains)
        assert view.num_domains == 4

    def test_explorable(self, booth8_domained):
        domains = slack_oracle_domains(booth8_domained, 6, 2)
        view = with_custom_domains(booth8_domained, domains, 2)
        settings = ExplorationSettings(
            bitwidths=(4, 8), activity_cycles=10, activity_batch=8
        )
        result = ExhaustiveExplorer(view).run(settings)
        assert result.points_evaluated == 4 * 2 * 5  # 2^2 x 2 bits x 5 VDDs
        assert 8 in result.best_per_bitwidth

    def test_shape_validation(self, booth8_domained):
        with pytest.raises(ValueError, match="every cell"):
            with_custom_domains(booth8_domained, np.zeros(3, int), 2)

    def test_range_validation(self, booth8_domained):
        n = len(booth8_domained.netlist.cells)
        with pytest.raises(ValueError, match="out of range"):
            with_custom_domains(booth8_domained, np.full(n, 5), 4)


class TestSlackBandedPartition:
    def test_bands_are_contiguous_in_y(self, booth8_domained):
        from repro.pnr.partition import slack_banded_partition

        domains = slack_banded_partition(booth8_domained, 6, 3)
        ys = booth8_domained.placement.positions[:, 1]
        # For every pair of bands a < b, every cell of a sits below every
        # cell of b (contiguity = physical implementability).
        for low in range(3):
            for high in range(low + 1, 3):
                low_cells = ys[domains == low]
                high_cells = ys[domains == high]
                if len(low_cells) and len(high_cells):
                    assert low_cells.max() <= high_cells.min() + 1e-6

    def test_every_cell_assigned(self, booth8_domained):
        from repro.pnr.partition import slack_banded_partition

        domains = slack_banded_partition(booth8_domained, 6, 4)
        assert domains.shape == (len(booth8_domained.netlist.cells),)
        assert domains.min() >= 0 and domains.max() < 4

    def test_concentrates_critical_cells(self, booth8_domained, library):
        """The band holding the critical cells should be identifiable and
        the non-critical bands should be genuinely non-critical."""
        from repro.pnr.partition import slack_banded_partition
        from repro.sta.caseanalysis import dvas_case
        from repro.sta.engine import StaEngine

        bits, num_bands = 6, 3
        domains = slack_banded_partition(booth8_domained, bits, num_bands)
        graph = booth8_domained.timing_graph()
        engine = StaEngine(graph, library)
        report = engine.analyze(
            booth8_domained.constraint, 1.0,
            np.ones(graph.num_cells, bool),
            case=dvas_case(booth8_domained.netlist, [bits])[0],
        )
        slack = report.cell_slack_ps()
        threshold = booth8_domained.constraint.period_ps * 0.12
        critical_bands = {
            int(domains[i])
            for i in range(graph.num_cells)
            if slack[i] < threshold
        }
        # At least one band stays free of critical logic (otherwise the
        # partition buys nothing); the DP guarantees it when possible.
        assert len(critical_bands) < num_bands

    def test_validation(self, booth8_domained):
        from repro.pnr.partition import slack_banded_partition

        with pytest.raises(ValueError):
            slack_banded_partition(booth8_domained, 6, 0)
