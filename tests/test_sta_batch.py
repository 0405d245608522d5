"""The lattice STA engine on a partitioned design, against the scalar one."""

import numpy as np
import pytest

from repro.operators import booth_multiplier
from repro.pnr.grid import GridPartition, insert_domains
from repro.pnr.placer import GlobalPlacer
from repro.pnr.parasitics import extract_parasitics
from repro.sta.caseanalysis import dvas_case
from repro.sta.constraints import ClockConstraint
from repro.sta.engine import StaEngine
from repro.sta.graph import compile_timing_graph
from repro.sta.lattice import LatticeStaEngine, all_bb_configs
from repro.techlib.library import Library

LIBRARY = Library()


@pytest.fixture(scope="module")
def domained_booth():
    netlist = booth_multiplier(LIBRARY, width=8)
    placement = GlobalPlacer(netlist, seed=2).run()
    insertion = insert_domains(placement, GridPartition(2, 2))
    parasitics = extract_parasitics(insertion.placement)
    graph = compile_timing_graph(netlist, parasitics)
    return netlist, graph, insertion


class TestAllBbConfigs:
    def test_shape_and_extremes(self):
        configs = all_bb_configs(3)
        assert configs.shape == (8, 3)
        assert not configs[0].any()   # all-NoBB first
        assert configs[-1].all()      # all-FBB last
        assert len({tuple(r) for r in configs}) == 8

    def test_zero_domains(self):
        configs = all_bb_configs(0)
        assert configs.shape == (1, 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            all_bb_configs(-1)


class TestBatchMatchesSingle:
    @pytest.mark.parametrize("vdd", [1.0, 0.8])
    @pytest.mark.parametrize("bits", [8, 4])
    def test_worst_slack_equivalence(self, domained_booth, vdd, bits):
        """The core soundness check of the exploration speed trick."""
        netlist, graph, insertion = domained_booth
        constraint = ClockConstraint(1200.0)
        case = dvas_case(netlist, [bits])[0]
        lattice = LatticeStaEngine(graph, LIBRARY, insertion.domains, 4)
        result = lattice.analyze(constraint, vdd, case=case)
        single = StaEngine(graph, LIBRARY)
        for k, config in enumerate(result.configs):
            fbb_cells = config[insertion.domains]
            report = single.analyze(
                constraint, vdd, fbb_cells, case=case, compute_required=False
            )
            assert result.worst_slack_ps[k] == report.worst_slack_ps, (
                f"config {k}"
            )

    def test_more_boost_never_hurts(self, domained_booth):
        """Monotonicity: turning a domain to FBB can only improve slack."""
        netlist, graph, insertion = domained_booth
        lattice = LatticeStaEngine(graph, LIBRARY, insertion.domains, 4)
        result = lattice.analyze(ClockConstraint(1000.0), 0.9)
        slack = result.worst_slack_ps
        for k in range(16):
            for domain in range(4):
                if not (k >> domain) & 1:
                    boosted = k | (1 << domain)
                    assert slack[boosted] >= slack[k]

    def test_subset_configs(self, domained_booth):
        netlist, graph, insertion = domained_booth
        lattice = LatticeStaEngine(graph, LIBRARY, insertion.domains, 4)
        subset = np.asarray([[False] * 4, [True] * 4])
        result = lattice.analyze(ClockConstraint(1000.0), 1.0, configs=subset)
        assert len(result.worst_slack_ps) == 2
        assert result.worst_slack_ps[1] > result.worst_slack_ps[0]

    def test_filtered_fraction(self, domained_booth):
        netlist, graph, insertion = domained_booth
        lattice = LatticeStaEngine(graph, LIBRARY, insertion.domains, 4)
        # A clock nothing can meet: everything filtered.
        result = lattice.analyze(ClockConstraint(50.0), 1.0)
        assert result.num_feasible == 0
        assert result.filtered_fraction == 1.0
        # A clock everything meets: nothing filtered.
        result = lattice.analyze(ClockConstraint(1e6), 1.0)
        assert result.filtered_fraction == 0.0


class TestValidation:
    def test_domain_shape_checked(self, domained_booth):
        _netlist, graph, _insertion = domained_booth
        with pytest.raises(ValueError, match="domains shape"):
            LatticeStaEngine(graph, LIBRARY, np.zeros(3, dtype=int), 4)

    def test_domain_range_checked(self, domained_booth):
        _netlist, graph, insertion = domained_booth
        with pytest.raises(ValueError, match="out of range"):
            LatticeStaEngine(graph, LIBRARY, insertion.domains, 2)

    def test_config_shape_checked(self, domained_booth):
        _netlist, graph, insertion = domained_booth
        lattice = LatticeStaEngine(graph, LIBRARY, insertion.domains, 4)
        with pytest.raises(ValueError, match="configs shape"):
            lattice.analyze(
                ClockConstraint(1000.0), 1.0, configs=np.ones((2, 3), bool)
            )

    def test_factor_shape_checked(self, domained_booth):
        _netlist, graph, insertion = domained_booth
        lattice = LatticeStaEngine(graph, LIBRARY, insertion.domains, 4)
        with pytest.raises(ValueError, match="factors shape"):
            lattice.analyze_factors(
                ClockConstraint(1000.0), np.ones((2, graph.num_cells + 1))
            )
