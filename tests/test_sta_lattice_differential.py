"""Differential lock-in of the whole-lattice batched STA kernel.

The contract: :meth:`LatticeStaEngine.analyze` sweeps every BB
combination in one ``(combos, nets)`` tensor pass and its per-combo WNS,
feasibility mask, critical-endpoint ids and arrival matrices
are **bit-identical** (``==``, not ``allclose``) to looping the scalar
:meth:`repro.sta.engine.StaEngine.analyze` over the combinations.

Three layers of comparison, over Table 1 operators x bitwidths x VDD
grid x case analyses:

* kernel vs the pointwise reference loop of :mod:`tests.oracles.sta`;
* kernel vs a hand-rolled scalar loop (guards the reference loop too);
* full exploration on the lattice kernel vs the same exploration with
  the pointwise loop swapped into its feasibility filter.
"""

import numpy as np
import pytest

from repro.core.config import ExplorationSettings
from repro.core.exploration import ExhaustiveExplorer
from repro.core.flow import implement_with_domains
from repro.operators import booth_multiplier, fft_butterfly, fir_filter
from repro.operators.fir import FirParameters
from repro.pnr.grid import GridPartition
from repro.sta.caseanalysis import dvas_case
from repro.sta.engine import StaEngine
from repro.sta.lattice import LatticeStaEngine, all_bb_configs
from tests.oracles.sta import analyze_pointwise, pointwise_exploration
from tests.test_parallel_differential import assert_identical

OPERATORS = ["booth", "butterfly", "fir"]

#: Paper's five-step VDD ladder endpoints plus the middle rung.
VDD_GRID = [1.0, 0.8, 0.6]


@pytest.fixture(scope="module")
def designs(library):
    """Three small domained Table 1 operators."""
    built = {}
    factories = {
        "booth": lambda: booth_multiplier(library, width=6, name="lat_boo"),
        "butterfly": lambda: fft_butterfly(library, width=4, name="lat_bfy"),
        "fir": lambda: fir_filter(
            library, FirParameters(taps=4, width=6), name="lat_fir"
        ),
    }
    for op, grid in (("booth", (2, 2)), ("butterfly", (2, 1)), ("fir", (2, 1))):
        built[op] = implement_with_domains(
            factories[op], library, GridPartition(*grid)
        )
    return built


def lattice_engine(design, graph=None):
    return LatticeStaEngine(
        graph if graph is not None else design.timing_graph(),
        design.netlist.library, design.domains, design.num_domains,
    )


def cases_for(design):
    """None (full precision) plus two DVAS accuracy modes."""
    width = max(bus.width for bus in design.netlist.input_buses.values())
    return {
        "full": None,
        "half": dvas_case(design.netlist, [width // 2])[0],
        "two": dvas_case(design.netlist, [2])[0],
    }


@pytest.mark.parametrize("operator", OPERATORS)
@pytest.mark.parametrize("vdd", VDD_GRID)
def test_lattice_matches_pointwise_reference(operator, vdd, designs):
    """Engine-level differential: one tensor pass == the reference loop."""
    design = designs[operator]
    engine = lattice_engine(design)
    for label, case in cases_for(design).items():
        batched = engine.analyze(design.constraint, vdd, case=case)
        reference = analyze_pointwise(
            engine, design.constraint, vdd, case=case
        )
        context = f"{operator} vdd={vdd} case={label}"
        assert batched.worst_slack_ps.shape == (2 ** design.num_domains,)
        assert np.array_equal(
            batched.worst_slack_ps, reference.worst_slack_ps
        ), context
        assert np.array_equal(batched.feasible, reference.feasible), context
        assert np.array_equal(
            batched.critical_endpoint_net, reference.critical_endpoint_net
        ), context
        assert batched.num_feasible == reference.num_feasible
        assert batched.filtered_fraction == reference.filtered_fraction


@pytest.mark.parametrize("operator", OPERATORS)
def test_lattice_matches_hand_rolled_scalar_loop(operator, designs):
    """Both engine paths vs raw StaEngine.analyze, arrays included.

    Guards the ``analyze_pointwise`` oracle itself: if the reference
    loop ever drifted from the scalar engine, the kernel-vs-reference
    test alone could pass vacuously.
    """
    design = designs[operator]
    graph = design.timing_graph()
    engine = lattice_engine(design, graph)
    scalar = StaEngine(graph, design.netlist.library)
    configs = all_bb_configs(design.num_domains)
    for vdd in (1.0, 0.7):
        for case in cases_for(design).values():
            batched = engine.analyze(
                design.constraint, vdd, case=case,
                keep_arrays=True,
            )
            for k, config in enumerate(configs):
                report = scalar.analyze(
                    design.constraint, vdd, config[design.domains], case=case
                )
                assert batched.worst_slack_ps[k] == report.worst_slack_ps
                assert (
                    batched.critical_endpoint_net[k]
                    == report.critical_endpoint_net
                )
                assert np.array_equal(
                    batched.arrival_ps[k], report.arrival_ps
                )


@pytest.mark.parametrize("operator", OPERATORS)
def test_memoized_case_schedule_reused_bit_identically(operator, designs):
    """A CaseAnalysis memoizes its filtered levelized schedule; the second
    analyze must reuse it (same object) and reproduce the same bits."""
    design = designs[operator]
    engine = lattice_engine(design)
    case = dvas_case(design.netlist, [3])[0]
    first = engine.analyze(design.constraint, 0.8, case=case)
    assert case._schedule_cache, "case schedule should be memoized"
    cached = next(iter(case._schedule_cache.values()))
    second = engine.analyze(design.constraint, 0.8, case=case)
    assert next(iter(case._schedule_cache.values())) is cached
    assert np.array_equal(first.worst_slack_ps, second.worst_slack_ps)
    assert np.array_equal(
        first.critical_endpoint_net, second.critical_endpoint_net
    )


@pytest.mark.parametrize("operator", OPERATORS)
def test_vdd_ladder_pass_matches_per_rung_analyze(operator, designs):
    """One stacked (VDD x combos) pass == one pass per VDD, bit for bit.

    The exploration loop runs the whole ladder per bitwidth through
    ``analyze_ladder``; each rung's slice must equal its standalone
    ``analyze`` result exactly.
    """
    design = designs[operator]
    engine = lattice_engine(design)
    vdds = [1.0, 0.9, 0.8, 0.7, 0.6]
    for case in cases_for(design).values():
        ladder = engine.analyze_ladder(design.constraint, vdds, case=case)
        assert [r.vdd for r in ladder] == vdds
        for rung in ladder:
            single = engine.analyze(design.constraint, rung.vdd, case=case)
            assert np.array_equal(rung.worst_slack_ps, single.worst_slack_ps)
            assert np.array_equal(
                rung.critical_endpoint_net, single.critical_endpoint_net
            )


def test_config_subset_slices_match_full_lattice(designs):
    """A combo-sliced call (the sharded path) equals rows of the full
    lattice -- no cross-combo coupling in the kernel."""
    design = designs["booth"]
    engine = lattice_engine(design)
    configs = all_bb_configs(design.num_domains)
    full = engine.analyze(design.constraint, 0.8, configs=configs)
    for lo in range(0, len(configs), 5):
        part = engine.analyze(
            design.constraint, 0.8, configs=configs[lo:lo + 5]
        )
        assert np.array_equal(
            part.worst_slack_ps, full.worst_slack_ps[lo:lo + 5]
        )
        assert np.array_equal(
            part.critical_endpoint_net, full.critical_endpoint_net[lo:lo + 5]
        )


@pytest.mark.parametrize("operator", OPERATORS)
def test_exploration_identical_across_sta_engines(operator, designs):
    """Pareto frontiers and feasibility masks are bit-identical whether
    the lattice kernel or the pointwise oracle drives the sweep."""
    settings = ExplorationSettings(
        bitwidths=(2, 4, 6),
        vdd_values=(1.0, 0.8, 0.6),
        activity_cycles=8,
        activity_batch=8,
    )
    design = designs[operator]
    lattice = ExhaustiveExplorer(design).run(settings)
    with pointwise_exploration():
        pointwise = ExhaustiveExplorer(design).run(settings)
    assert_identical(lattice, pointwise)
