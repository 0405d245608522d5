"""Multi-Vth (RBB) extension and the runtime accuracy controller."""

import numpy as np
import pytest

from repro.core.config import ExplorationSettings
from repro.core.exploration import ExhaustiveExplorer
from repro.core.runtime import (
    AccuracyController,
    BiasGeneratorModel,
    WorkloadPhase,
)
from repro.core.tristate import STATE_NAMES, TriStateExplorer
from repro.serve.scheduler import replay_trace
from repro.sta.caseanalysis import dvas_case
from repro.sta.lattice import all_bb_configs, all_state_configs
from repro.techlib.library import Corner
from tests.oracles.serve import replay_reference

SETTINGS = ExplorationSettings(
    bitwidths=(2, 4, 6, 8), activity_cycles=12, activity_batch=12
)


@pytest.fixture(scope="module")
def two_state(booth8_domained):
    return ExhaustiveExplorer(booth8_domained).run(SETTINGS)


@pytest.fixture(scope="module")
def three_state(booth8_domained):
    return TriStateExplorer(booth8_domained).run(SETTINGS)


class TestAllStateConfigs:
    def test_shape_and_uniqueness(self):
        configs = all_state_configs(3, 3)
        assert configs.shape == (27, 3)
        assert len({tuple(r) for r in configs}) == 27
        assert configs.min() == 0 and configs.max() == 2

    def test_two_state_matches_bb_configs(self):
        general = all_state_configs(4, 2)
        classic = all_bb_configs(4).astype(np.int64)
        assert np.array_equal(general, classic)

    def test_validation(self):
        with pytest.raises(ValueError):
            all_state_configs(-1, 3)
        with pytest.raises(ValueError):
            all_state_configs(2, 0)


class TestTriState:
    def test_never_worse_than_two_state(self, two_state, three_state):
        """{RBB, NoBB, FBB} is a superset of {NoBB, FBB}."""
        for bits in SETTINGS.bitwidths:
            p2 = two_state.best_per_bitwidth.get(bits)
            p3 = three_state.best_per_bitwidth.get(bits)
            assert p3 is not None
            if p2 is not None:
                assert p3.total_power_w <= p2.total_power_w

    def test_nobb_fbb_configs_time_like_two_state(self, booth8_domained):
        """Configs using only NoBB and FBB get their two-state lattice
        slack exactly: both explorations run the same float64 kernel."""
        explorer = TriStateExplorer(booth8_domained)
        configs = all_state_configs(booth8_domained.num_domains, 3)
        two_state_rows = np.all(configs > 0, axis=1)
        fbb = configs[two_state_rows] == 2
        for bits in SETTINGS.bitwidths:
            case = dvas_case(booth8_domained.netlist, [bits])[0]
            for vdd in SETTINGS.vdd_values:
                three = explorer.worst_slacks(configs, vdd, case)
                two = explorer.lattice_engine.analyze(
                    booth8_domained.constraint, vdd, configs=fbb, case=case
                )
                assert np.array_equal(
                    three[two_state_rows], two.worst_slack_ps
                ), (bits, vdd)

    def test_rbb_at_lowest_vdd_is_infeasible(self, booth8_domained):
        """RBB cannot switch at 0.6 V: its delay factor is inf, and the
        all-RBB row must read infeasible, not NaN."""
        explorer = TriStateExplorer(booth8_domained)
        rbb = explorer.state_vbbs[0]
        assert np.isinf(explorer.library.delay_factor(Corner(0.6, rbb)))
        configs = all_state_configs(booth8_domained.num_domains, 3)
        assert not configs[0].any()  # row 0: every domain in RBB
        case = dvas_case(booth8_domained.netlist, [max(SETTINGS.bitwidths)])[0]
        slack = explorer.worst_slacks(configs[:1], 0.6, case)
        assert slack[0] == -np.inf

    def test_rbb_used_at_low_accuracy(self, three_state):
        low = three_state.best_per_bitwidth[min(SETTINGS.bitwidths)]
        high = three_state.best_per_bitwidth[max(SETTINGS.bitwidths)]
        assert low.count_state(0) >= high.count_state(0)

    def test_full_accuracy_needs_boost(self, three_state):
        top = three_state.best_per_bitwidth[max(SETTINGS.bitwidths)]
        assert top.count_state(2) >= 3  # almost everything FBB

    def test_describe_encodes_states(self, three_state):
        text = three_state.best_per_bitwidth[2].describe()
        assert "Vth[" in text
        assert STATE_NAMES == ("RBB", "NoBB", "FBB")

    def test_config_count(self, three_state, booth8_domained):
        expected = (
            3**booth8_domained.num_domains
            * len(SETTINGS.bitwidths)
            * len(SETTINGS.vdd_values)
        )
        assert three_state.points_evaluated == expected

    def test_domain_limit_guard(self, booth8_domained):
        with pytest.raises(ValueError, match="exceed the limit"):
            TriStateExplorer(booth8_domained, max_configs=10)


class TestRuntimeController:
    def test_mode_for_picks_cheapest_sufficient(
        self, booth8_domained, two_state
    ):
        controller = AccuracyController(booth8_domained, two_state)
        for bits in SETTINGS.bitwidths:
            mode = controller.mode_for(bits)
            assert mode.active_bits >= bits
        assert (
            controller.mode_for(2).total_power_w
            <= controller.mode_for(8).total_power_w
        )

    def test_unreachable_accuracy_rejected(self, booth8_domained, two_state):
        controller = AccuracyController(booth8_domained, two_state)
        with pytest.raises(ValueError, match="no feasible mode"):
            controller.mode_for(99)

    def test_transition_energy_zero_for_same_config(
        self, booth8_domained, two_state
    ):
        controller = AccuracyController(booth8_domained, two_state)
        mode = controller.mode_for(8)
        energy, settle = controller.transition_cost(mode, mode)
        assert energy == 0.0 and settle == 0.0

    def test_transition_energy_positive_for_bias_change(
        self, booth8_domained, two_state
    ):
        controller = AccuracyController(booth8_domained, two_state)
        low = controller.mode_for(2)
        high = controller.mode_for(8)
        if low.bb_config != high.bb_config:
            energy, settle = controller.transition_cost(low, high)
            assert energy > 0.0
            assert settle == controller.generator.transition_time_ns

    def test_replay_accounting(self, booth8_domained, two_state):
        controller = AccuracyController(booth8_domained, two_state)
        workload = [
            WorkloadPhase(required_bits=8, cycles=10_000),
            WorkloadPhase(required_bits=2, cycles=90_000),
            WorkloadPhase(required_bits=8, cycles=10_000),
        ]
        report = replay_trace(controller.compiled(), workload)
        assert report.total_cycles == 110_000
        assert report.phases == 3
        assert report.total_energy_j == pytest.approx(
            report.compute_energy_j + report.transition_energy_j
        )
        # Mostly-low-accuracy workload: adaptation must save energy.
        assert report.adaptive_saving > 0.1
        assert report.transition_overhead < 0.05
        assert "saved" in report.summary()

    def test_static_workload_has_no_switches(self, booth8_domained, two_state):
        controller = AccuracyController(booth8_domained, two_state)
        report = replay_trace(
            controller.compiled(),
            [WorkloadPhase(required_bits=8, cycles=1000)] * 3,
        )
        # First phase powers the bias rails once; then nothing changes.
        assert report.mode_switches <= 1
        assert report.adaptive_saving == pytest.approx(0.0, abs=1e-9)

    def test_empty_workload_rejected(self, booth8_domained, two_state):
        controller = AccuracyController(booth8_domained, two_state)
        with pytest.raises(ValueError, match="empty"):
            replay_trace(controller.compiled(), [])

    def test_generator_model_energy_scales(self):
        generator = BiasGeneratorModel()
        small = generator.transition_energy_j(100.0, 0.0, 1.1)
        large = generator.transition_energy_j(1000.0, 0.0, 1.1)
        assert large == pytest.approx(10 * small)
        assert generator.transition_energy_j(100.0, 1.1, 1.1) == 0.0


class TestVddRailTransitions:
    """Satellite regression: a VDD-only mode change is not free."""

    def test_rail_energy_scales_with_area_and_swing(self):
        generator = BiasGeneratorModel()
        small = generator.rail_transition_energy_j(100.0, 0.6, 1.0)
        large = generator.rail_transition_energy_j(1000.0, 0.6, 1.0)
        assert small > 0.0
        assert large == pytest.approx(10 * small)
        double_swing = generator.rail_transition_energy_j(100.0, 0.2, 1.0)
        assert double_swing == pytest.approx(4 * small)
        assert generator.rail_transition_energy_j(100.0, 0.8, 0.8) == 0.0

    def test_rail_slew_direction_symmetric(self):
        generator = BiasGeneratorModel()
        up = generator.rail_transition_energy_j(500.0, 0.6, 1.0)
        down = generator.rail_transition_energy_j(500.0, 1.0, 0.6)
        assert up == down

    def test_vdd_only_transition_costs(self, booth8_domained, two_state):
        """Two points differing only in VDD: energy > 0, rail settle."""
        import dataclasses

        controller = AccuracyController(booth8_domained, two_state)
        mode = controller.mode_for(8)
        other_vdd = 0.6 if mode.vdd != 0.6 else 1.0
        sibling = dataclasses.replace(mode, vdd=other_vdd)
        energy, settle = controller.transition_cost(mode, sibling)
        assert energy > 0.0
        assert settle == controller.generator.vdd_transition_time_ns

    def test_combined_transition_takes_slower_settle(
        self, booth8_domained, two_state
    ):
        import dataclasses

        controller = AccuracyController(booth8_domained, two_state)
        mode = controller.mode_for(8)
        flipped = tuple(not b for b in mode.bb_config)
        other_vdd = 0.6 if mode.vdd != 0.6 else 1.0
        sibling = dataclasses.replace(
            mode, vdd=other_vdd, bb_config=flipped
        )
        energy, settle = controller.transition_cost(mode, sibling)
        generator = controller.generator
        assert energy > generator.rail_transition_energy_j(
            0.0, mode.vdd, other_vdd
        )
        assert settle == max(
            generator.transition_time_ns, generator.vdd_transition_time_ns
        )

    def test_power_on_from_none_is_free(self, booth8_domained, two_state):
        controller = AccuracyController(booth8_domained, two_state)
        assert controller.transition_cost(None, controller.mode_for(8)) == (
            0.0,
            0.0,
        )


class TestSwitchCounting:
    """Satellite regression: a switch is any operating-point change,
    even one whose transition happens to cost nothing."""

    def test_point_change_counts_even_if_free(
        self, booth8_domained, two_state
    ):
        controller = AccuracyController(booth8_domained, two_state)
        trace = [
            WorkloadPhase(required_bits=8, cycles=1_000),
            WorkloadPhase(required_bits=2, cycles=1_000),
            WorkloadPhase(required_bits=8, cycles=1_000),
        ]
        report = replay_trace(controller.compiled(), trace)
        points = [controller.mode_for(p.required_bits) for p in trace]
        expected = sum(
            1
            for i, point in enumerate(points)
            if i == 0 or point != points[i - 1]
        )
        assert report.mode_switches == expected

    def test_reference_and_scheduler_agree_on_counting(
        self, booth8_domained, two_state
    ):
        controller = AccuracyController(booth8_domained, two_state)
        rng = np.random.default_rng(3)
        trace = [
            WorkloadPhase(
                required_bits=int(rng.choice(SETTINGS.bitwidths)),
                cycles=int(rng.integers(1, 10_000)),
            )
            for _ in range(20)
        ]
        assert (
            replay_trace(controller.compiled(), trace).mode_switches
            == replay_reference(controller, trace).mode_switches
        )
