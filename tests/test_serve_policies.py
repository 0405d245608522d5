"""Mode-selection policies: accuracy invariant, registry, decide contract."""

import warnings

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.runtime import BiasGeneratorModel, WorkloadPhase
from repro.serve.policy import (
    GreedyPolicy,
    HysteresisPolicy,
    LookaheadPolicy,
    POLICIES,
    PolicyContext,
    PolicyParam,
    SelectionPolicy,
    make_policy,
    parse_policy_args,
    policy_params,
    validate_policy_kwargs,
)
from repro.serve.scheduler import ModeScheduler, ServeRequest, replay_trace
from tests.conftest import build_learned_table, build_synthetic_table

TABLE = build_synthetic_table()
MODE_BITS = sorted(TABLE.modes)

#: The same table with a (small, cached) trained learned block, so the
#: property tests can sweep every registered policy including "learned".
LEARNED_TABLE = TABLE.with_learned(build_learned_table()[1].spec)


class TestRegistry:
    def test_all_policies_registered(self):
        assert set(POLICIES) == {
            "greedy",
            "hysteresis",
            "lookahead",
            "learned",
        }

    def test_make_policy_by_name(self):
        policy = make_policy("hysteresis", TABLE, dwell_cycles=5)
        assert isinstance(policy, HysteresisPolicy)
        assert policy.dwell_cycles == 5

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            make_policy("oracle", TABLE)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError, match="dwell_cycles"):
            HysteresisPolicy(TABLE, dwell_cycles=0)
        with pytest.raises(ValueError, match="margin"):
            HysteresisPolicy(TABLE, margin=-1.0)
        with pytest.raises(ValueError, match="window"):
            LookaheadPolicy(TABLE, window=-1)

    def test_declared_params_are_typed(self):
        declared = {p.name: p for p in policy_params("hysteresis")}
        assert declared["dwell_cycles"].kind is int
        assert declared["margin"].kind is float
        assert policy_params("greedy") == ()

    def test_kwargs_coerced_to_declared_types(self):
        coerced = validate_policy_kwargs(
            "hysteresis", {"dwell_cycles": "500", "margin": "1.5"}
        )
        assert coerced == {"dwell_cycles": 500, "margin": 1.5}
        policy = make_policy("hysteresis", TABLE, **coerced)
        assert policy.dwell_cycles == 500

    def test_unknown_kwarg_lists_known_params(self):
        with pytest.raises(ValueError, match="knows dwell_cycles"):
            validate_policy_kwargs("hysteresis", {"dwell": "5"})
        with pytest.raises(ValueError, match="takes no parameters"):
            validate_policy_kwargs("greedy", {"window": "4"})

    def test_parse_policy_args(self):
        assert parse_policy_args(["a=1", " b = x=y "]) == {
            "a": "1",
            "b": "x=y",
        }
        with pytest.raises(ValueError, match="bad --policy-arg"):
            parse_policy_args(["no-equals"])

    def test_duplicate_name_rejected(self):
        from repro.serve.policy import register_policy

        with pytest.raises(ValueError, match="already registered"):

            @register_policy
            class Impostor(SelectionPolicy):
                name = "greedy"

                def decide(self, ctx):
                    return self.table.mode_key_for(ctx.required_bits)

        assert POLICIES["greedy"] is GreedyPolicy

    def test_bool_param_coercion(self):
        param = PolicyParam("flag", bool, False)
        assert param.coerce("yes") is True
        assert param.coerce("0") is False
        with pytest.raises(ValueError, match="expects bool"):
            param.coerce("maybe")


def decide(policy, required_bits, current_bits=None, upcoming=()):
    """One decision from positional arguments."""
    return policy.decide(
        PolicyContext(required_bits, current_bits, tuple(upcoming))
    )


class _SelectOnly(SelectionPolicy):
    """Overrides only a positional select(), which nothing calls."""

    name = "_select_only_test_only"

    def select(self, required_bits, current_bits=None, upcoming=()):
        return self.table.mode_key_for(required_bits)


class _NeitherOverridden(SelectionPolicy):
    name = "_abstract_test_only"


class TestLegacyShim:
    def test_modern_policy_never_warns(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            GreedyPolicy(TABLE).decide(PolicyContext(required_bits=2))

    def test_overriding_neither_hook_raises(self):
        # decide is abstract: a class without it fails at construction.
        for cls in (_SelectOnly, _NeitherOverridden):
            with pytest.raises(TypeError, match="abstract method decide"):
                cls(TABLE)


class TestGreedy:
    def test_picks_cheapest_sufficient(self):
        policy = GreedyPolicy(TABLE)
        assert decide(policy, 2, None) == 2
        assert decide(policy, 3, 2) == 4
        assert decide(policy, 8, 2) == 8

    def test_ignores_current_mode(self):
        policy = GreedyPolicy(TABLE)
        assert decide(policy, 2, 8) == 2  # always downswitches


#: Same table with 1000x the well/rail capacitance: slew energies in the
#: hundreds of pJ, so short dwells genuinely cannot amortize a switch.
EXPENSIVE = build_synthetic_table(
    BiasGeneratorModel(well_cap_ff_per_um2=80.0, rail_cap_ff_per_um2=200.0)
)


class TestHysteresis:
    def test_upswitch_never_delayed(self):
        policy = HysteresisPolicy(EXPENSIVE, dwell_cycles=1)
        assert decide(policy, 8, 2) == 8

    def test_short_dwell_refuses_downswitch(self):
        # 1 cycle at 1 GHz saves ~3 mW * 1 ns << the 8->2 slew energy.
        policy = HysteresisPolicy(EXPENSIVE, dwell_cycles=1, margin=1.0)
        assert decide(policy, 2, 8) == 8

    def test_long_dwell_takes_downswitch(self):
        policy = HysteresisPolicy(
            EXPENSIVE, dwell_cycles=10_000_000, margin=1.0
        )
        assert decide(policy, 2, 8) == 2

    def test_break_even_holds_current(self):
        """Exactly at the threshold the policy keeps the current mode."""
        cost = EXPENSIVE.transition_between(8, 2)
        saving_w = (
            EXPENSIVE.modes[8].total_power_w
            - EXPENSIVE.modes[2].total_power_w
        )
        break_even = cost.energy_j / saving_w * EXPENSIVE.fclk_ghz * 1e9
        assert break_even >= 1.0  # the expensive table makes this real
        policy = HysteresisPolicy(
            EXPENSIVE, dwell_cycles=int(break_even), margin=1.0
        )
        assert decide(policy, 2, 8) == 8

    def test_cold_start_is_greedy(self):
        policy = HysteresisPolicy(EXPENSIVE, dwell_cycles=1)
        assert decide(policy, 4, None) == 4


class TestLookahead:
    def test_empty_window_degenerates_to_greedy(self):
        policy = LookaheadPolicy(TABLE, window=0)
        for bits in MODE_BITS:
            assert decide(policy, bits) == decide(GreedyPolicy(TABLE), bits)

    def test_holds_covering_mode_across_a_blip(self):
        """A one-phase dip inside a high-accuracy run is not worth two
        well slews when the dip is short."""
        policy = LookaheadPolicy(EXPENSIVE, window=4)
        upcoming = ((8, 10), (8, 10), (8, 10), (8, 10))
        assert decide(policy, 2, 8, upcoming) == 8

    def test_switches_for_a_long_cheap_stretch(self):
        policy = LookaheadPolicy(EXPENSIVE, window=4)
        upcoming = ((2, 10_000_000),) * 4
        assert decide(policy, 2, 8, upcoming) == 2

    def test_never_below_requirement_even_when_holding(self):
        policy = LookaheadPolicy(TABLE, window=4)
        choice = decide(policy, 6, 2, ((2, 10), (2, 10)))
        assert TABLE.modes[choice].active_bits >= 6


@st.composite
def traces(draw):
    length = draw(st.integers(min_value=1, max_value=30))
    return [
        WorkloadPhase(
            required_bits=draw(st.sampled_from(MODE_BITS)),
            cycles=draw(st.integers(min_value=1, max_value=100_000)),
        )
        for _ in range(length)
    ]


class TestAccuracyInvariant:
    """No policy ever serves fewer bits than requested -- on any trace."""

    @settings(max_examples=60, deadline=None)
    @given(trace=traces(), policy=st.sampled_from(sorted(POLICIES)))
    def test_served_bits_always_sufficient(self, trace, policy):
        scheduler = ModeScheduler(
            LEARNED_TABLE,
            num_generators=1,
            policy=policy,
            max_queue_depth=1_000,
        )
        window = 4
        for index, phase in enumerate(trace):
            upcoming = tuple(
                (p.required_bits, p.cycles)
                for p in trace[index + 1 : index + 1 + window]
            )
            served = scheduler.submit(
                ServeRequest("op", phase.required_bits, phase.cycles),
                upcoming=upcoming,
            )
            assert served.served_bits >= phase.required_bits

    @settings(max_examples=30, deadline=None)
    @given(trace=traces())
    def test_policies_agree_on_total_cycles_and_phase_count(self, trace):
        reports = {
            name: replay_trace(LEARNED_TABLE, trace, policy=name)
            for name in POLICIES
        }
        for report in reports.values():
            assert report.phases == len(trace)
            assert report.total_cycles == sum(p.cycles for p in trace)
            assert report.static_energy_j == pytest.approx(
                reports["greedy"].static_energy_j
            )

    @settings(max_examples=30, deadline=None)
    @given(trace=traces())
    def test_hysteresis_never_switches_more_than_greedy(self, trace):
        greedy = replay_trace(TABLE, trace, policy="greedy")
        debounced = replay_trace(
            TABLE, trace, policy="hysteresis", dwell_cycles=1
        )
        assert debounced.mode_switches <= greedy.mode_switches


class TestThrashSuppression:
    def test_hysteresis_beats_greedy_on_alternating_blips(self):
        """Costly slews on a thrashy trace: debouncing must win energy."""
        generator = BiasGeneratorModel(well_cap_ff_per_um2=80.0)
        table = build_synthetic_table(generator)
        trace = [
            WorkloadPhase(required_bits=8 if i % 2 else 2, cycles=50)
            for i in range(40)
        ]
        greedy = replay_trace(table, trace, policy="greedy")
        debounced = replay_trace(
            table, trace, policy="hysteresis", dwell_cycles=100
        )
        assert debounced.mode_switches < greedy.mode_switches
        assert debounced.total_energy_j < greedy.total_energy_j

    def test_lookahead_beats_greedy_on_alternating_blips(self):
        generator = BiasGeneratorModel(well_cap_ff_per_um2=80.0)
        table = build_synthetic_table(generator)
        trace = [
            WorkloadPhase(required_bits=8 if i % 2 else 2, cycles=50)
            for i in range(40)
        ]
        greedy = replay_trace(table, trace, policy="greedy")
        planned = replay_trace(
            table, trace, policy="lookahead", lookahead_window=4
        )
        assert planned.total_energy_j < greedy.total_energy_j
