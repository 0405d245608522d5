"""The compiled ModeTable artifact: compilation, queries, round-trip."""

import dataclasses
import io
import json

import pytest

from repro.core.config import ExplorationSettings
from repro.core.exploration import ExhaustiveExplorer
from repro.core.runtime import AccuracyController, BiasGeneratorModel
from repro.io.results import load_mode_table, save_mode_table
from repro.serve.table import (
    MODE_TABLE_SCHEMA,
    ModeTable,
    TransitionCost,
    compile_mode_table,
)
from tests.conftest import build_synthetic_table

SETTINGS = ExplorationSettings(
    bitwidths=(2, 4, 6, 8), activity_cycles=12, activity_batch=12
)


@pytest.fixture(scope="module")
def exploration(booth8_domained):
    return ExhaustiveExplorer(booth8_domained).run(SETTINGS)


@pytest.fixture(scope="module")
def compiled(booth8_domained, exploration):
    return compile_mode_table(booth8_domained, exploration)


class TestCompilation:
    def test_metadata_frozen_from_design(self, booth8_domained, compiled):
        assert compiled.design_name == booth8_domained.netlist.name
        assert compiled.fclk_ghz == booth8_domained.fclk_ghz
        assert compiled.num_domains == booth8_domained.num_domains
        assert len(compiled.domain_areas_um2) == booth8_domained.num_domains
        assert compiled.total_area_um2 > 0.0

    def test_modes_are_the_exploration_bests(self, exploration, compiled):
        assert dict(compiled.modes) == exploration.best_per_bitwidth

    def test_transition_matrix_covers_every_pair(self, compiled):
        keys = list(compiled.modes)
        assert set(compiled.transitions) == {
            (a, b) for a in keys for b in keys
        }
        for key in keys:
            assert compiled.transitions[(key, key)].is_free

    def test_matrix_matches_controller_costing(
        self, booth8_domained, exploration, compiled
    ):
        """Precomputed entries equal the legacy controller's on-line cost."""
        controller = AccuracyController(booth8_domained, exploration)
        for (a, b), cost in compiled.transitions.items():
            energy, settle = controller.transition_cost(
                compiled.modes[a], compiled.modes[b]
            )
            assert cost.energy_j == energy
            assert cost.settle_ns == settle

    def test_mode_for_matches_controller(
        self, booth8_domained, exploration, compiled
    ):
        controller = AccuracyController(booth8_domained, exploration)
        for bits in SETTINGS.bitwidths:
            assert compiled.mode_for(bits) == controller.mode_for(bits)

    def test_unreachable_accuracy_rejected(self, compiled):
        with pytest.raises(ValueError, match="no feasible mode"):
            compiled.mode_key_for(99)

    def test_static_mode_is_max_bits(self, compiled):
        assert compiled.static_mode.active_bits == compiled.max_bits
        assert compiled.bitwidths == sorted(compiled.modes)

    def test_empty_exploration_rejected(self, booth8_domained, exploration):
        hollow = dataclasses.replace(exploration, best_per_bitwidth={})
        with pytest.raises(ValueError, match="no feasible"):
            compile_mode_table(booth8_domained, hollow)

    def test_describe_mentions_modes_and_domains(self, compiled):
        text = compiled.describe()
        assert "modes" in text
        assert "domains" in text


class TestValidation:
    def test_mismatched_mode_key_rejected(self, synthetic_table):
        modes = dict(synthetic_table.modes)
        modes[3] = modes.pop(2)  # key no longer matches active_bits
        with pytest.raises(ValueError, match="maps to a 2-bit point"):
            dataclasses.replace(synthetic_table, modes=modes)

    def test_incomplete_matrix_rejected(self, synthetic_table):
        transitions = dict(synthetic_table.transitions)
        del transitions[(2, 8)]
        with pytest.raises(ValueError, match="missing the \\(2, 8\\)"):
            dataclasses.replace(synthetic_table, transitions=transitions)

    def test_vdd_only_transition_is_not_free(self, synthetic_table):
        """6 -> 8 bits changes only the rail; it must still cost."""
        cost = synthetic_table.transition_between(6, 8)
        assert cost.energy_j > 0.0
        assert (
            cost.settle_ns
            == synthetic_table.generator.vdd_transition_time_ns
        )

    def test_combined_transition_settles_at_the_slower_knob(
        self, synthetic_table
    ):
        cost = synthetic_table.transition_between(2, 8)
        generator = synthetic_table.generator
        assert cost.settle_ns == max(
            generator.transition_time_ns, generator.vdd_transition_time_ns
        )

    def test_power_on_is_free(self, synthetic_table):
        assert synthetic_table.transition_between(None, 8).is_free


class TestRoundTrip:
    def test_load_save_identity(self, compiled):
        stream = io.StringIO()
        save_mode_table(compiled, stream)
        stream.seek(0)
        loaded = load_mode_table(stream)
        assert loaded == compiled  # dataclass equality: bit-exact floats

    def test_synthetic_round_trip_preserves_every_field(self):
        generator = BiasGeneratorModel(
            transition_time_ns=123.0,
            well_cap_ff_per_um2=0.1 + 0.2,  # deliberately non-representable
            pump_efficiency=0.7,
            vdd_transition_time_ns=77.0,
            rail_cap_ff_per_um2=1.0 / 3.0,
            regulator_efficiency=0.85,
        )
        table = build_synthetic_table(generator)
        stream = io.StringIO()
        save_mode_table(table, stream)
        stream.seek(0)
        loaded = load_mode_table(stream)
        assert loaded.generator == generator
        for bits, point in table.modes.items():
            other = loaded.modes[bits]
            assert other.vdd == point.vdd
            assert other.bb_config == point.bb_config
            assert other.total_power_w == point.total_power_w
            assert other.dynamic_power_w == point.dynamic_power_w
            assert other.leakage_power_w == point.leakage_power_w
            assert other.worst_slack_ps == point.worst_slack_ps
        assert loaded.transitions == table.transitions

    def test_round_trip_preserves_mode_order(self, compiled):
        stream = io.StringIO()
        save_mode_table(compiled, stream)
        stream.seek(0)
        loaded = load_mode_table(stream)
        assert list(loaded.modes) == list(compiled.modes)

    def test_learned_block_round_trips(self):
        from tests.conftest import build_learned_table

        table, result = build_learned_table()
        stream = io.StringIO()
        save_mode_table(table, stream)
        stream.seek(0)
        loaded = load_mode_table(stream)
        assert loaded.learned == result.spec
        assert loaded == table

    def test_version_mismatch_rejected(self, synthetic_table):
        payload = synthetic_table.to_dict()
        payload["schema"] = MODE_TABLE_SCHEMA + 1
        stream = io.StringIO(json.dumps(payload))
        with pytest.raises(ValueError, match="unsupported mode-table schema"):
            load_mode_table(stream)

    def test_missing_schema_rejected(self, synthetic_table):
        payload = synthetic_table.to_dict()
        del payload["schema"]
        with pytest.raises(ValueError, match="unsupported mode-table schema"):
            ModeTable.from_dict(payload)


class TestTransitionCost:
    def test_is_free(self):
        assert TransitionCost(0.0, 0.0).is_free
        assert not TransitionCost(1e-12, 0.0).is_free
        assert not TransitionCost(0.0, 50.0).is_free
