"""Liberty writer and the JSON artifacts of repro.io."""

import io

import pytest

from repro.io import write_liberty
from repro.techlib.library import Library

LIBRARY = Library()


class TestLiberty:
    def test_contains_every_cell_drive(self):
        stream = io.StringIO()
        write_liberty(LIBRARY, LIBRARY.fbb_corner(1.0), stream)
        text = stream.getvalue()
        for cell_name, template in LIBRARY.templates.items():
            for drive in template.drive_names:
                assert f"cell ({cell_name}_{drive})" in text

    def test_corner_scales_numbers(self):
        fast, slow = io.StringIO(), io.StringIO()
        write_liberty(LIBRARY, LIBRARY.fbb_corner(1.0), fast)
        write_liberty(LIBRARY, LIBRARY.nobb_corner(0.8), slow)

        def leakage_of(text, cell="cell (INV_X1)"):
            block = text[text.index(cell):]
            line = next(
                l for l in block.splitlines() if "cell_leakage_power" in l
            )
            return float(line.split(":")[1].strip(" ;"))

        assert leakage_of(fast.getvalue()) > leakage_of(slow.getvalue())

    def test_header_records_bias(self):
        stream = io.StringIO()
        write_liberty(LIBRARY, LIBRARY.rbb_corner(1.0), stream)
        assert "back bias -1.10 V" in stream.getvalue()
        assert "rbb" in stream.getvalue()

    def test_sequential_cell_has_ff_group(self):
        stream = io.StringIO()
        write_liberty(LIBRARY, LIBRARY.fbb_corner(), stream)
        text = stream.getvalue()
        assert "ff (IQ, IQN)" in text
        assert "setup_rising" in text
        assert "rising_edge" in text


def _synthetic_exploration():
    """An ExplorationResult stuffed with non-representable floats."""
    from repro.core.config import ExplorationSettings, OperatingPoint
    from repro.core.exploration import ExplorationResult

    def point(bits, vdd):
        return OperatingPoint(
            active_bits=bits,
            vdd=vdd,
            bb_config=(bits % 2 == 0, bits > 4),
            total_power_w=(0.1 + 0.2) * bits,
            dynamic_power_w=bits / 3.0,
            leakage_power_w=bits / 7.0,
            worst_slack_ps=1.0 / 3.0 - bits,
        )

    settings = ExplorationSettings(
        bitwidths=(2, 4, 8),
        vdd_values=(0.6, 1.0 / 1.5),
        activity_cycles=12,
        activity_batch=4,
        seed=7,
    )
    return ExplorationResult(
        design_name="synthetic",
        settings=settings,
        num_domains=4,
        best_per_bitwidth={b: point(b, 0.6) for b in settings.bitwidths},
        points_evaluated=96,
        points_feasible=41,
        runtime_s=0.1 + 0.2,
        feasible_counts={
            (b, v): b for b in settings.bitwidths for v in settings.vdd_values
        },
        best_per_knob_point={
            (b, v): point(b, v)
            for b in settings.bitwidths
            for v in settings.vdd_values
        },
    )


class TestExplorationRoundTrip:
    def test_bit_exact_identity(self):
        from repro.io import load_exploration, save_exploration

        result = _synthetic_exploration()
        stream = io.StringIO()
        save_exploration(result, stream)
        stream.seek(0)
        loaded = load_exploration(stream)
        # Dataclass equality compares every float with ==, so this is a
        # bit-exactness claim, deliberately including 0.1 + 0.2 style
        # values that would break under any repr/rounding shortcut.
        assert loaded == result

    def test_every_operating_point_field_preserved(self):
        from repro.io import load_exploration, save_exploration

        result = _synthetic_exploration()
        stream = io.StringIO()
        save_exploration(result, stream)
        stream.seek(0)
        loaded = load_exploration(stream)
        for bits, point in result.best_per_bitwidth.items():
            other = loaded.best_per_bitwidth[bits]
            assert other.active_bits == point.active_bits
            assert other.vdd == point.vdd
            assert other.bb_config == point.bb_config
            assert other.total_power_w == point.total_power_w
            assert other.dynamic_power_w == point.dynamic_power_w
            assert other.leakage_power_w == point.leakage_power_w
            assert other.worst_slack_ps == point.worst_slack_ps

    def test_version_mismatch_rejected(self):
        import json

        from repro.io import load_exploration, save_exploration

        result = _synthetic_exploration()
        stream = io.StringIO()
        save_exploration(result, stream)
        payload = json.loads(stream.getvalue())
        payload["schema"] = 99
        with pytest.raises(ValueError, match="unsupported exploration schema"):
            load_exploration(io.StringIO(json.dumps(payload)))

    def test_missing_schema_rejected(self):
        import json

        from repro.io import load_exploration, save_exploration

        result = _synthetic_exploration()
        stream = io.StringIO()
        save_exploration(result, stream)
        payload = json.loads(stream.getvalue())
        del payload["schema"]
        with pytest.raises(ValueError, match="unsupported exploration schema"):
            load_exploration(io.StringIO(json.dumps(payload)))


class TestModeTableArtifact:
    def test_bit_exact_identity(self):
        from repro.io import load_mode_table, save_mode_table
        from tests.conftest import build_synthetic_table

        table = build_synthetic_table()
        stream = io.StringIO()
        save_mode_table(table, stream)
        stream.seek(0)
        assert load_mode_table(stream) == table

    def test_version_mismatch_rejected(self):
        import json

        from repro.io import load_mode_table
        from tests.conftest import build_synthetic_table

        payload = build_synthetic_table().to_dict()
        payload["schema"] = 99
        with pytest.raises(ValueError, match="unsupported mode-table schema"):
            load_mode_table(io.StringIO(json.dumps(payload)))
