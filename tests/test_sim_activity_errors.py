"""Activity extraction and accuracy metrics."""

import numpy as np
import pytest

from repro.operators import booth_multiplier
from repro.sim.activity import clear_activity_cache, measure_activity
from repro.sim.errors import compare, error_metrics
from repro.techlib.library import Library

LIBRARY = Library()


@pytest.fixture(scope="module")
def booth6():
    return booth_multiplier(LIBRARY, width=6)


class TestActivity:
    def test_rates_are_physical(self, booth6):
        report = measure_activity(booth6, [6], cycles=16, batch=16)[0]
        assert report.rates.shape == (len(booth6.nets),)
        assert np.all(report.rates >= 0.0)
        # Data nets toggle at most once per cycle; only the clock does 2.
        data = np.delete(report.rates, booth6.clock_net.index)
        assert np.all(data <= 1.0)

    def test_gating_reduces_activity(self, booth6):
        full = measure_activity(booth6, [6], cycles=16, batch=16)[0]
        gated = measure_activity(booth6, [2], cycles=16, batch=16)[0]
        assert gated.rates.sum() < 0.7 * full.rates.sum()
        assert gated.nonzero_fraction() < full.nonzero_fraction()

    def test_gated_input_nets_are_silent(self, booth6):
        gated = measure_activity(booth6, [2], cycles=16, batch=16)[0]
        for bus in booth6.input_buses.values():
            for net in bus.nets[: bus.width - 2]:
                assert gated.rates[net.index] == 0.0

    def test_deterministic_given_seed(self, booth6):
        a = measure_activity(booth6, [4], cycles=12, batch=8, seed=1)[0]
        b = measure_activity(booth6, [4], cycles=12, batch=8, seed=1)[0]
        assert np.array_equal(a.rates, b.rates)

    def test_sweep_covers_requested_bitwidths(self, booth6):
        """One call reports every requested mode, in request order; a
        repeated mode is measured once and reported twice."""
        clear_activity_cache()
        sweep = measure_activity(booth6, (4, 2, 6, 4), cycles=12, batch=8)
        assert [r.active_bits for r in sweep] == [4, 2, 6, 4]
        assert sweep[0] is sweep[3]
        clear_activity_cache()

    def test_too_few_cycles_rejected(self, booth6):
        with pytest.raises(ValueError, match="cycles"):
            measure_activity(booth6, [4], cycles=3)


class TestErrorMetrics:
    def test_exact_mode_has_no_error(self):
        report = error_metrics(lambda a, b: a * b, width=8, active_bits=8)
        assert report.mean_error_distance == 0.0
        assert report.rmse == 0.0
        assert report.snr_db == float("inf")

    def test_error_grows_as_bits_drop(self):
        reports = [
            error_metrics(lambda a, b: a * b, width=8, active_bits=bits)
            for bits in (8, 6, 4, 2)
        ]
        rmse = [r.rmse for r in reports]
        assert rmse == sorted(rmse)
        snr = [r.snr_db for r in reports]
        assert snr == sorted(snr, reverse=True)

    def test_snr_roughly_6db_per_bit(self):
        """Quantization theory: each active bit is worth ~6 dB of SNR."""
        r6 = error_metrics(lambda a, b: a * b, width=16, active_bits=6)
        r10 = error_metrics(lambda a, b: a * b, width=16, active_bits=10)
        gained = r10.snr_db - r6.snr_db
        assert 18.0 < gained < 30.0  # 4 bits ~ 24 dB

    def test_compare_all_zero_signal(self):
        report = compare(np.zeros(10), np.ones(10), active_bits=1)
        assert report.snr_db == float("-inf")
        assert report.max_error == 1.0

    def test_as_dict_fields(self):
        report = error_metrics(lambda a, b: a + b, width=8, active_bits=4)
        data = report.as_dict()
        assert set(data) == {
            "active_bits", "mean_error_distance", "rmse", "max_error",
            "snr_db",
        }
