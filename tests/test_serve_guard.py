"""The runtime margin guard and the margin-carrying table schema.

Covers the three margin-guard behaviours (pass-through while safe,
cheapest-safe substitution, static fallback when nothing covers), the
guard's integration with the scheduler (fallback flags, transition
retries/backoff, generator dropouts), and the margin block of the
artifact: margins round-trip, and every malformed payload surfaces as
one clear ServeError.
"""

import dataclasses
import io
import json

import pytest

from repro.faults import (
    FaultEvent,
    FaultSchedule,
    KIND_GEN_DROPOUT,
    KIND_STUCK_NOBB,
    KIND_TEMP_DRIFT,
    KIND_TRANSITION_TIMEOUT,
    SiliconEnvironment,
)
from repro.serve import (
    MarginGuard,
    ModeScheduler,
    ModeTable,
    ServeError,
    ServeRequest,
)
from repro.serve.table import ModeMargin

from .conftest import build_margined_table, build_synthetic_table


def guard_for(table, events=(), headroom_ps=0.0):
    return MarginGuard(
        table, SiliconEnvironment(FaultSchedule(events)), headroom_ps
    )


# -- guard semantics ---------------------------------------------------------


class TestMarginGuard:
    def test_benign_environment_passes_policy_through(self, margined_table):
        guard = guard_for(margined_table)
        for bits in margined_table.modes:
            assert guard.mode_is_safe(bits, now_ns=0.0)
        assert guard.guarded_key(2, 2, 0.0) == (2, False)

    def test_erosion_evicts_only_thin_margin_modes(self):
        # Mode 2 has 5 ps of guarded slack, everything else 100 ps; a
        # 20 C excursion at its peak eats 24 ps of the 1 GHz period.
        table = build_margined_table(guarded_slack_ps={2: 5.0})
        drift = FaultEvent(KIND_TEMP_DRIFT, 0.0, 200.0, magnitude=20.0)
        guard = guard_for(table, [drift])
        peak = 100.0
        assert not guard.mode_is_safe(2, peak)
        assert guard.mode_is_safe(4, peak)
        # Cheapest safe covering mode substitutes the unsafe pick.
        assert guard.guarded_key(2, 2, peak) == (4, True)
        # At the window edge the excursion is zero: mode 2 is safe again.
        assert guard.guarded_key(2, 2, 200.0) == (2, False)

    def test_headroom_tightens_the_check(self):
        table = build_margined_table(guarded_slack_ps={2: 30.0})
        guard_loose = guard_for(table)
        guard_tight = guard_for(table, headroom_ps=40.0)
        assert guard_loose.mode_is_safe(2, 0.0)
        assert not guard_tight.mode_is_safe(2, 0.0)

    def test_stuck_at_nobb_blocks_fbb_modes(self, margined_table):
        stuck = FaultEvent(KIND_STUCK_NOBB, 0.0, 100.0)
        guard = guard_for(margined_table, [stuck])
        # Mode 2 is the only NoBB mode; every FBB mode is unreachable.
        assert guard.mode_is_safe(2, 50.0)
        for bits in (4, 6, 8):
            assert not guard.mode_is_safe(bits, 50.0)
        # Nothing covering 4 bits is reachable: static fallback.
        assert guard.guarded_key(4, 4, 50.0) == (8, True)
        assert guard.guarded_key(2, 2, 50.0) == (2, False)

    def test_nothing_safe_falls_back_to_static(self):
        table = build_margined_table(
            guarded_slack_ps={2: 1.0, 4: 1.0, 6: 1.0, 8: 1.0}
        )
        drift = FaultEvent(KIND_TEMP_DRIFT, 0.0, 200.0, magnitude=50.0)
        guard = guard_for(table, [drift])
        assert guard.guarded_key(2, 2, 100.0) == (table.max_bits, True)

    def test_margin_less_table_warns_and_skips_margin_checks(
        self, synthetic_table
    ):
        drift = FaultEvent(KIND_TEMP_DRIFT, 0.0, 200.0, magnitude=60.0)
        with pytest.warns(RuntimeWarning, match="without margins"):
            guard = guard_for(synthetic_table, [drift])
        assert not guard.margins_enabled
        # Erosion is ignored (nothing to compare against)...
        assert guard.mode_is_safe(2, 100.0)
        # ...but hardware reachability still applies.
        guard = guard_for(
            synthetic_table,
            [FaultEvent(KIND_STUCK_NOBB, 0.0, 100.0)],
        )
        assert not guard.mode_is_safe(4, 50.0)

    def test_margin_warning_fires_once_per_fingerprint(self, synthetic_table):
        import warnings

        with pytest.warns(RuntimeWarning, match="without margins"):
            guard_for(synthetic_table)
        # A second guard over the same table fingerprint stays silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            guard_for(synthetic_table)
        # A different fingerprint (same design, other clock) warns anew.
        faster = dataclasses.replace(synthetic_table, fclk_ghz=2.0)
        with pytest.warns(RuntimeWarning, match="without margins"):
            guard_for(faster)
        # Resetting the dedup re-arms the original fingerprint.
        MarginGuard.reset_margin_warnings()
        with pytest.warns(RuntimeWarning, match="without margins"):
            guard_for(synthetic_table)

    def test_negative_headroom_rejected(self, margined_table):
        with pytest.raises(ValueError, match="headroom"):
            MarginGuard(margined_table, headroom_ps=-1.0)


# -- scheduler integration ---------------------------------------------------


class TestGuardedScheduler:
    def test_benign_guard_is_bit_identical_to_no_guard(self, margined_table):
        plain = ModeScheduler(margined_table)
        guarded = ModeScheduler(
            margined_table, guard=guard_for(margined_table)
        )
        requests = [(2, 500), (8, 200), (4, 900), (2, 100), (6, 400)]
        for bits, cycles in requests:
            a = plain.submit(ServeRequest("op", bits, cycles))
            b = guarded.submit(ServeRequest("op", bits, cycles))
            assert a == b
        assert plain.report("op") == guarded.report("op")

    def test_margin_fallback_is_flagged_and_counted(self):
        table = build_margined_table(guarded_slack_ps={2: 5.0})
        drift = FaultEvent(KIND_TEMP_DRIFT, 0.0, 1e6, magnitude=40.0)
        scheduler = ModeScheduler(table, guard=guard_for(table, [drift]))
        # Warm up past the window edge (erosion ~0 at start).
        served = scheduler.submit(ServeRequest("op", 2, 600_000))
        assert not served.margin_fallback
        # Mid-window the 2-bit mode is eroded away: the guard substitutes.
        served = scheduler.submit(ServeRequest("op", 2, 1000))
        assert served.margin_fallback
        assert served.served_bits >= 2
        assert served.mode is table.modes[4]
        assert scheduler.telemetry.counters["margin_fallbacks"] == 1

    def test_blocked_transition_retries_with_backoff(self, margined_table):
        block = FaultEvent(KIND_TRANSITION_TIMEOUT, 0.0, 1250.0)
        scheduler = ModeScheduler(
            margined_table,
            guard=guard_for(margined_table, [block]),
            max_transition_retries=5,
            retry_backoff_ns=100.0,
        )
        scheduler.submit(ServeRequest("op", 2, 1000))  # power-on, free
        # clock=1000 inside the blocked window [0, 1250); the backoff
        # ladder 100 then 200 lands at 1300, past the window edge.
        served = scheduler.submit(ServeRequest("op", 8, 1000))
        assert served.transition_retries == 2
        assert not served.degraded
        assert served.switched
        # The retry waits are part of the served queue wait.
        assert served.queue_wait_ns >= 300.0
        assert scheduler.telemetry.counters["transition_retries"] == 2
        assert scheduler.telemetry.counters["transition_failures"] == 0

    def test_exhausted_retry_budget_degrades(self, margined_table):
        block = FaultEvent(KIND_TRANSITION_TIMEOUT, 0.0, 1e9)
        scheduler = ModeScheduler(
            margined_table,
            guard=guard_for(margined_table, [block]),
            max_transition_retries=3,
            retry_backoff_ns=50.0,
        )
        scheduler.submit(ServeRequest("op", 2, 1000))
        served = scheduler.submit(ServeRequest("op", 4, 1000))
        assert served.degraded
        assert served.transition_retries == 3
        assert served.mode is margined_table.static_mode
        assert served.served_bits >= 4
        assert scheduler.telemetry.counters["transition_failures"] == 1

    def test_all_generators_dropped_degrades(self, margined_table):
        drops = [
            FaultEvent(KIND_GEN_DROPOUT, 0.0, 1e9, target=0),
            FaultEvent(KIND_GEN_DROPOUT, 0.0, 1e9, target=1),
        ]
        scheduler = ModeScheduler(
            margined_table,
            num_generators=2,
            guard=guard_for(margined_table, drops),
        )
        scheduler.submit(ServeRequest("op", 2, 1000))
        served = scheduler.submit(ServeRequest("op", 4, 1000))
        assert served.degraded
        assert served.mode is margined_table.static_mode
        assert scheduler.pool.dropouts == 2
        assert scheduler.pool.num_available == 0

    def test_single_dropout_serves_on_survivor(self, margined_table):
        drop = FaultEvent(KIND_GEN_DROPOUT, 0.0, 1e9, target=0)
        scheduler = ModeScheduler(
            margined_table,
            num_generators=2,
            guard=guard_for(margined_table, [drop]),
        )
        scheduler.submit(ServeRequest("op", 2, 1000))
        served = scheduler.submit(ServeRequest("op", 8, 1000))
        assert not served.degraded
        assert served.switched and served.settle_ns > 0.0
        assert scheduler.pool.dropouts == 1
        assert scheduler.pool.num_available == 1


# -- schema round-trips ------------------------------------------------------


class TestMarginSchema:
    def test_margins_round_trip(self, margined_table):
        payload = json.loads(json.dumps(margined_table.to_dict()))
        again = ModeTable.from_dict(payload)
        assert again.has_margins
        assert set(again.margins) == set(margined_table.margins)
        for bits, margin in margined_table.margins.items():
            assert again.margins[bits] == margin

    def test_margin_less_round_trip(self, synthetic_table):
        payload = json.loads(json.dumps(synthetic_table.to_dict()))
        assert payload["margins"] is None
        again = ModeTable.from_dict(payload)
        assert not again.has_margins

    def test_margin_for(self, margined_table, synthetic_table):
        assert margined_table.margin_for(2).guarded_slack_ps == 50.0
        with pytest.raises(ServeError, match="without margins"):
            synthetic_table.margin_for(2)

    def test_margin_block_must_cover_modes(self, margined_table):
        margins = dict(margined_table.margins)
        del margins[2]
        with pytest.raises(ValueError, match="margin block"):
            dataclasses.replace(margined_table, margins=margins)

    def test_margin_validation(self):
        with pytest.raises(ValueError, match="target_yield"):
            ModeMargin(1.0, 1.0, 1.0, 0.5, 1.5, 8)
        with pytest.raises(ValueError, match="samples"):
            ModeMargin(1.0, 1.0, 1.0, 0.5, 0.99, 0)


class TestHardenedLoading:
    def test_non_dict_payload(self):
        with pytest.raises(ServeError, match="JSON object"):
            ModeTable.from_dict([1, 2, 3])

    def test_unsupported_schema(self, synthetic_table):
        payload = synthetic_table.to_dict()
        payload["schema"] = 99
        with pytest.raises(ServeError, match="unsupported mode-table schema"):
            ModeTable.from_dict(payload)

    @pytest.mark.parametrize(
        "mutilate",
        [
            lambda p: p.pop("modes"),
            lambda p: p.pop("generator"),
            lambda p: p.pop("transitions"),
            lambda p: p.__setitem__("modes", {}),
            lambda p: p["transitions"].pop(),
            lambda p: p.__setitem__("fclk_ghz", "fast"),
            lambda p: p.__setitem__("modes", {"2": {"truncated": True}}),
        ],
    )
    def test_corrupt_payloads_raise_serve_error(
        self, synthetic_table, mutilate
    ):
        payload = json.loads(json.dumps(synthetic_table.to_dict()))
        mutilate(payload)
        with pytest.raises(ServeError):
            ModeTable.from_dict(payload)

    def test_serve_error_is_a_value_error(self):
        # Existing `except ValueError` callers keep working.
        assert issubclass(ServeError, ValueError)

    def test_load_mode_table_wraps_bad_json(self):
        from repro.io.results import load_mode_table

        with pytest.raises(ServeError, match="not valid JSON"):
            load_mode_table(io.StringIO('{"schema": 2, "kind":'))

    def test_load_mode_table_round_trips_margins(self, margined_table):
        from repro.io.results import load_mode_table, save_mode_table

        stream = io.StringIO()
        save_mode_table(margined_table, stream)
        stream.seek(0)
        again = load_mode_table(stream)
        assert again.has_margins
        assert again.margins == dict(margined_table.margins)


# -- compiled margins from a real design -------------------------------------


def test_compile_margins_from_real_design(library):
    from repro.core.config import ExplorationSettings
    from repro.core.exploration import ExhaustiveExplorer
    from repro.core.flow import implement_with_domains
    from repro.core.runtime import BiasGeneratorModel
    from repro.operators import adequate_adder
    from repro.pnr.grid import GridPartition
    from repro.serve.table import compile_mode_table

    design = implement_with_domains(
        lambda: adequate_adder(library, width=4, name="guard_add"),
        library,
        GridPartition(2, 1),
    )
    settings = ExplorationSettings(
        bitwidths=(1, 2, 3, 4), activity_cycles=10, activity_batch=8
    )
    result = ExhaustiveExplorer(design).run(settings)
    table = compile_mode_table(
        design,
        result,
        BiasGeneratorModel(),
        with_margins=True,
        margin_samples=8,
    )
    assert table.has_margins
    assert set(table.margins) == set(table.modes)
    for bits, margin in table.margins.items():
        # The guarded (n-sigma worst) slack can never beat the mean.
        assert margin.guarded_slack_ps <= margin.mean_slack_ps
        assert margin.samples == 8
    # Margins are deterministic and order-independent (per-mode seeds).
    again = compile_mode_table(
        design, result, BiasGeneratorModel(),
        with_margins=True, margin_samples=8,
    )
    assert again.margins == table.margins
    # And they survive the JSON round trip.
    payload = json.loads(json.dumps(table.to_dict()))
    assert ModeTable.from_dict(payload).margins == table.margins
