"""Closed-loop recalibration: canary probes, margin learning, re-advance.

Pins the whole PR-8 control loop: the seeded golden-vector probe, the
asymmetric EWMA margin learner with demote/re-advance hysteresis, the
virtual-time cadence driving it, its integration with the scheduler
(probe-before-decision, epoch-keyed compiled-mask refresh, scalar frame
fallback) and the server's ``recalibrate`` command.  The hypothesis
block at the bottom holds the accuracy invariant the module is built
around: a learned margin can only *restrict* relative to the
compile-time sign-off floor, under any seeded fault schedule, at any
instant.
"""

import asyncio
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import (
    FaultEvent,
    FaultSchedule,
    KIND_STUCK_NOBB,
    KIND_TEMP_DRIFT,
    SiliconEnvironment,
)
from repro.serve import (
    MarginGuard,
    MarginLearner,
    ModeScheduler,
    RecalibrationError,
    RecalibrationLoop,
    ServeError,
    ServeRequest,
    run_canary_probe,
)
from repro.serve.server import AccuracyServer

from .conftest import build_margined_table, build_synthetic_table

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)

#: Shared fixtures are cheap to build; hypothesis examples reuse this.
TABLE = build_margined_table()


def benign_env():
    return SiliconEnvironment(FaultSchedule([]))


def excursion_env(start_ns=0.0, duration_ns=200.0, magnitude=60.0):
    """A temp excursion eating up to 72 ps at 1 GHz -- past the 50 ps
    sign-off margin of the synthetic table at the window midpoint."""
    return SiliconEnvironment(
        FaultSchedule(
            [FaultEvent(KIND_TEMP_DRIFT, start_ns, duration_ns, magnitude)]
        )
    )


# -- the canary probe --------------------------------------------------------


class TestCanaryProbe:
    def test_margin_less_table_refuses(self):
        with pytest.raises(RecalibrationError, match="without margins"):
            run_canary_probe(
                build_synthetic_table(), benign_env(), 2, 0.0
            )

    def test_needs_at_least_one_vector(self):
        with pytest.raises(ValueError, match="probe vector"):
            run_canary_probe(TABLE, benign_env(), 2, 0.0, vectors=0)

    def test_benign_probe_observes_signoff_slack(self):
        result = run_canary_probe(TABLE, benign_env(), 4, 0.0, vectors=8)
        assert result.bits_key == 4
        assert result.observed_slack_ps == pytest.approx(50.0)
        assert result.functional_ok
        assert result.probe_cycles == 8
        # 8 cycles at 1 GHz at the 4-bit mode's 2 mW operating point.
        assert result.probe_energy_j == pytest.approx(2.0e-3 * 8e-9)

    def test_probe_is_deterministic(self):
        a = run_canary_probe(TABLE, benign_env(), 4, 0.0, seed=7, epoch=3)
        b = run_canary_probe(TABLE, benign_env(), 4, 0.0, seed=7, epoch=3)
        assert a == b

    def test_eroded_margin_fails_functionally(self):
        env = excursion_env()
        # Midpoint: 72 ps erosion against a 50 ps sign-off margin.
        result = run_canary_probe(TABLE, env, 2, 100.0)
        assert result.observed_slack_ps == pytest.approx(-22.0)
        assert not result.functional_ok
        # Window edge: triangular ramp is zero, the canary passes.
        edge = run_canary_probe(TABLE, env, 2, 200.0)
        assert edge.observed_slack_ps == pytest.approx(50.0)
        assert edge.functional_ok

    def test_stuck_at_nobb_fails_fbb_modes_outright(self):
        env = SiliconEnvironment(
            FaultSchedule([FaultEvent(KIND_STUCK_NOBB, 0.0, 100.0)])
        )
        # Mode 4 uses FBB: unreachable despite a comfortable margin.
        assert not run_canary_probe(TABLE, env, 4, 50.0).functional_ok
        # Mode 2 is NoBB: unaffected.
        assert run_canary_probe(TABLE, env, 2, 50.0).functional_ok


# -- the margin learner ------------------------------------------------------


class TestMarginLearner:
    def test_ctor_validation(self):
        with pytest.raises(RecalibrationError, match="without margins"):
            MarginLearner(build_synthetic_table())
        with pytest.raises(ValueError, match="alpha"):
            MarginLearner(TABLE, alpha=0.0)
        with pytest.raises(ValueError, match="bias_ps"):
            MarginLearner(TABLE, bias_ps=-1.0)
        with pytest.raises(ValueError, match="readvance_probes"):
            MarginLearner(TABLE, readvance_probes=0)

    def test_fast_attack_adopts_degradation_immediately(self):
        learner = MarginLearner(TABLE, bias_ps=2.0)
        learner.observe(2, 20.0, True)
        assert learner.effective_margin_ps(2) == pytest.approx(18.0)

    def test_slow_release_earns_recovery(self):
        learner = MarginLearner(TABLE, alpha=0.25, bias_ps=2.0)
        learner.observe(2, 20.0, True)
        learner.observe(2, 40.0, True)
        # Estimate moves a quarter of the 20 ps gap: 25 ps.
        assert learner.effective_margin_ps(2) == pytest.approx(23.0)

    def test_estimate_clamped_to_signoff_floor(self):
        learner = MarginLearner(TABLE, bias_ps=0.0)
        for _ in range(50):
            learner.observe(2, 500.0, True)
        assert learner.effective_margin_ps(2) == pytest.approx(50.0)

    def test_failed_probe_demotes_on_the_spot(self):
        learner = MarginLearner(TABLE)
        assert learner.admissible(2)
        assert not learner.observe(2, -5.0, False)
        assert not learner.admissible(2)
        assert learner.demotions == 1
        assert learner.healthy_streak(2) == 0

    def test_readvance_needs_full_healthy_streak(self):
        learner = MarginLearner(TABLE, readvance_probes=3, bias_ps=2.0)
        learner.observe(2, -5.0, False)
        learner.observe(2, 48.0, True)
        learner.observe(2, 48.0, True)
        assert not learner.admissible(2)
        # A relapse mid-streak resets the count.
        learner.observe(2, -5.0, False)
        learner.observe(2, 48.0, True)
        learner.observe(2, 48.0, True)
        assert not learner.admissible(2)
        learner.observe(2, 48.0, True)
        assert learner.admissible(2)
        assert learner.readvances == 1
        # The relapse happened while still restricted: one demotion,
        # counted at the transition into the restricted state.
        assert learner.demotions == 1

    def test_healthy_requires_bias_above_safe_floor(self):
        learner = MarginLearner(TABLE, bias_ps=2.0)
        # Functionally fine, but 5 - 2 < the guard's 10 ps headroom.
        assert not learner.observe(2, 5.0, True, safe_floor_ps=10.0)
        assert not learner.admissible(2)

    def test_state_round_trips_through_adopt(self):
        src = MarginLearner(TABLE)
        src.observe(2, 30.0, True)
        src.observe(4, -1.0, False)
        src.commit()
        estimates, admissible = src.state_arrays()
        dst = MarginLearner(TABLE)
        dst.adopt(estimates, admissible, src.epoch)
        assert dst.epoch == src.epoch
        for key in src.keys:
            assert dst.effective_margin_ps(key) == pytest.approx(
                src.effective_margin_ps(key)
            )
            assert dst.admissible(key) == src.admissible(key)
            assert dst.healthy_streak(key) == 0

    def test_adopt_clamps_to_local_floor_and_validates_length(self):
        learner = MarginLearner(TABLE, bias_ps=0.0)
        learner.adopt([999.0] * len(learner.keys), [True] * 4, 5)
        for key in learner.keys:
            assert learner.effective_margin_ps(key) <= 50.0
        with pytest.raises(ValueError, match="mode count"):
            learner.adopt([1.0], [True], 6)


# -- guard integration -------------------------------------------------------


class TestGuardWithLearner:
    def test_learner_must_match_the_table(self):
        guard = MarginGuard(TABLE)
        with pytest.raises(ServeError, match="different mode table"):
            guard.attach_learner(MarginLearner(build_margined_table()))

    def test_inadmissible_mode_is_unsafe_even_when_benign(self):
        guard = MarginGuard(TABLE)
        learner = MarginLearner(TABLE)
        guard.attach_learner(learner)
        assert guard.mode_is_safe(2, 0.0)
        learner.observe(2, -5.0, False)
        assert not guard.mode_is_safe(2, 0.0)
        # The compile-time check alone would still have passed.
        assert MarginGuard(TABLE).mode_is_safe(2, 0.0)

    def test_learned_margin_only_restricts(self):
        guard = MarginGuard(TABLE, headroom_ps=10.0)
        learner = MarginLearner(TABLE, bias_ps=2.0)
        guard.attach_learner(learner)
        # Learned 8 - 2 = 6 ps effective: below the 10 ps headroom.
        learner.observe(2, 8.0, True)
        assert not guard.mode_is_safe(2, 0.0)

    def test_margin_epoch_tracks_the_learner(self):
        guard = MarginGuard(TABLE)
        assert guard.margin_epoch == 0
        learner = MarginLearner(TABLE)
        guard.attach_learner(learner)
        learner.commit()
        assert guard.margin_epoch == 1

    def test_retreat_only_guard_latches_and_is_time_variant(self):
        guard = MarginGuard(
            TABLE, excursion_env(), retreat_only=True
        )
        assert not guard.is_time_invariant
        assert not guard.mode_is_safe(2, 100.0)  # mid-excursion
        # Recovered silicon, but the baseline never re-advances.
        assert not guard.mode_is_safe(2, 500.0)
        assert MarginGuard(TABLE, excursion_env()).mode_is_safe(2, 500.0)


# -- the recalibration loop --------------------------------------------------


class TestRecalibrationLoop:
    def make_loop(self, env=None, **kwargs):
        guard = MarginGuard(TABLE, env if env is not None else benign_env())
        kwargs.setdefault("interval_ns", 1_000.0)
        return RecalibrationLoop(guard, **kwargs)

    def test_ctor_validation(self):
        with pytest.raises(ValueError, match="margin guard"):
            RecalibrationLoop(None, 1_000.0)
        guard = MarginGuard(TABLE)
        with pytest.raises(ValueError, match="interval_ns"):
            RecalibrationLoop(guard, 0.0)

    def test_cadence_probes_once_per_due_crossing(self):
        loop = self.make_loop()
        assert not loop.due(999.0)
        assert loop.maybe_recalibrate(999.0) is None
        assert loop.maybe_recalibrate(1_000.0) == 1
        # Many skipped intervals still cost exactly one probe round.
        assert loop.maybe_recalibrate(7_500.0) == 2
        assert loop.next_due_ns == 8_000.0
        assert loop.probes_run == 2 * len(TABLE.modes)

    def test_injected_failure_raises_and_is_swallowed_by_maybe(self):
        from repro.serve.telemetry import Telemetry

        loop = self.make_loop()
        telemetry = Telemetry()
        loop.inject_failure()
        with pytest.raises(RecalibrationError, match="injected"):
            loop.recalibrate(0.0, telemetry)
        assert loop.failures == 1
        assert telemetry.counters["recal_failures"] == 1
        loop.inject_failure()
        assert loop.maybe_recalibrate(2_000.0, telemetry) is None
        # The loop recovers on the next round.
        assert loop.maybe_recalibrate(3_000.0, telemetry) == 1
        assert telemetry.counters["recal_epochs"] == 1
        assert telemetry.counters["recal_probes"] == len(TABLE.modes)

    def test_probe_cost_is_accounted(self):
        from repro.serve.telemetry import Telemetry

        telemetry = Telemetry()
        loop = self.make_loop(probe_vectors=8)
        loop.recalibrate(0.0, telemetry)
        # 8 cycles per mode at 1 GHz over the 1+2+3+4 mW modes.
        assert loop.probe_energy_j == pytest.approx(10.0e-3 * 8e-9)
        assert loop.probe_cycles == 8 * len(TABLE.modes)
        assert telemetry.probe_energy_pj.to_dict()["count"] == 1

    def test_snapshot_shape(self):
        loop = self.make_loop()
        loop.recalibrate(0.0)
        snap = loop.snapshot()
        assert snap["epoch"] == 1
        assert snap["probes_run"] == len(TABLE.modes)
        assert snap["failures"] == 0
        assert set(snap["margins_ps"]) == {"2", "4", "6", "8"}
        assert snap["restricted"] == []
        json.dumps(snap)  # wire-ready

    def test_excursion_demotes_then_readvances(self):
        loop = self.make_loop(
            excursion_env(0.0, 10_000.0, 60.0), readvance_probes=2
        )
        loop.recalibrate(5_000.0)  # midpoint: 72 ps erosion
        assert loop.snapshot()["restricted"] == [2, 4, 6, 8]
        loop.recalibrate(12_000.0)  # recovered, streak 1
        assert loop.snapshot()["restricted"] == [2, 4, 6, 8]
        loop.recalibrate(13_000.0)  # streak 2: re-advance
        assert loop.snapshot()["restricted"] == []
        assert loop.learner.readvances == len(TABLE.modes)


# -- scheduler integration ---------------------------------------------------


def make_guarded_scheduler(env, interval_ns=1_000.0, **recal_kwargs):
    guard = MarginGuard(TABLE, env)
    recal = RecalibrationLoop(guard, interval_ns, **recal_kwargs)
    return ModeScheduler(TABLE, guard=guard, recal=recal), guard, recal


class TestScheduledRecalibration:
    def test_recal_requires_its_own_guard(self):
        guard = MarginGuard(TABLE)
        recal = RecalibrationLoop(guard, 1_000.0)
        with pytest.raises(ValueError, match="requires a margin guard"):
            ModeScheduler(TABLE, recal=recal)
        with pytest.raises(ValueError, match="different guard"):
            ModeScheduler(TABLE, guard=MarginGuard(TABLE), recal=recal)

    def test_probe_runs_before_the_decision(self):
        """The margin epoch committed by a due probe governs the very
        request whose submission made it due -- including the learner's
        hysteresis keeping a recovered mode out until the streak fills."""
        scheduler, guard, recal = make_guarded_scheduler(
            excursion_env(0.0, 10_000.0, 60.0), readvance_probes=2
        )
        # Window edge: erosion 0, probe not yet due.
        first = scheduler.submit(ServeRequest("op", 2, 4_000))
        assert not first.margin_fallback
        assert recal.learner.epoch == 0
        # Mid-window: the probe demotes everything, the same submit's
        # decision then has to take the static fallback.
        second = scheduler.submit(ServeRequest("op", 2, 1_000))
        assert recal.learner.epoch == 1
        assert second.margin_fallback
        # Jump past the excursion; one more probe fails mid-window first.
        scheduler.submit(ServeRequest("op", 2, 10_000))
        # Recovered silicon, but streak 1 < 2: the learner still
        # restricts what the compile-time check would admit.
        fourth = scheduler.submit(ServeRequest("op", 2, 1_000))
        assert fourth.margin_fallback
        now = scheduler.latest_clock_ns()
        assert MarginGuard(
            TABLE, excursion_env(0.0, 10_000.0, 60.0)
        ).mode_is_safe(2, now)
        # Streak 2: re-advanced before this request's decision.
        fifth = scheduler.submit(ServeRequest("op", 2, 1_000))
        assert not fifth.margin_fallback
        assert fifth.served_bits == 2
        counters = scheduler.telemetry.counters
        assert counters["recal_epochs"] == 4
        assert counters["recal_probes"] == 4 * len(TABLE.modes)
        assert counters["recal_demotions"] == len(TABLE.modes)
        assert counters["recal_readvances"] == len(TABLE.modes)

    def test_batch_engine_matches_scalar_with_recal(self):
        """A local probe loop forces the scalar frame path: batched
        submits stay bit-identical to the scalar reference."""
        requests = [
            ServeRequest("op", bits, cycles)
            for bits, cycles in [(2, 800), (8, 300), (4, 2_000), (2, 500)]
        ]
        env = excursion_env(0.0, 2_000.0, 60.0)
        batch, _, _ = make_guarded_scheduler(env)
        scalar, _, _ = make_guarded_scheduler(env)
        served_batch = batch.submit_batch(requests)
        served_scalar = [scalar.submit(r) for r in requests]
        assert served_batch == served_scalar
        assert (
            batch.telemetry.counters["recal_epochs"]
            == scalar.telemetry.counters["recal_epochs"]
        )

    def test_epoch_keyed_mask_refresh_follows_adopted_state(self):
        """A guard with a *passively adopted* learner (the fleet-peer
        shape) stays batch-eligible; the compiled availability mask must
        chase the learner's epoch, both into and out of a demotion."""
        guard = MarginGuard(TABLE)
        learner = MarginLearner(TABLE, readvance_probes=1)
        guard.attach_learner(learner)
        scheduler = ModeScheduler(TABLE, guard=guard)
        served = scheduler.submit_batch([ServeRequest("op", 2, 500)])
        assert served[0].served_bits == 2
        # Demote mode 2 (a peer's committed verdict arriving on the bus).
        learner.observe(2, -5.0, False)
        learner.commit()
        served = scheduler.submit_batch([ServeRequest("op", 2, 500)])
        assert served[0].margin_fallback
        assert served[0].served_bits >= 4
        # Re-advance: the next epoch re-admits the aggressive mode.
        learner.observe(2, 48.0, True)
        learner.commit()
        served = scheduler.submit_batch([ServeRequest("op", 2, 500)])
        assert not served[0].margin_fallback
        assert served[0].served_bits == 2


# -- the server command ------------------------------------------------------


def run(coroutine):
    return asyncio.run(coroutine)


class TestServerRecalibrate:
    def make_server(self, with_recal=True):
        if with_recal:
            scheduler, _, _ = make_guarded_scheduler(benign_env())
        else:
            scheduler = ModeScheduler(build_synthetic_table())
        return AccuracyServer(scheduler)

    def test_no_loop_is_a_recoverable_error_frame(self):
        server = self.make_server(with_recal=False)
        reply = server.recalibrate()
        assert reply["error"]["kind"] == "recalibration_failed"
        assert reply["error"]["recoverable"]
        assert "recal-interval" in reply["error"]["message"]
        assert server.scheduler.telemetry.counters["errors"] == 1

    def test_wire_command_round_trip(self):
        server = self.make_server()

        async def body():
            reply = await server._handle_line(b'{"cmd": "recalibrate"}\n')
            assert reply["recalibrated"]["epoch"] == 1
            assert reply["recalibrated"]["restricted"] == []
            # A failing probe answers with the structured frame and the
            # connection-visible state recovers on the next command.
            server.scheduler.recal.inject_failure()
            reply = await server._handle_line(b'{"cmd": "recalibrate"}\n')
            assert reply["error"]["kind"] == "recalibration_failed"
            assert reply["error"]["recoverable"]
            reply = await server._handle_line(b'{"cmd": "recalibrate"}\n')
            assert reply["recalibrated"]["epoch"] == 2

        run(body())


# -- the accuracy invariant, property-style ----------------------------------


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    probe_times=st.lists(
        st.floats(min_value=0.0, max_value=1.2e5),
        min_size=1,
        max_size=6,
    ),
    check_times=st.lists(
        st.floats(min_value=0.0, max_value=1.5e5),
        min_size=1,
        max_size=8,
    ),
)
@PROPERTY_SETTINGS
def test_learned_safe_implies_signoff_safe(seed, probe_times, check_times):
    """Under ANY seeded fault schedule and ANY probe history, a mode the
    learned guard admits is also admitted by a fresh compile-time-only
    oracle at the same instant -- the sign-off floor is never crossed."""
    schedule = FaultSchedule.generate(seed, horizon_ns=1e5)
    guard = MarginGuard(TABLE, SiliconEnvironment(schedule))
    loop = RecalibrationLoop(guard, interval_ns=1_000.0, seed=seed)
    for now in sorted(probe_times):
        loop.recalibrate(now)
    oracle = MarginGuard(TABLE, SiliconEnvironment(schedule))
    for now in check_times:
        for bits in TABLE.modes:
            if guard.mode_is_safe(bits, now):
                assert oracle.mode_is_safe(bits, now)


@given(
    observations=st.lists(
        st.floats(min_value=-1e4, max_value=1e4),
        min_size=1,
        max_size=50,
    )
)
@PROPERTY_SETTINGS
def test_effective_margin_never_exceeds_signoff(observations):
    learner = MarginLearner(TABLE, bias_ps=0.0)
    floors = {k: TABLE.margins[k].guarded_slack_ps for k in learner.keys}
    for value in observations:
        learner.observe(4, value, True)
        estimates, _ = learner.state_arrays()
        for key, estimate in zip(learner.keys, estimates):
            assert estimate <= floors[key]
            assert learner.effective_margin_ps(key) <= floors[key]


@given(
    outcomes=st.lists(st.booleans(), min_size=1, max_size=30),
    readvance=st.integers(min_value=1, max_value=5),
)
@PROPERTY_SETTINGS
def test_readvance_hysteresis_prevents_flapping(outcomes, readvance):
    """Admissibility flips back only after `readvance` consecutive
    healthy probes -- checked against an independent reference model."""
    learner = MarginLearner(TABLE, readvance_probes=readvance, bias_ps=2.0)
    restricted, streak = False, 0
    for healthy in outcomes:
        learner.observe(2, 48.0 if healthy else -10.0, healthy)
        if healthy:
            streak += 1
            if restricted and streak >= readvance:
                restricted = False
        else:
            restricted, streak = True, 0
        assert learner.admissible(2) == (not restricted)
        assert learner.healthy_streak(2) == streak
