"""The shared-bias scheduler: differential replay, pool contention, soak."""

import numpy as np
import pytest

from repro.core.config import ExplorationSettings
from repro.core.exploration import ExhaustiveExplorer
from repro.core.runtime import AccuracyController, WorkloadPhase
from repro.serve.scheduler import (
    AccuracyViolation,
    GeneratorPool,
    ModeScheduler,
    ServeRequest,
    replay_trace,
)
from repro.serve.table import compile_mode_table
from tests.conftest import build_synthetic_table
from tests.oracles.serve import replay_reference

SETTINGS = ExplorationSettings(
    bitwidths=(2, 4, 6, 8), activity_cycles=12, activity_batch=12
)


@pytest.fixture(scope="module")
def controller(booth8_domained):
    exploration = ExhaustiveExplorer(booth8_domained).run(SETTINGS)
    return AccuracyController(booth8_domained, exploration)


def random_trace(rng, length):
    return [
        WorkloadPhase(
            required_bits=int(rng.choice(SETTINGS.bitwidths)),
            cycles=int(rng.integers(100, 50_000)),
        )
        for _ in range(length)
    ]


class TestDifferentialReplay:
    """Greedy through the scheduler == the closed-form accounting oracle."""

    def test_thirty_random_traces_bit_identical(self, controller):
        table = controller.compiled()
        rng = np.random.default_rng(2017)
        for _ in range(30):
            trace = random_trace(rng, int(rng.integers(1, 40)))
            served = replay_trace(table, trace, policy="greedy")
            oracle = replay_reference(controller, trace)
            assert served.compute_energy_j == oracle.compute_energy_j
            assert served.transition_energy_j == oracle.transition_energy_j
            assert served.transition_time_ns == oracle.transition_time_ns
            assert served.mode_switches == oracle.mode_switches
            assert served.static_energy_j == oracle.static_energy_j
            assert served.phases == oracle.phases
            assert served.total_cycles == oracle.total_cycles

    def test_controller_replay_is_the_scheduler(self, controller):
        rng = np.random.default_rng(7)
        trace = random_trace(rng, 25)
        assert replay_trace(controller.compiled(), trace) == replay_reference(
            controller, trace
        )

    def test_switches_counted_on_every_point_change(self, controller):
        """Satellite regression: a switch is the operating point changing,
        not the transition costing energy."""
        trace = [
            WorkloadPhase(required_bits=8, cycles=1_000),
            WorkloadPhase(required_bits=2, cycles=1_000),
            WorkloadPhase(required_bits=2, cycles=1_000),
            WorkloadPhase(required_bits=8, cycles=1_000),
        ]
        report = replay_trace(controller.compiled(), trace)
        distinct_points = [controller.mode_for(p.required_bits) for p in trace]
        expected = sum(
            1
            for i, point in enumerate(distinct_points)
            if i == 0 or point != distinct_points[i - 1]
        )
        assert report.mode_switches == expected
        assert report.mode_switches == replay_reference(
            controller, trace
        ).mode_switches

    def test_non_greedy_policies_reported_separately(self, controller):
        rng = np.random.default_rng(11)
        trace = random_trace(rng, 30)
        for policy in ("hysteresis", "lookahead"):
            report = replay_trace(controller.compiled(), trace, policy=policy)
            assert report.phases == len(trace)
            assert report.total_energy_j > 0.0


class TestGeneratorPool:
    def test_needs_a_generator(self):
        with pytest.raises(ValueError, match="at least one"):
            GeneratorPool(0)

    def test_serial_acquisitions_queue(self):
        pool = GeneratorPool(1)
        start1, end1, batched1 = pool.acquire(0.0, 100.0, ("a",))
        start2, end2, batched2 = pool.acquire(0.0, 100.0, ("b",))
        assert (start1, end1, batched1) == (0.0, 100.0, False)
        assert (start2, end2) == (100.0, 200.0)
        assert not batched2

    def test_compatible_slews_batch(self):
        pool = GeneratorPool(1)
        pool.acquire(0.0, 100.0, ("busy",))
        start1, end1, _ = pool.acquire(0.0, 100.0, ("target",))
        start2, end2, batched = pool.acquire(0.0, 100.0, ("target",))
        assert batched
        assert (start2, end2) == (start1, end1)
        # The batch consumed no extra generator time.
        assert pool.free_at_ns == [200.0]

    def test_started_slews_do_not_batch(self):
        pool = GeneratorPool(2)
        pool.acquire(0.0, 100.0, ("target",))  # starts immediately
        _start, _end, batched = pool.acquire(50.0, 100.0, ("target",))
        assert not batched  # mid-flight wells cannot join a slew

    def test_queue_depth_counts_only_pending(self):
        pool = GeneratorPool(1)
        pool.acquire(0.0, 100.0, ("a",))
        pool.acquire(0.0, 100.0, ("b",))
        pool.acquire(0.0, 100.0, ("c",))
        assert pool.queue_depth(0.0) == 2  # b and c wait; a is slewing
        assert pool.queue_depth(150.0) == 1  # b slewing; only c pending
        assert pool.queue_depth(1_000.0) == 0


class TestSharedPool:
    def test_power_on_bypasses_the_pool(self, synthetic_table):
        scheduler = ModeScheduler(synthetic_table, num_generators=1)
        first = scheduler.submit(ServeRequest("a", 8, 0))
        assert first.switched
        assert first.settle_ns == 0.0  # power-on default, no slew
        assert scheduler.pool.free_at_ns == [0.0]

    def test_contention_shows_up_as_queue_wait(self, synthetic_table):
        scheduler = ModeScheduler(
            synthetic_table, num_generators=1, max_queue_depth=100
        )
        # Power both operators on (free), then demand different targets
        # at virtual time zero.
        scheduler.submit(ServeRequest("a", 4, 0))
        scheduler.submit(ServeRequest("b", 2, 0))
        first = scheduler.submit(ServeRequest("a", 6, 0))
        second = scheduler.submit(ServeRequest("b", 4, 0))
        assert first.switched and second.switched
        assert first.queue_wait_ns == 0.0
        assert second.queue_wait_ns > 0.0

    def test_identical_targets_batch_across_operators(self, synthetic_table):
        scheduler = ModeScheduler(
            synthetic_table, num_generators=1, max_queue_depth=100
        )
        for op in ("warm", "a", "b"):
            scheduler.submit(ServeRequest(op, 2, 0))  # free power-on
        scheduler.submit(ServeRequest("warm", 4, 0))  # occupies the pump
        a = scheduler.submit(ServeRequest("a", 8, 0))
        b = scheduler.submit(ServeRequest("b", 8, 0))
        assert not a.batched
        assert b.batched
        assert b.queue_wait_ns > 0.0
        assert a.queue_wait_ns == b.queue_wait_ns  # same scheduled slew
        assert scheduler.telemetry.counters["batched_slews"] == 1
        # Both still paid their own well-charge energy.
        assert a.transition_energy_j > 0.0
        assert b.transition_energy_j > 0.0

    def test_free_transitions_skip_the_pool(self, synthetic_table):
        scheduler = ModeScheduler(synthetic_table, num_generators=1)
        scheduler.submit(ServeRequest("a", 8, 1_000))
        again = scheduler.submit(ServeRequest("a", 8, 1_000))
        assert not again.switched
        assert again.settle_ns == 0.0
        assert scheduler.pool.queue_depth(0.0) <= 1

    def test_per_operator_reports_are_independent(self, synthetic_table):
        scheduler = ModeScheduler(synthetic_table, num_generators=2)
        scheduler.submit(ServeRequest("a", 2, 5_000))
        scheduler.submit(ServeRequest("b", 8, 1_000))
        scheduler.submit(ServeRequest("a", 2, 5_000))
        report_a = scheduler.report("a")
        report_b = scheduler.report("b")
        assert report_a.phases == 2
        assert report_b.phases == 1
        assert report_a.total_cycles == 10_000
        assert report_b.total_cycles == 1_000


class TestDegradation:
    def test_saturation_falls_back_to_static_mode(self, synthetic_table):
        scheduler = ModeScheduler(
            synthetic_table, num_generators=1, max_queue_depth=1
        )
        # Power six operators on (free), then demand switches at virtual
        # time zero: the slews stack onto the single pump until the
        # depth bound trips.
        operators = [f"op{i}" for i in range(6)]
        for op in operators:
            scheduler.submit(ServeRequest(op, 8, 0))
        served = [
            scheduler.submit(ServeRequest(op, 2 if i % 2 else 4, 0))
            for i, op in enumerate(operators)
        ]
        degraded = [phase for phase in served if phase.degraded]
        assert degraded, "forced saturation never degraded"
        for phase in degraded:
            assert phase.served_bits == synthetic_table.max_bits
            assert phase.served_bits >= phase.required_bits
        assert scheduler.telemetry.counters["degraded"] == len(degraded)

    def test_degraded_path_is_explicit_api(self, synthetic_table):
        scheduler = ModeScheduler(synthetic_table, num_generators=1)
        served = scheduler.submit_degraded(ServeRequest("op", 2, 1_000))
        assert served.degraded
        assert served.served_bits == synthetic_table.max_bits
        report = scheduler.report("op")
        assert report.phases == 1
        assert report.mode_switches == 1

    def test_violating_policy_is_caught_centrally(self, synthetic_table):
        scheduler = ModeScheduler(synthetic_table, max_queue_depth=10)

        from repro.serve.policy import SelectionPolicy

        class Liar(SelectionPolicy):
            name = "liar"

            def decide(self, ctx):
                return 2  # always the cheapest mode, sufficient or not

        scheduler.register("op")
        scheduler._operators["op"].policy = Liar(synthetic_table)
        with pytest.raises(AccuracyViolation, match="2-bit mode"):
            scheduler.submit(ServeRequest("op", 8, 100))
        assert scheduler.telemetry.counters["accuracy_violations"] == 1


class TestValidation:
    def test_bad_requests_rejected(self):
        with pytest.raises(ValueError, match="required_bits"):
            ServeRequest("op", 0, 100)
        with pytest.raises(ValueError, match="cycles"):
            ServeRequest("op", 4, -1)

    def test_double_registration_rejected(self, synthetic_table):
        scheduler = ModeScheduler(synthetic_table)
        scheduler.register("op")
        with pytest.raises(ValueError, match="already registered"):
            scheduler.register("op")

    def test_empty_replay_rejected(self, synthetic_table):
        with pytest.raises(ValueError, match="empty"):
            replay_trace(synthetic_table, [])

    def test_bad_queue_depth_rejected(self, synthetic_table):
        with pytest.raises(ValueError, match="max_queue_depth"):
            ModeScheduler(synthetic_table, max_queue_depth=0)


class TestSoak:
    def test_three_operators_two_generators_10k_requests(
        self, synthetic_table
    ):
        """The acceptance soak: bounded queue, populated telemetry,
        degradation exercised, zero violations, no errors."""
        # With three operators a submitter can see at most two foreign
        # pending slews, so the depth bound sits right at that edge to
        # make saturation reachable.
        scheduler = ModeScheduler(
            synthetic_table,
            num_generators=2,
            policy="greedy",
            max_queue_depth=2,
        )
        rng = np.random.default_rng(42)
        bitwidths = sorted(synthetic_table.modes)
        operators = ("op0", "op1", "op2")
        total = 10_500
        served_all = []
        for index in range(total):
            request = ServeRequest(
                operators[index % 3],
                int(rng.choice(bitwidths)),
                # Mostly tiny phases: clocks barely advance, so the two
                # pumps saturate and the depth bound must engage.
                int(rng.integers(0, 50)),
            )
            served_all.append(scheduler.submit(request))

        counters = scheduler.telemetry.counters
        assert counters["requests"] == total
        assert counters["accuracy_violations"] == 0
        assert counters["degraded"] > 0, "saturation never exercised"
        assert all(
            phase.served_bits >= phase.required_bits for phase in served_all
        )
        # The depth bound held at every instant the pool was consulted.
        assert scheduler.pool.max_depth_seen <= scheduler.max_queue_depth
        # Histograms populated and self-consistent.
        telemetry = scheduler.telemetry
        assert telemetry.latency_ns.total == total
        assert telemetry.energy_pj.total == total
        # Power-on and same-rail degraded switches settle for free, so
        # the settle histogram is a subset of the switch count.
        assert 0 < telemetry.settle_ns.total <= counters["mode_switches"]
        snapshot = telemetry.snapshot()
        assert snapshot["per_operator"] == {
            "op0": 3_500, "op1": 3_500, "op2": 3_500
        }
        assert snapshot["latency_ns"]["p99"] >= snapshot["latency_ns"]["p50"]

class TestExpiryBoundaries:
    """Pruning and depth counting exactly at grant boundaries.

    The pool's windows are half-open like everything else in virtual
    time: a grant whose ``end_ns`` equals *now* is finished (pruned),
    and a grant whose ``start_ns`` equals *now* has started (it is no
    longer "pending" for the depth bound, but it can still batch).
    """

    def test_grant_ending_exactly_now_is_pruned(self):
        pool = GeneratorPool(1)
        pool.acquire(0.0, 100.0, ("a",))
        assert pool.queue_depth(99.999) == 0  # slewing, not pending
        pool._prune(100.0)
        assert pool.pending == []

    def test_grant_starting_exactly_now_is_not_pending(self):
        pool = GeneratorPool(1)
        pool.acquire(0.0, 100.0, ("a",))
        pool.acquire(0.0, 100.0, ("b",))  # queued for [100, 200)
        assert pool.queue_depth(99.999) == 1
        assert pool.queue_depth(100.0) == 0  # starts this instant
        # ...but at its exact start instant it still accepts batch joins
        # (the slew begins now; the power switches can gang on).
        _start, _end, batched = pool.acquire(100.0, 100.0, ("b",))
        assert batched

    def test_prune_keeps_in_flight_grants(self):
        pool = GeneratorPool(1)
        pool.acquire(0.0, 100.0, ("a",))
        pool._prune(50.0)
        assert len(pool.pending) == 1
        pool._prune(100.0)
        assert pool.pending == []


class TestDropoutBoundaries:
    """apply_dropouts at its edges: last survivor, restore, rebalance."""

    def test_dropping_the_only_generator_empties_the_pool(self):
        pool = GeneratorPool(1)
        pool.apply_dropouts(frozenset({0}), 0.0)
        assert pool.num_available == 0
        assert pool.dropouts == 1
        # Nothing to rebalance onto: acquire must signal "degrade".
        assert pool.acquire(0.0, 100.0, ("a",)) is None

    def test_restore_after_total_dropout(self):
        pool = GeneratorPool(1)
        pool.apply_dropouts(frozenset({0}), 0.0)
        pool.apply_dropouts(frozenset(), 10.0)
        assert pool.num_available == 1
        assert pool.acquire(10.0, 50.0, ("a",)) == (10.0, 60.0, False)
        # Dropout counter records events, not current state.
        assert pool.dropouts == 1

    def test_redropping_a_dead_generator_is_idempotent(self):
        pool = GeneratorPool(2)
        pool.apply_dropouts(frozenset({0}), 0.0)
        pool.apply_dropouts(frozenset({0}), 1.0)
        assert pool.dropouts == 1
        assert pool.num_available == 1

    def test_pending_grant_rebalances_to_survivor(self):
        pool = GeneratorPool(2)
        pool.acquire(0.0, 100.0, ("a",))  # gen 0, starts now
        pool.acquire(0.0, 100.0, ("b",))  # gen 1, starts now
        queued = pool.acquire(0.0, 100.0, ("c",))  # queued behind one
        assert queued[0] == 100.0
        victim = next(
            g.generator for g in pool.pending if g.signature == ("c",)
        )
        pool.apply_dropouts(frozenset({victim}), 0.0)
        assert pool.rebalanced_grants == 1
        survivor = 1 - victim
        moved = next(
            g for g in pool.pending if g.signature == ("c",)
        )
        assert moved.generator == survivor
        # Same 100 ns duration, restarted behind the survivor's queue.
        assert moved.end_ns - moved.start_ns == 100.0
        assert pool.free_at_ns[survivor] == moved.end_ns

    def test_in_flight_grant_stays_on_dropped_generator(self):
        pool = GeneratorPool(2)
        pool.acquire(0.0, 100.0, ("a",))  # gen 0, slewing at t=50
        pool.apply_dropouts(frozenset({0}), 50.0)
        grant = next(g for g in pool.pending if g.signature == ("a",))
        assert grant.generator == 0  # pump output held through the slew
        assert pool.rebalanced_grants == 0

    def test_grant_starting_exactly_now_is_not_rebalanced(self):
        # start_ns == now means "already started" (same half-open
        # convention as queue_depth): the slew rides out the dropout.
        pool = GeneratorPool(2)
        pool.acquire(0.0, 100.0, ("a",))
        pool.apply_dropouts(frozenset({0}), 0.0)
        grant = next(g for g in pool.pending if g.signature == ("a",))
        assert grant.generator == 0
        assert pool.rebalanced_grants == 0

    def test_total_dropout_skips_rebalancing(self):
        pool = GeneratorPool(2)
        pool.acquire(0.0, 100.0, ("a",))
        pool.acquire(0.0, 100.0, ("b",))
        queued = pool.acquire(0.0, 100.0, ("c",))
        assert queued[0] == 100.0
        pool.apply_dropouts(frozenset({0, 1}), 0.0)
        assert pool.num_available == 0
        # No survivor to move work onto; grants keep their bookkeeping.
        assert pool.rebalanced_grants == 0
        assert len(pool.pending) == 3

    def test_out_of_range_ids_are_ignored(self):
        pool = GeneratorPool(2)
        pool.apply_dropouts(frozenset({-1, 5}), 0.0)
        assert pool.num_available == 2
        assert pool.dropouts == 0


class TestDegradedAccounting:
    """submit_degraded must account telemetry and energy like any phase."""

    def test_telemetry_counters_and_histograms(self, synthetic_table):
        scheduler = ModeScheduler(synthetic_table)
        scheduler.submit_degraded(ServeRequest("op", 3, 2_000))
        scheduler.submit_degraded(ServeRequest("op", 5, 1_000))
        counters = scheduler.telemetry.counters
        assert counters["requests"] == 2
        assert counters["degraded"] == 2
        # First call switches (power-on, free); the second holds still.
        assert counters["mode_switches"] == 1
        assert scheduler.telemetry.per_operator == {"op": 2}
        assert scheduler.telemetry.latency_ns.total == 2
        assert scheduler.telemetry.energy_pj.total == 2

    def test_energy_accounting_matches_the_report(self, synthetic_table):
        scheduler = ModeScheduler(synthetic_table)
        a = scheduler.submit_degraded(ServeRequest("op", 2, 3_000))
        b = scheduler.submit_degraded(ServeRequest("op", 4, 7_000))
        static = synthetic_table.static_mode
        # Static max-accuracy mode at fclk 1 GHz: P * cycles * 1 ns.
        expected = static.total_power_w * 3_000e-9
        assert a.compute_energy_j == pytest.approx(expected)
        report = scheduler.report("op")
        assert report.phases == 2
        assert report.total_cycles == 10_000
        assert report.compute_energy_j == pytest.approx(
            a.compute_energy_j + b.compute_energy_j
        )
        # Degraded phases serve the static mode, so the static baseline
        # accrues identically: the energy saving of these phases is zero.
        assert report.static_energy_j == pytest.approx(
            report.compute_energy_j
        )
        # Telemetry histogram saw the same joules (in pJ).
        assert scheduler.telemetry.energy_pj.sum == pytest.approx(
            report.compute_energy_j * 1e12
        )

    def test_degrading_from_a_low_mode_pays_the_switch_off_pool(
        self, synthetic_table
    ):
        scheduler = ModeScheduler(synthetic_table, num_generators=1)
        scheduler.submit(ServeRequest("op", 2, 1_000))
        before_free_at = list(scheduler.pool.free_at_ns)
        served = scheduler.submit_degraded(ServeRequest("op", 2, 1_000))
        assert served.switched
        assert served.transition_energy_j > 0.0
        assert served.settle_ns > 0.0
        assert served.queue_wait_ns == 0.0
        # The static rail is the power-on default: no pump was taken.
        assert scheduler.pool.free_at_ns == before_free_at
        report = scheduler.report("op")
        assert report.mode_switches == 2
        assert report.transition_energy_j == pytest.approx(
            served.transition_energy_j
        )
        assert report.transition_time_ns == pytest.approx(served.settle_ns)
        assert scheduler.telemetry.settle_ns.total == 1

    def test_virtual_clock_advances_through_degraded_phases(
        self, synthetic_table
    ):
        scheduler = ModeScheduler(synthetic_table)
        scheduler.submit_degraded(ServeRequest("op", 2, 4_000))
        state = scheduler._operators["op"]
        assert state.clock_ns == pytest.approx(4_000.0)
        served = scheduler.submit_degraded(ServeRequest("op", 2, 1_000))
        assert served.decided_at_ns == pytest.approx(4_000.0)
