"""The fleet tier: hash ring, bus, wire codec, router and chaos audits."""

import numpy as np
import pytest

from repro.core.config import AUTO_WORKERS
from repro.faults import (
    KIND_VDD_DROOP,
    KIND_WORKER_CRASH,
    FaultEvent,
    FaultSchedule,
)
from repro.faults.chaos import recovery_schedule, run_chaos
from repro.fleet import (
    ALERT_KINDS,
    FLEET_WORKERS_ENV,
    ConsistentHashRing,
    FleetBus,
    FleetRouter,
    KIND_MARGIN_EROSION,
    resolve_fleet_workers,
    stable_hash,
)
from repro.fleet.bus import alert_code, alert_kind
from repro.fleet.worker import (
    REPLY_FLOAT_COLS,
    REPLY_INT_COLS,
    control_frame,
    decode_batch,
    decode_replies,
    encode_batch,
    encode_replies,
    parse_control,
)
from repro.serve.scheduler import ModeScheduler, ServeRequest, chaos_requests
from repro.serve.table import ModeTable
from tests.conftest import build_margined_table, build_synthetic_table

#: The fields that must replay bit-identically between a fleet and a
#: single-process scheduler.  Pool-timing fields (queue_wait_ns,
#: decided_at_ns) are intentionally excluded: each worker runs its own
#: virtual clock over a subset of operators.
DECISION_FIELDS = (
    "served_bits",
    "switched",
    "transition_energy_j",
    "compute_energy_j",
)


class TestStableHash:
    def test_deterministic_across_calls(self):
        assert stable_hash("op0") == stable_hash("op0")
        assert stable_hash("op0") != stable_hash("op1")

    def test_is_64_bit_unsigned(self):
        for key in ("", "x", "a-much-longer-operator-name"):
            assert 0 <= stable_hash(key) < 2**64


class TestConsistentHashRing:
    def test_assignment_is_deterministic(self):
        first = ConsistentHashRing(range(4))
        second = ConsistentHashRing(range(4))
        keys = [f"op{i}" for i in range(100)]
        assert [first.worker_for(k) for k in keys] == [
            second.worker_for(k) for k in keys
        ]

    def test_every_worker_gets_load(self):
        ring = ConsistentHashRing(range(4))
        load = ring.load([f"op{i}" for i in range(200)])
        assert set(load) == {0, 1, 2, 3}
        assert all(count > 0 for count in load.values())

    def test_removal_only_remaps_the_dead_workers_keys(self):
        ring = ConsistentHashRing(range(4))
        keys = [f"op{i}" for i in range(200)]
        before = {k: ring.worker_for(k) for k in keys}
        ring.remove(2)
        for key in keys:
            if before[key] != 2:
                assert ring.worker_for(key) == before[key]
            else:
                assert ring.worker_for(key) != 2

    def test_add_and_contains(self):
        ring = ConsistentHashRing([0, 1])
        assert len(ring) == 2 and 1 in ring and 5 not in ring
        ring.add(5)
        assert 5 in ring
        load = ring.load([f"op{i}" for i in range(300)])
        assert load.get(5, 0) > 0

    def test_refuses_to_remove_last_worker(self):
        ring = ConsistentHashRing([3])
        with pytest.raises(ValueError, match="last"):
            ring.remove(3)


class TestFleetBus:
    def test_post_advances_epoch_and_round_trips(self):
        bus = FleetBus()
        assert bus.epoch == 0
        epoch = bus.post(KIND_MARGIN_EROSION, origin=1)
        assert epoch == 1
        seen_epoch, kind, origin = bus.read()
        assert (seen_epoch, kind, origin) == (1, KIND_MARGIN_EROSION, 1)
        assert bus.post(KIND_MARGIN_EROSION, origin=0) == 2

    def test_margin_state_round_trips_with_its_own_epoch(self):
        bus = FleetBus(num_modes=3)
        assert bus.recal_epoch == 0
        epoch = bus.post_margins([48.0, 30.5, 12.0], [True, False, True], 1)
        assert epoch == 1
        seen, estimates, admissible, origin = bus.read_margins()
        assert seen == 1
        assert estimates == [48.0, 30.5, 12.0]
        assert admissible == [True, False, True]
        assert origin == 1
        # The margin epoch is independent of the alert epoch.
        bus.post(KIND_MARGIN_EROSION, origin=0)
        assert bus.recal_epoch == 1

    def test_margin_post_validates_shape(self):
        with pytest.raises(ValueError, match="num_modes"):
            FleetBus().post_margins([1.0], [True], 0)
        bus = FleetBus(num_modes=2)
        with pytest.raises(ValueError, match="mode count"):
            bus.post_margins([1.0], [True], 0)

    def test_alert_codes_round_trip_every_kind(self):
        for kind in ALERT_KINDS:
            assert alert_kind(alert_code(kind)) == kind

    def test_margin_erosion_is_an_alert_kind(self):
        assert KIND_MARGIN_EROSION in ALERT_KINDS


class TestWireCodec:
    def test_batch_frame_round_trips(self):
        triples = np.array([[0, 4, 100], [1, 8, 2000]], dtype="<i8")
        assert np.array_equal(decode_batch(encode_batch(triples)), triples)

    def test_reply_frame_round_trips(self):
        ints = np.arange(2 * REPLY_INT_COLS, dtype="<i8").reshape(2, -1)
        floats = np.linspace(
            0.0, 1.0, 2 * REPLY_FLOAT_COLS
        ).reshape(2, -1)
        out_ints, out_floats = decode_replies(encode_replies(ints, floats))
        assert np.array_equal(out_ints, ints)
        assert np.array_equal(out_floats, floats)

    def test_control_frame_round_trips(self):
        payload = {"cmd": "stats", "nested": {"x": [1, 2]}}
        assert parse_control(control_frame(payload)) == payload


class TestWorkerCountResolution:
    def test_explicit_count_wins(self, monkeypatch):
        monkeypatch.setenv(FLEET_WORKERS_ENV, "7")
        assert resolve_fleet_workers(3) == 3

    def test_auto_reads_environment(self, monkeypatch):
        monkeypatch.setenv(FLEET_WORKERS_ENV, "5")
        assert resolve_fleet_workers(AUTO_WORKERS) == 5

    def test_auto_without_env_uses_cpu_count(self, monkeypatch):
        monkeypatch.delenv(FLEET_WORKERS_ENV, raising=False)
        assert resolve_fleet_workers(AUTO_WORKERS) >= 1

    def test_bad_override_names_the_variable(self, monkeypatch):
        monkeypatch.setenv(FLEET_WORKERS_ENV, "many")
        with pytest.raises(ValueError, match="must be an integer"):
            resolve_fleet_workers(AUTO_WORKERS)


def reference_decisions(table, trace):
    """What one single-process scheduler decides for *trace*, in order."""
    scheduler = ModeScheduler(table, num_generators=2)
    decisions = []
    for operator, bits, cycles in trace:
        served = scheduler.submit(ServeRequest(operator, bits, cycles))
        decisions.append(
            tuple(getattr(served, field) for field in DECISION_FIELDS)
        )
    return decisions


class TestFleetDifferential:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_fleet_decisions_bit_identical_to_single_scheduler(
        self, workers
    ):
        table = build_synthetic_table()
        trace = list(chaos_requests(table, 8, 300, seed=11))
        expected = reference_decisions(table, trace)
        with FleetRouter(table, workers=workers) as router:
            phases = router.submit_many(trace)
        assert len(phases) == len(trace)
        for phase, want in zip(phases, expected):
            got = tuple(
                getattr(phase, field) for field in DECISION_FIELDS
            )
            assert got == want  # bit-identical, not approx

    def test_workers_map_the_segment_with_zero_json_parses(self):
        table = build_synthetic_table()
        with FleetRouter(table, workers=2) as router:
            router.submit_many(list(chaos_requests(table, 4, 64, seed=3)))
            stats = router.stats()
            # Owner mapping plus one attach per worker.
            assert stats["attach_count"] == 3
            assert stats["num_workers"] == 2
            for worker in stats["workers"]:
                assert worker["parse"] == {"json": 0, "shared": 1}

    def test_operator_routing_is_sticky(self):
        table = build_synthetic_table()
        with FleetRouter(table, workers=3) as router:
            trace = list(chaos_requests(table, 6, 90, seed=5))
            phases = router.submit_many(trace)
            owners = {}
            for phase in phases:
                assert router.worker_for(phase.operator) == phase.worker_id
                owners.setdefault(phase.operator, phase.worker_id)
                assert owners[phase.operator] == phase.worker_id

    def test_stats_refused_while_queued(self):
        table = build_synthetic_table()
        with FleetRouter(table, workers=2) as router:
            router._workers[0].queue.append((0, 0, 4, 100))
            with pytest.raises(RuntimeError, match="in flight"):
                router.stats()
            router._workers[0].queue.clear()


class TestFailover:
    def test_killed_worker_fails_over_and_everything_is_served(self):
        table = build_synthetic_table()
        trace = list(chaos_requests(table, 8, 60, seed=9))
        with FleetRouter(table, workers=3) as router:
            router.submit_many(trace[:20])
            victim = router.worker_for(trace[0][0])
            router._workers[victim].process.kill()
            router._workers[victim].process.join()
            phases = router.submit_many(trace[20:])
            segment = router.segment_name
            assert len(phases) == 40
            assert all(p is not None for p in phases)
            assert router.failovers == 1
            assert victim not in router.alive_workers
            for phase in phases:
                assert phase.served_bits >= phase.required_bits
        # The fleet shut down cleanly: the segment is gone.
        with pytest.raises(ValueError, match="gone or already unlinked"):
            ModeTable.from_shared(segment)

    def test_propagation_bound_formula(self):
        table = build_synthetic_table()
        router = FleetRouter(
            table, workers=4, batch_window=8, max_inflight=3
        )
        assert router.propagation_bound == 4 * 3 * 8


def droop_schedule() -> FaultSchedule:
    """A deep droop across the whole soak: every decision on worker 0
    sees eroded margins and falls back, so alerts post early."""
    return FaultSchedule(
        [FaultEvent(KIND_VDD_DROOP, 0.0, 1e9, magnitude=0.08)]
    )


def fleet_soak(table, schedule, **kwargs):
    """The fleet half of a chaos run: its counts, after its invariants
    held."""
    report = run_chaos(table, schedule, **kwargs)
    assert all(report.invariants["fleet"].values()), report.describe()
    return report.counts["fleet"]


class TestFleetChaos:
    def test_margin_event_degrades_every_peer_within_bound(self):
        fleet = fleet_soak(
            build_margined_table(),
            droop_schedule(),
            fleet_workers=2,
            fleet_requests=512,
            seed=7,
        )
        assert fleet["fleet_alerts"] >= 1
        assert fleet["fleet_retreats"] >= 1
        assert fleet["peers_retreated"]
        assert 0 <= fleet["worst_propagation"] <= fleet["propagation_bound"]

    def test_crash_plus_droop_soak_survives_with_failover(self):
        schedule = FaultSchedule(
            [
                FaultEvent(KIND_VDD_DROOP, 0.0, 1e9, magnitude=0.08),
                FaultEvent(KIND_WORKER_CRASH, 4e8, 1.0, target=1),
            ]
        )
        fleet = fleet_soak(
            build_margined_table(),
            schedule,
            fleet_workers=3,
            fleet_requests=512,
            seed=13,
        )
        assert fleet["workers_killed"] == 1
        assert fleet["failovers"] == 1
        assert fleet["unanswered_requests"] == 0

    def test_recal_epochs_converge_within_propagation_bound(self):
        """Worker 0 probes and posts committed margin states; every
        guarded peer must adopt each epoch within the same bounded
        window the degradation signal already guarantees."""
        horizon = 3e5
        fleet = fleet_soak(
            build_margined_table(),
            recovery_schedule(horizon, 60.0, relapse=True, seed=1),
            fleet_workers=2,
            fleet_requests=2048,
            seed=7,
            recalibrate=True,
            recal_interval_ns=horizon / 32,
        )
        assert fleet["recal_enabled"]
        assert fleet["bus_recal_epoch"] > 0
        assert fleet["fleet_margin_syncs"] >= 1
        assert fleet["recal_converged"]
        assert 0 <= fleet["worst_recal_lag"] <= fleet["propagation_bound"]

    def test_rejects_unmargined_tables_and_lone_workers(self):
        with pytest.raises(ValueError, match="margined"):
            run_chaos(
                build_synthetic_table(), droop_schedule(), fleet_workers=2
            )
        with pytest.raises(ValueError, match="two workers"):
            run_chaos(
                build_margined_table(), droop_schedule(), fleet_workers=1
            )
