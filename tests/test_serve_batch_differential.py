"""Differential wall: the batched serve kernel vs the scalar reference.

Every test here runs the same work twice -- once through the
per-request ``submit`` oracles of :mod:`tests.oracles.serve` and once
through the batched array kernel -- and asserts **bit identity**:
equal ServedPhase streams, equal telemetry snapshots (histogram float
sums included), equal per-operator reports.  This is the serve-tier
analogue of ``tests/test_sta_lattice_differential.py``.

Covered surfaces: trace replay for all four policies (the learned
policy's deeper differential lives in ``tests/test_serve_learned.py``),
multi-operator frames with pool contention and queue-depth degradation,
array-out serving, the time-invariant margin guard (including
statically unsafe modes), the scalar fallback under a time-varying
fault schedule, exception parity for uncoverable requests, the replay
CLI, and a real 2-worker fleet.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.runtime import BiasGeneratorModel, WorkloadPhase
from repro.faults.environment import SiliconEnvironment
from repro.faults.events import KIND_TEMP_DRIFT, FaultEvent, FaultSchedule
from repro.io.results import save_mode_table
from repro.serve import (
    MarginGuard,
    ModeScheduler,
    ServeRequest,
    replay_trace,
)
from repro.serve.scheduler import GeneratorPool
from repro.serve.server import phase_to_dict
from tests.conftest import (
    build_learned_table,
    build_margined_table,
    build_synthetic_table,
)
from tests.oracles.serve import (
    ScalarFrameScheduler,
    force_per_request_fleet,
    pool_state,
    replay_scalar,
)

POLICIES = ("greedy", "hysteresis", "lookahead")
BITWIDTHS = (2, 4, 6, 8)


def phase_trace(length, seed=7, bits_pool=BITWIDTHS, max_run=6):
    """Phase-structured workload: runs of equal bits, varying cycles."""
    rng = np.random.default_rng(seed)
    phases = []
    while len(phases) < length:
        bits = int(rng.choice(bits_pool))
        for _ in range(int(rng.integers(1, max_run))):
            phases.append(
                WorkloadPhase(
                    required_bits=bits, cycles=int(rng.integers(0, 50_000))
                )
            )
            if len(phases) == length:
                break
    return phases


def request_mix(length, operators, seed=11, bits_pool=BITWIDTHS):
    rng = np.random.default_rng(seed)
    return [
        ServeRequest(
            operators[int(rng.integers(0, len(operators)))],
            int(rng.choice(bits_pool)),
            int(rng.integers(0, 5_000)),
        )
        for _ in range(length)
    ]


def twin_schedulers(
    table_factory=build_synthetic_table, guard_factory=None, **kwargs
):
    """Identical schedulers (separate tables/guards): the per-request
    oracle first, the batched kernel second."""
    pair = []
    for kind in (ScalarFrameScheduler, ModeScheduler):
        table = table_factory()
        guard = guard_factory(table) if guard_factory is not None else None
        pair.append(kind(table, guard=guard, **kwargs))
    return pair


def assert_schedulers_equal(scalar, batch):
    assert scalar.telemetry.snapshot() == batch.telemetry.snapshot()
    assert sorted(scalar.operators) == sorted(batch.operators)
    for operator in scalar.operators:
        assert scalar.report(operator) == batch.report(operator)
    assert pool_state(scalar) == pool_state(batch)


class TestReplayDifferential:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("length", [1, 2, 7, 63, 400])
    def test_reports_bit_identical(self, policy, length):
        table = build_synthetic_table()
        trace = phase_trace(length, seed=length)
        scalar = replay_scalar(table, trace, policy=policy)
        batch = replay_trace(table, trace, policy=policy)
        assert scalar == batch

    @pytest.mark.parametrize("policy", POLICIES)
    def test_adversarial_alternating_trace(self, policy):
        # Every request switches: the worst case for run-length collapse.
        trace = [
            WorkloadPhase(required_bits=BITWIDTHS[i % 4], cycles=1_000 + i)
            for i in range(120)
        ]
        table = build_synthetic_table()
        assert replay_scalar(
            table, trace, policy=policy
        ) == replay_trace(table, trace, policy=policy)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_uncovered_bits_still_covered_identically(self, policy):
        # Bits 1/3/5/7 have no exact mode; the cover table must match
        # mode_key_for for every one of them.
        trace = [
            WorkloadPhase(required_bits=bits, cycles=2_500)
            for bits in (1, 3, 5, 7, 8, 7, 5, 3, 1, 2, 6, 4)
        ]
        table = build_synthetic_table()
        assert replay_scalar(
            table, trace, policy=policy
        ) == replay_trace(table, trace, policy=policy)

    @pytest.mark.parametrize("window", [0, 1, 2, 4, 9])
    def test_lookahead_windows(self, window):
        table = build_synthetic_table()
        trace = phase_trace(90, seed=window + 1)
        assert replay_scalar(
            table, trace, policy="lookahead", lookahead_window=window,
        ) == replay_trace(
            table, trace, policy="lookahead", lookahead_window=window,
        )

    def test_zero_cycle_phases(self):
        table = build_synthetic_table()
        trace = [WorkloadPhase(required_bits=b, cycles=0) for b in (8, 2, 8)]
        for policy in POLICIES:
            assert replay_scalar(
                table, trace, policy=policy
            ) == replay_trace(table, trace, policy=policy)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_idle_pool_walk_acquires_nothing(self, monkeypatch, policy):
        # A replay is one operator on a drained pool: its whole walk is
        # the idle tail, which never calls GeneratorPool.acquire.
        calls = []
        real_acquire = GeneratorPool.acquire

        def counting_acquire(pool, *args):
            calls.append(args)
            return real_acquire(pool, *args)

        monkeypatch.setattr(GeneratorPool, "acquire", counting_acquire)
        table = build_synthetic_table()
        trace = phase_trace(400, seed=3)
        expected = replay_scalar(table, trace, policy=policy)
        assert calls
        calls.clear()
        assert replay_trace(table, trace, policy=policy) == expected
        assert calls == []

    @pytest.mark.parametrize("window", [1, 2, 4])
    def test_lookahead_held_peaks(self, window):
        # Costly slews and short phases: lookahead holds the peak mode
        # across low blips, so the positions after a hold inherit a row
        # the array pass did not assume and must be compared again.
        table = build_synthetic_table(
            BiasGeneratorModel(well_cap_ff_per_um2=80.0)
        )
        rng = np.random.default_rng(window)
        trace = [
            WorkloadPhase(int(rng.choice((2, 8, 8, 6))), int(c))
            for c in rng.integers(0, 120, size=300)
        ]
        held = replay_trace(
            table, trace, policy="lookahead", lookahead_window=window
        )
        assert held == replay_scalar(
            table, trace, policy="lookahead", lookahead_window=window
        )
        assert held.mode_switches < replay_trace(table, trace).mode_switches

    @pytest.mark.parametrize(
        "scale", [2**57, 2**62], ids=["past-float", "past-int64"]
    )
    def test_cycles_beyond_float_and_int64_range(self, scale):
        # Up to 2**57 cycles per phase: window sums and their float
        # conversions are past 2**53, but no int64 sum can wrap.  Up to
        # 2**62: every lookahead window and the trace's total pass 2**63,
        # so these sums must stay python ints.
        table = build_synthetic_table(
            BiasGeneratorModel(well_cap_ff_per_um2=4000.0)
        )
        rng = np.random.default_rng(scale % 97)
        trace = [
            WorkloadPhase(int(bits), int(cycles))
            for bits, cycles in zip(
                rng.choice(BITWIDTHS, size=40),
                rng.integers(scale // 2, scale, size=40),
            )
        ]
        for policy in POLICIES:
            assert replay_scalar(
                table, trace, policy=policy
            ) == replay_trace(table, trace, policy=policy)

    @pytest.mark.parametrize("window", [2, 3])
    def test_lookahead_window_sum_past_int64(self, window):
        # The 2-mode phase sees a window of two 3 * 2**61-cycle phases.
        # Their sum passes 2**63: wrapped, the mean would turn negative
        # and the comparison would hold the peak; python's exact sum
        # serves the cover mode.
        big = 3 * 2**61
        trace = [
            WorkloadPhase(8, 1),
            WorkloadPhase(2, 1),
            WorkloadPhase(8, big),
            WorkloadPhase(8, big),
        ]
        table = build_synthetic_table()
        report = replay_trace(
            table, trace, policy="lookahead", lookahead_window=window
        )
        assert report == replay_scalar(
            table, trace, policy="lookahead", lookahead_window=window
        )
        assert report.mode_switches == 3

    def test_array_and_phase_list_replay_identically(self):
        table = build_synthetic_table()
        trace = phase_trace(200, seed=5)
        array = np.array(trace, dtype=np.int64)
        assert array.shape == (200, 2)
        for policy in POLICIES:
            assert replay_trace(table, array, policy=policy) == replay_trace(
                table, trace, policy=policy
            )

    @pytest.mark.parametrize("workload", [[], np.zeros((0, 2), np.int64)])
    def test_empty_workload_rejected(self, workload):
        with pytest.raises(ValueError, match="empty workload"):
            replay_trace(build_synthetic_table(), workload)

    def test_malformed_workload_rejected(self):
        with pytest.raises(ValueError, match="pairs"):
            replay_trace(build_synthetic_table(), [[2, 100, 5]])


class TestLearnedReplayDifferential:
    """The fourth policy needs a table with a learned block; its full
    differential (degradation replan, fallback gates) is in
    ``tests/test_serve_learned.py`` -- this keeps the wall's per-policy
    sweep complete in one place."""

    @pytest.mark.parametrize("length", [1, 2, 7, 63, 400])
    def test_reports_bit_identical(self, length):
        table, _result = build_learned_table()
        trace = phase_trace(length, seed=length)
        assert replay_scalar(
            table, trace, policy="learned"
        ) == replay_trace(table, trace, policy="learned")

    def test_two_worker_fleet_with_policy_params(self, monkeypatch):
        from repro.fleet import FleetRouter

        table, _result = build_learned_table()
        requests = [
            (r.operator, r.required_bits, r.cycles)
            for r in request_mix(120, ("op0", "op1", "op2"), seed=4)
        ]
        results = {}
        for kind in ("batch", "scalar"):
            if kind == "scalar":
                force_per_request_fleet(monkeypatch)
            with FleetRouter(table, workers=2, policy="learned") as router:
                results[kind] = router.submit_many(requests)
        assert results["batch"] == results["scalar"]
        for phase, (_op, bits, _cycles) in zip(
            results["batch"], requests
        ):
            assert phase.served_bits >= bits


class TestFrameDifferential:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_submit_batch_equals_submit_loop(self, policy):
        # The contract in one assert: submit_batch(frame) is the phase
        # list a submit() loop produces, on the same scheduler state.
        reference, batch = twin_schedulers(
            policy=policy, num_generators=2, max_queue_depth=4
        )
        requests = request_mix(200, ("mac0", "mac1", "mac2"))
        expected = [reference.submit(r) for r in requests]
        got = batch.submit_batch(requests)
        assert got == expected
        assert_schedulers_equal(reference, batch)

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("depth", [1, 2, 8])
    def test_contention_and_degradation(self, policy, depth):
        scalar, batch = twin_schedulers(
            policy=policy, num_generators=1, max_queue_depth=depth
        )
        operators = ("a", "b", "c", "d")
        for frame in range(25):
            requests = request_mix(
                17 + frame, operators, seed=100 * depth + frame
            )
            assert scalar.submit_batch(requests) == batch.submit_batch(
                requests
            ), f"frame {frame} diverged"
            assert_schedulers_equal(scalar, batch)
        # The mix must actually exercise the degraded path for depth 1.
        if depth == 1:
            assert scalar.telemetry.counters["degraded"] > 0

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("generators", [1, 2, 3])
    def test_idle_tail_starts_mid_frame(
        self, monkeypatch, policy, generators
    ):
        # Busy operators leave grants ending far ahead of a lagging one;
        # the lagging operator's next frame queues behind them, then its
        # clock passes the pool's last free time and the rest of the
        # frame is the idle tail.
        scalar, batch = twin_schedulers(
            policy=policy, num_generators=generators, max_queue_depth=64
        )
        busy = [
            ServeRequest(name, 8 if (k // 2) % 2 else 2, 40_000)
            for k in range(12)
            for name in ("b", "c")
        ] + [ServeRequest("lone", 6, 0)]
        lone = [
            ServeRequest("lone", 2 if k % 2 else 8, 30_000)
            for k in range(40)
        ]
        starts = []
        real_tail = ModeScheduler._walk_idle_tail

        def spy_tail(scheduler, plan, *args):
            starts.append(plan.fold_ptr)
            return real_tail(scheduler, plan, *args)

        monkeypatch.setattr(ModeScheduler, "_walk_idle_tail", spy_tail)
        served = []
        for frame in (busy, lone, lone):
            served.append(batch.submit_batch(frame))
            assert scalar.submit_batch(frame) == served[-1]
            assert_schedulers_equal(scalar, batch)
        assert any(phase.queue_wait_ns > 0.0 for phase in served[1])
        assert any(start > 0 for start in starts)

    @pytest.mark.parametrize("generators", [1, 2, 3])
    def test_zero_settle_slews(self, generators):
        # Slews that cost energy but settle in 0 ns end as they start:
        # the pool keeps no pending grant, and generators tie on their
        # free times, so every pick goes to the lowest index.
        def table_factory():
            return build_synthetic_table(
                BiasGeneratorModel(
                    transition_time_ns=0.0, vdd_transition_time_ns=0.0
                )
            )

        scalar, batch = twin_schedulers(
            table_factory=table_factory, num_generators=generators
        )
        for frame in (
            request_mix(60, ("a", "b"), seed=1),
            request_mix(60, ("a",), seed=2),
        ):
            assert scalar.submit_batch(frame) == batch.submit_batch(frame)
            assert_schedulers_equal(scalar, batch)
        assert batch.pool.pending == []

    def test_state_carries_across_frames(self):
        scalar, batch = twin_schedulers(policy="hysteresis")
        for seed in range(12):
            requests = request_mix(1 + seed * 3, ("x", "y"), seed=seed)
            assert scalar.submit_batch(requests) == batch.submit_batch(
                requests
            )
            assert_schedulers_equal(scalar, batch)
            # Interleave scalar submits between frames on both sides:
            # frame state must compose with per-request state.
            probe = ServeRequest("x", 4, 111)
            assert scalar.submit(probe) == batch.submit(probe)
        assert_schedulers_equal(scalar, batch)

    def test_empty_frame(self):
        scalar, batch = twin_schedulers()
        assert scalar.submit_batch([]) == [] == batch.submit_batch([])
        assert_schedulers_equal(scalar, batch)

    def test_arrays_match_scalar_phases(self):
        scalar, batch = twin_schedulers(policy="greedy", num_generators=2)
        requests = request_mix(150, ("p", "q"))
        expected = [scalar.submit(r) for r in requests]
        result = batch.submit_batch_arrays(
            [r.operator for r in requests],
            np.array([r.required_bits for r in requests]),
            np.array([r.cycles for r in requests]),
        )
        assert result.served_bits.tolist() == [
            p.served_bits for p in expected
        ]
        assert result.switched.tolist() == [p.switched for p in expected]
        assert result.batched.tolist() == [p.batched for p in expected]
        assert result.degraded.tolist() == [p.degraded for p in expected]
        assert result.compute_energy_j.tolist() == [
            p.compute_energy_j for p in expected
        ]
        assert result.transition_energy_j.tolist() == [
            p.transition_energy_j for p in expected
        ]
        assert result.settle_ns.tolist() == [p.settle_ns for p in expected]
        assert result.queue_wait_ns.tolist() == [
            p.queue_wait_ns for p in expected
        ]
        assert result.decided_at_ns.tolist() == [
            p.decided_at_ns for p in expected
        ]
        assert_schedulers_equal(scalar, batch)


class TestGuardDifferential:
    @staticmethod
    def margined_guard(headroom_ps=5.0, slacks=None):
        def factory(table):
            return MarginGuard(
                table, SiliconEnvironment(), headroom_ps=headroom_ps
            )

        return factory

    @pytest.mark.parametrize("policy", POLICIES)
    def test_statically_unsafe_modes(self, policy):
        # Modes 4 and 6 fall below the headroom at t=0: the guard must
        # substitute on *every* pick, identically in both engines.
        def table_factory():
            return build_margined_table(
                guarded_slack_ps={4: 1.0, 6: 2.0}
            )

        scalar, batch = twin_schedulers(
            table_factory=table_factory,
            policy=policy,
            guard_factory=self.margined_guard(headroom_ps=5.0),
        )
        for frame in range(20):
            requests = request_mix(23, ("op0", "op1"), seed=frame)
            assert scalar.submit_batch(requests) == batch.submit_batch(
                requests
            )
            assert_schedulers_equal(scalar, batch)
        assert scalar.telemetry.counters["margin_fallbacks"] > 0

    def test_all_modes_safe_guard_is_transparent(self):
        scalar, batch = twin_schedulers(
            table_factory=build_margined_table,
            guard_factory=self.margined_guard(headroom_ps=0.0),
        )
        requests = request_mix(120, ("op",))
        assert scalar.submit_batch(requests) == batch.submit_batch(requests)
        assert scalar.telemetry.counters["margin_fallbacks"] == 0
        assert_schedulers_equal(scalar, batch)

    def test_time_varying_schedule_falls_back_identically(self):
        # A scheduled fault makes the environment time-varying: the
        # batch engine must refuse the fast path and serve through the
        # scalar loop -- results stay identical by construction, which
        # this locks in.
        def guard_factory(table):
            schedule = FaultSchedule(
                (
                    FaultEvent(
                        kind=KIND_TEMP_DRIFT,
                        start_ns=1_000.0,
                        duration_ns=50_000.0,
                        magnitude=30.0,
                    ),
                )
            )
            return MarginGuard(
                table, SiliconEnvironment(schedule), headroom_ps=2.0
            )

        scalar, batch = twin_schedulers(
            table_factory=build_margined_table,
            guard_factory=guard_factory,
        )
        for frame in range(8):
            requests = request_mix(31, ("a", "b"), seed=frame + 50)
            assert scalar.submit_batch(requests) == batch.submit_batch(
                requests
            )
            assert_schedulers_equal(scalar, batch)


class TestExceptionParity:
    def test_uncoverable_bits_raise_identically(self):
        scalar, batch = twin_schedulers()
        prefix = request_mix(9, ("op",))
        bad = prefix + [ServeRequest("op", 16, 100)] + request_mix(3, ("op",))
        with pytest.raises(ValueError) as scalar_err:
            for request in bad:
                scalar.submit(request)
        with pytest.raises(ValueError) as batch_err:
            batch.submit_batch(bad)
        assert str(scalar_err.value) == str(batch_err.value)
        # The failed frame served the same prefix on both sides.
        assert_schedulers_equal(scalar, batch)


class TestFleetEngines:
    def test_two_worker_fleet_bit_identical_across_engines(
        self, monkeypatch
    ):
        from repro.fleet import FleetRouter

        table = build_synthetic_table()
        requests = [
            (r.operator, r.required_bits, r.cycles)
            for r in request_mix(
                400, tuple(f"op{i}" for i in range(6)), seed=9
            )
        ]
        results = {}
        stats = {}
        for kind in ("batch", "scalar"):
            if kind == "scalar":
                force_per_request_fleet(monkeypatch)
            with FleetRouter(table, workers=2, batch_window=16) as router:
                phases = []
                for offset in range(0, len(requests), 100):
                    phases.extend(
                        router.submit_many(requests[offset : offset + 100])
                    )
                results[kind] = phases
                stats[kind] = router.stats()
        assert results["batch"] == results["scalar"]
        assert stats["batch"]["counters"] == stats["scalar"]["counters"]
        for batch_w, scalar_w in zip(
            stats["batch"]["workers"], stats["scalar"]["workers"]
        ):
            assert batch_w["telemetry"] == scalar_w["telemetry"]


class TestReplayCli:
    @pytest.fixture()
    def table_path(self, tmp_path):
        path = tmp_path / "table.json"
        with open(path, "w") as stream:
            save_mode_table(build_synthetic_table(), stream)
        return str(path)

    @staticmethod
    def replay_line(capsys, table_path, *extra):
        assert (
            main(
                ["replay", "--table", table_path, "--phases", "40", *extra]
            )
            == 0
        )
        return capsys.readouterr().out.strip().splitlines()[-1]

    @staticmethod
    def oracle_line(policy="greedy"):
        """The summary line ``replay --phases 40`` prints (default seed
        and window), from the per-request oracle."""
        table = build_synthetic_table()
        rng = np.random.default_rng(2017)
        workload = [
            WorkloadPhase(
                int(rng.choice(table.bitwidths)),
                int(rng.integers(5_000, 100_000)),
            )
            for _ in range(40)
        ]
        report = replay_scalar(table, workload, policy=policy)
        return f"policy {policy}: {report.summary()}"

    @pytest.mark.parametrize("seed", [7, 11, 2017])
    @pytest.mark.parametrize(
        "bitwidths",
        [[8], [2, 4, 6, 8], list(range(1, 17))],
        ids=["1-mode", "4-modes", "16-modes"],
    )
    def test_phase_draw_matches_per_phase_loop(self, seed, bitwidths):
        from repro.cli import _random_phases

        rng = np.random.default_rng(seed)
        reference = [
            [int(rng.choice(bitwidths)), int(rng.integers(5_000, 100_000))]
            for _ in range(2_000)
        ]
        assert _random_phases(bitwidths, 2_000, seed).tolist() == reference

    def test_engines_print_identical_reports(self, capsys, table_path):
        line = self.replay_line(capsys, table_path)
        assert line == self.oracle_line()
        assert line.startswith("policy greedy:")

    def test_env_override_and_bad_value(
        self, capsys, table_path, monkeypatch
    ):
        """The serve-engine variable is no longer read: stale exports,
        valid or not, change nothing."""
        for value in ("scalar", "warp"):
            monkeypatch.setenv("REPRO_SERVE_ENGINE", value)
            assert self.replay_line(capsys, table_path) == self.oracle_line()

    def test_unknown_engine_flag_rejected(self, capsys, table_path):
        with pytest.raises(SystemExit) as exit_info:
            main(["replay", "--table", table_path, "--serve-engine", "batch"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("policy", ["hysteresis", "lookahead"])
    def test_policies_identical_across_engines(
        self, capsys, table_path, policy
    ):
        line = self.replay_line(capsys, table_path, "--policy", policy)
        assert line == self.oracle_line(policy)


class TestJsonSafety:
    def test_batched_phases_serialize_like_scalar(self):
        # phase_to_dict feeds json.dumps on the socket path: the batch
        # kernel must hand back python scalars, not numpy ones.
        scalar, batch = twin_schedulers()
        requests = request_mix(25, ("op",))
        expected = [json.dumps(phase_to_dict(p)) for p in scalar.submit_batch(requests)]
        scalar2, batch2 = twin_schedulers()
        del scalar2
        got = [
            json.dumps(phase_to_dict(p)) for p in batch2.submit_batch(requests)
        ]
        assert got == expected
