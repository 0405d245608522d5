"""The chaos harness: replay a seeded fault schedule against the stack.

Two soaks, one report:

* :func:`run_serve_chaos` drives a deterministic request mix from
  several concurrent operator instances through a margin-guarded
  :class:`~repro.serve.scheduler.ModeScheduler` while the schedule's
  silicon events erode margins, drop bias generators and block
  transitions.  Afterwards it *audits* every served phase against the
  same (pure, replayable) environment: served bits must cover the
  request, and any mode the guard passed through un-overridden must
  actually have been safe at its decision instant.
* :func:`run_exploration_chaos` runs a sharded sweep with worker
  crashes armed (and the shard cache corrupted between runs) and holds
  the recovered results bit-identical to a clean serial reference.

Both halves consume the same :class:`~repro.faults.events.FaultSchedule`,
so one seed reproduces one full chaos run -- the CLI (``repro chaos``)
archives the schedule next to the report for exactly that reason.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.faults.environment import SiliconEnvironment
from repro.faults.events import (
    KIND_CACHE_CORRUPT,
    KIND_TEMP_DRIFT,
    KIND_WORKER_CRASH,
    FaultEvent,
    FaultSchedule,
)
from repro.faults.injector import (
    InjectionLog,
    WorkerFaultPlan,
    corrupt_cache_entries,
)


# -- serve-side soak ---------------------------------------------------------


@dataclass
class ServeChaosReport:
    """What the serving stack did under silicon chaos."""

    requests: int = 0
    accuracy_violations: int = 0
    #: Phases the audit found running an unsafe mode without the guard
    #: having flagged a fallback (must stay 0 for the soak to pass).
    margin_violations: int = 0
    margin_fallbacks: int = 0
    degraded: int = 0
    transition_retries: int = 0
    transition_failures: int = 0
    generator_dropouts: int = 0
    rebalanced_grants: int = 0
    #: Total energy the soak served (compute + transitions), plus the
    #: canary probes' own cost when recalibration was on (J).
    energy_j: float = 0.0
    probe_energy_j: float = 0.0
    #: Recalibration-loop activity (all zero without --recalibrate).
    recal_probes: int = 0
    recal_epochs: int = 0
    recal_demotions: int = 0
    recal_readvances: int = 0
    recal_failures: int = 0
    stayed_up: bool = False
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return (
            self.stayed_up
            and self.accuracy_violations == 0
            and self.margin_violations == 0
        )

    def to_dict(self) -> Dict:
        return {**dataclasses.asdict(self), "ok": self.ok}

    def describe(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        return (
            f"serve chaos [{verdict}]: {self.requests} requests, "
            f"{self.margin_fallbacks} margin fallbacks, "
            f"{self.degraded} degraded, "
            f"{self.transition_retries} transition retries "
            f"({self.transition_failures} exhausted), "
            f"{self.generator_dropouts} generator dropouts "
            f"({self.rebalanced_grants} slews rebalanced), "
            f"{self.accuracy_violations} accuracy violations, "
            f"{self.margin_violations} margin violations"
            + (
                f", {self.recal_epochs} recal epochs "
                f"({self.recal_demotions} demotions / "
                f"{self.recal_readvances} re-advances, "
                f"{self.recal_failures} probe failures)"
                if self.recal_epochs or self.recal_failures
                else ""
            )
        )


def chaos_requests(table, num_operators: int, count: int, seed: int):
    """Deterministic request mix over *num_operators* instances."""
    rng = np.random.default_rng(seed)
    bitwidths = table.bitwidths
    for index in range(count):
        yield (
            f"op{index % num_operators}",
            int(rng.choice(bitwidths)),
            int(rng.integers(1_000, 20_000)),
        )


def run_serve_chaos(
    table,
    schedule: FaultSchedule,
    num_operators: int = 3,
    requests: int = 96,
    seed: int = 7,
    recalibrate: bool = False,
    recal_interval_ns: Optional[float] = None,
    retreat_only: bool = False,
) -> ServeChaosReport:
    """Soak a margin-guarded scheduler against *schedule*, then audit it.

    The scheduler, guard and recalibration loop keep their default
    policy, 2-generator pool, headroom and learner settings.
    ``recalibrate=True`` attaches a canary-probe recalibration loop
    (:mod:`repro.serve.recal`) so the guard re-advances as margins
    recover; ``retreat_only=True`` runs the pessimistic baseline whose
    guard latches every mode it ever saw unsafe.  Both variants are
    audited by a **fresh oracle guard** over the same pure environment
    -- not the serving guard, whose learner/latch state at audit time
    differs from what it was at each decision instant.  Because a
    learned margin can only restrict relative to the compile-time
    check, zero ``margin_violations`` under recalibration *is* the
    per-phase re-advance correctness audit.
    """
    from repro.serve.guard import MarginGuard
    from repro.serve.recal import RecalibrationLoop
    from repro.serve.scheduler import ModeScheduler, ServeRequest

    if num_operators < 1:
        raise ValueError("need at least one operator")
    if requests < 1:
        raise ValueError("need at least one request")
    if recalibrate and retreat_only:
        raise ValueError(
            "recalibrate and retreat_only are mutually exclusive"
        )
    environment = SiliconEnvironment(schedule)
    guard = MarginGuard(table, environment, retreat_only=retreat_only)
    recal = None
    if recalibrate:
        if recal_interval_ns is None:
            recal_interval_ns = max(schedule.horizon_ns, 1.0) / 32.0
        recal = RecalibrationLoop(guard, recal_interval_ns, seed=seed)
    scheduler = ModeScheduler(table, guard=guard, recal=recal)
    report = ServeChaosReport()
    served_log = []
    energy_j = 0.0
    try:
        for operator, bits, cycles in chaos_requests(
            table, num_operators, requests, seed
        ):
            served = scheduler.submit(ServeRequest(operator, bits, cycles))
            served_log.append(served)
            energy_j += served.compute_energy_j + served.transition_energy_j
            report.requests += 1
    except Exception as error:  # the soak's "stays up" criterion
        report.error = f"{type(error).__name__}: {error}"
        report.stayed_up = False
    else:
        report.stayed_up = True

    # Audit against the same (pure, replayable) environment with a
    # *fresh* stateless guard: the oracle for "was this mode actually
    # safe at that instant", independent of any learner or latch state
    # the serving guard has accumulated since.
    oracle = MarginGuard(table, SiliconEnvironment(schedule))
    for served in served_log:
        if served.served_bits < served.required_bits:
            report.accuracy_violations += 1
        if served.degraded or served.margin_fallback:
            # Fallback modes are best-effort by definition (the static
            # rail is sign-off margined; a guard substitution is safe
            # whenever any covering mode was); the invariant audited
            # here is about un-overridden policy picks.
            continue
        if not oracle.mode_is_safe(served.served_bits, served.decided_at_ns):
            report.margin_violations += 1

    counters = scheduler.telemetry.counters
    report.margin_fallbacks = counters["margin_fallbacks"]
    report.degraded = counters["degraded"]
    report.transition_retries = counters["transition_retries"]
    report.transition_failures = counters["transition_failures"]
    report.accuracy_violations += counters["accuracy_violations"]
    report.generator_dropouts = scheduler.pool.dropouts
    report.rebalanced_grants = scheduler.pool.rebalanced_grants
    if recal is not None:
        report.probe_energy_j = recal.probe_energy_j
        report.recal_probes = recal.probes_run
        report.recal_epochs = recal.learner.epoch
        report.recal_demotions = recal.learner.demotions
        report.recal_readvances = recal.learner.readvances
        report.recal_failures = recal.failures
    # The recalibrating run pays for its own probes; the comparison
    # against the retreat-only baseline is only honest if it does.
    report.energy_j = energy_j + report.probe_energy_j
    return report


# -- recalibration comparator -------------------------------------------------


def recovery_schedule(
    horizon_ns: float = 3e5,
    magnitude: float = 60.0,
    relapse: bool = False,
    seed: int = 0,
) -> FaultSchedule:
    """A recover-after-excursion schedule (optionally recover-then-relapse).

    One early temperature excursion erodes margins past the guard's
    threshold, then the die cools: a retreat-only guard stays latched in
    expensive modes for the whole clean tail, which is exactly the
    energy a recalibrating guard reclaims.  ``relapse=True`` adds a
    second late excursion so the soak also proves re-advance does not
    overshoot into the relapse.
    """
    events = [
        FaultEvent(
            KIND_TEMP_DRIFT,
            0.05 * horizon_ns,
            0.25 * horizon_ns,
            magnitude=magnitude,
        )
    ]
    if relapse:
        events.append(
            FaultEvent(
                KIND_TEMP_DRIFT,
                0.70 * horizon_ns,
                0.20 * horizon_ns,
                magnitude=magnitude,
            )
        )
    return FaultSchedule(events, seed=seed, horizon_ns=horizon_ns)


@dataclass
class RecalChaosReport:
    """Retreat-only vs recalibrating guard on one schedule + request mix."""

    retreat_only: ServeChaosReport
    recalibrating: ServeChaosReport
    energy_reclaimed_j: float = 0.0
    #: Fraction of the retreat-only run's energy the recalibrating run
    #: saved, probes included.  Negative means probing cost more than
    #: re-advancing recovered (e.g. a schedule that never recovers).
    energy_reclaimed_fraction: float = 0.0

    @property
    def ok(self) -> bool:
        return (
            self.retreat_only.ok
            and self.recalibrating.ok
            and self.recalibrating.recal_epochs > 0
        )

    def to_dict(self) -> Dict:
        return {
            "ok": self.ok,
            "retreat_only": self.retreat_only.to_dict(),
            "recalibrating": self.recalibrating.to_dict(),
            "energy_reclaimed_j": self.energy_reclaimed_j,
            "energy_reclaimed_fraction": self.energy_reclaimed_fraction,
        }

    def describe(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        return (
            f"recal chaos [{verdict}]: retreat-only "
            f"{self.retreat_only.energy_j:.3e} J vs recalibrating "
            f"{self.recalibrating.energy_j:.3e} J "
            f"(probes {self.recalibrating.probe_energy_j:.3e} J) -> "
            f"{100.0 * self.energy_reclaimed_fraction:.1f}% reclaimed, "
            f"{self.recalibrating.recal_readvances} re-advances, "
            f"0 violations required on both runs"
        )


def run_recal_chaos(
    table,
    schedule: FaultSchedule,
    num_operators: int = 3,
    requests: int = 96,
    seed: int = 7,
    recal_interval_ns: Optional[float] = None,
) -> RecalChaosReport:
    """Race the retreat-only guard against the recalibrating one.

    Identical schedule, seed and request mix; the only difference is the
    guard's margin source.  The reclaimed-energy fraction charges the
    recalibrating run for its own canary probes.
    """
    common = dict(num_operators=num_operators, requests=requests, seed=seed)
    baseline = run_serve_chaos(
        table, schedule, retreat_only=True, **common
    )
    recal = run_serve_chaos(
        table,
        schedule,
        recalibrate=True,
        recal_interval_ns=recal_interval_ns,
        **common,
    )
    reclaimed = baseline.energy_j - recal.energy_j
    fraction = reclaimed / baseline.energy_j if baseline.energy_j else 0.0
    return RecalChaosReport(
        retreat_only=baseline,
        recalibrating=recal,
        energy_reclaimed_j=reclaimed,
        energy_reclaimed_fraction=fraction,
    )


# -- fleet-side soak ---------------------------------------------------------

#: Requests per ``FleetRouter.submit_many`` call in the fleet soak; a
#: scheduled worker kill lands between two such submissions.
FLEET_SOAK_CHUNK = 256


@dataclass
class FleetChaosReport:
    """What the fleet tier did under silicon chaos + a worker kill.

    The schedule is injected on worker 0 only; the soak then checks the
    *fleet-wide* reactions: every peer that kept serving entered retreat
    within the router's propagation bound, a killed worker's operators
    failed over without a dropped request, and the shared-memory segment
    was gone after shutdown.
    """

    workers: int = 0
    requests: int = 0
    accuracy_violations: int = 0
    margin_fallbacks: int = 0
    fleet_alerts: int = 0
    fleet_retreats: int = 0
    degraded: int = 0
    failovers: int = 0
    workers_killed: int = 0
    #: Per-peer request budget: a worker has at most max_inflight x
    #: batch_window requests already in its pipe when an alert posts,
    #: and it polls the bus before every decision after that.
    propagation_bound: int = 0
    #: Worst measured count of requests any peer decided between the
    #: first alerting phase and its own first retreat; -1 = no alert.
    worst_propagation: int = -1
    peers_retreated: bool = False
    unanswered_requests: int = 0
    segment_leaked: bool = False
    #: Recalibration propagation (only audited when recal is enabled).
    recal_enabled: bool = False
    bus_recal_epoch: int = 0
    fleet_margin_syncs: int = 0
    #: Worst count of requests any peer decided between the final margin
    #: epoch first appearing fleet-wide and that peer reporting it.
    worst_recal_lag: int = -1
    recal_converged: bool = True
    stayed_up: bool = False
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return (
            self.stayed_up
            and self.accuracy_violations == 0
            and self.unanswered_requests == 0
            and self.peers_retreated
            and 0 <= self.worst_propagation <= self.propagation_bound
            and not self.segment_leaked
            and (
                not self.recal_enabled
                or (self.recal_converged and self.bus_recal_epoch > 0)
            )
        )

    def to_dict(self) -> Dict:
        return {**dataclasses.asdict(self), "ok": self.ok}

    def describe(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        return (
            f"fleet chaos [{verdict}]: {self.requests} requests over "
            f"{self.workers} workers ({self.workers_killed} killed, "
            f"{self.failovers} failovers), "
            f"{self.margin_fallbacks} margin fallbacks -> "
            f"{self.fleet_alerts} alerts / {self.fleet_retreats} retreats, "
            f"propagation {self.worst_propagation} <= "
            f"{self.propagation_bound} requests, "
            f"{self.accuracy_violations} accuracy violations, "
            f"segment leaked: {self.segment_leaked}"
            + (
                f", recal epoch {self.bus_recal_epoch} "
                f"({self.fleet_margin_syncs} peer syncs, worst lag "
                f"{self.worst_recal_lag} <= {self.propagation_bound}, "
                f"converged: {self.recal_converged})"
                if self.recal_enabled
                else ""
            )
        )


def run_fleet_chaos(
    table,
    schedule: FaultSchedule,
    workers: int = 2,
    num_operators: int = 8,
    requests: int = 1024,
    seed: int = 7,
    recal_interval_ns: float = 0.0,
) -> FleetChaosReport:
    """Soak a fleet against *schedule* injected on worker 0, then audit.

    Worker-crash events in the schedule kill one fleet worker process
    mid-soak (never worker 0, which carries the silicon injection), so
    one run exercises degradation propagation *and* failover.  The
    router runs its default policy, batch window and retreat budget;
    requests go out in :data:`FLEET_SOAK_CHUNK`-request submissions.
    """
    from repro.fleet import FleetRouter
    from repro.serve.table import ModeTable

    if workers < 2:
        raise ValueError("a fleet soak needs at least two workers")
    if not table.has_margins:
        raise ValueError(
            "fleet chaos needs a margined table (the degradation signal "
            "is the margin guard's fallback); compile with --margins"
        )
    report = FleetChaosReport(
        workers=workers, recal_enabled=recal_interval_ns > 0.0
    )
    router = FleetRouter(
        table,
        workers=workers,
        guard=True,
        schedules={0: schedule.to_dict()},
        max_queue_depth=requests + 1,
        recal_interval_ns=recal_interval_ns,
        recal_seed=seed,
    )
    report.propagation_bound = router.max_inflight * router.batch_window

    kill_at = -1
    crash_events = schedule.of_kind(KIND_WORKER_CRASH)
    if crash_events and workers > 2:
        # Scale the first crash window's start into the request stream.
        fraction = crash_events[0].start_ns / max(schedule.horizon_ns, 1.0)
        kill_at = max(1, int(fraction * requests))

    trace = list(chaos_requests(table, num_operators, requests, seed))
    phases = []
    try:
        router.start()
        segment = router.segment_name
        victim = None
        if kill_at >= 0:
            candidates = [w for w in router.alive_workers if w != 0]
            victim = candidates[
                max(0, crash_events[0].target) % len(candidates)
            ]
        for offset in range(0, len(trace), FLEET_SOAK_CHUNK):
            if victim is not None and offset + FLEET_SOAK_CHUNK > kill_at:
                handle = router._workers.get(victim)
                if handle is not None:
                    handle.process.kill()
                    handle.process.join()
                    report.workers_killed += 1
                victim = None
            phases.extend(
                router.submit_many(trace[offset : offset + FLEET_SOAK_CHUNK])
            )
        stats = router.stats()
    except Exception as error:  # the soak's "stays up" criterion
        report.error = f"{type(error).__name__}: {error}"
        try:
            router.stop()
        except Exception:  # pragma: no cover - double fault
            pass
        return report
    report.stayed_up = True
    router.stop()

    # Segment must be unlinked once the fleet is down.
    try:
        ModeTable.from_shared(segment).close()
        report.segment_leaked = True  # pragma: no cover - leak
    except ValueError:
        report.segment_leaked = False

    report.requests = len([p for p in phases if p is not None])
    report.unanswered_requests = len(phases) - report.requests
    counters = stats["counters"]
    report.margin_fallbacks = counters.get("margin_fallbacks", 0)
    report.fleet_alerts = counters.get("fleet_alerts", 0)
    report.fleet_retreats = counters.get("fleet_retreats", 0)
    report.degraded = counters.get("degraded", 0)
    report.accuracy_violations = counters.get("accuracy_violations", 0)
    report.failovers = stats["failovers"]

    for phase in phases:
        if phase is not None and phase.served_bits < phase.required_bits:
            report.accuracy_violations += 1

    # Propagation audit: after the first alerting phase, every *other*
    # worker that serves again must retreat within its in-flight budget
    # -- counted in requests *that peer* decided, because an idle peer
    # cannot observe the bus (it polls per decision, and that is the
    # point: retreat costs nothing on a worker serving nothing).
    alert_index = next(
        (
            index
            for index, phase in enumerate(phases)
            if phase is not None and phase.margin_fallback
        ),
        None,
    )
    if alert_index is not None:
        origin = phases[alert_index].worker_id
        gaps = []
        peers_ok = True
        peers = {
            phase.worker_id
            for phase in phases[alert_index + 1 :]
            if phase is not None and phase.worker_id != origin
        }
        for peer in peers:
            unaware = 0
            retreated = False
            for index, phase in enumerate(phases):
                if phase is None or phase.worker_id != peer:
                    continue
                if phase.fleet_retreat:
                    retreated = True
                    break
                if index > alert_index:
                    unaware += 1
            if not retreated:
                peers_ok = False
                continue
            gaps.append(unaware)
        report.peers_retreated = peers_ok and bool(peers)
        if gaps:
            report.worst_propagation = max(gaps)

    # Recal-epoch convergence audit: the final committed margin epoch
    # must reach every peer that keeps deciding within the same bounded
    # window degradation honors (a peer that stops deciding cannot poll
    # the bus -- by design retreat/re-advance costs nothing on a worker
    # serving nothing, so such peers are exempt, not failures).
    if report.recal_enabled:
        report.bus_recal_epoch = stats.get("bus_recal_epoch", 0)
        report.fleet_margin_syncs = counters.get("fleet_margin_syncs", 0)
        final_epoch = max(
            (p.recal_epoch for p in phases if p is not None), default=0
        )
        if final_epoch <= 0:
            report.recal_converged = False
        else:
            first_index = next(
                index
                for index, phase in enumerate(phases)
                if phase is not None and phase.recal_epoch == final_epoch
            )
            lags = []
            converged = True
            tail = [p for p in phases[first_index + 1 :] if p is not None]
            for peer in {p.worker_id for p in tail}:
                lag = 0
                reached = False
                for phase in tail:
                    if phase.worker_id != peer:
                        continue
                    if phase.recal_epoch >= final_epoch:
                        reached = True
                        break
                    lag += 1
                if reached:
                    lags.append(lag)
                elif lag >= report.propagation_bound:
                    converged = False
            report.recal_converged = converged
            if lags:
                report.worst_recal_lag = max(lags)
    return report


# -- exploration-side soak ---------------------------------------------------


@dataclass
class ExplorationChaosReport:
    """What the sharded engine survived, and whether results held."""

    shards: int = 0
    worker_crashes: int = 0
    pool_respawns: int = 0
    shard_retries: int = 0
    shard_timeouts: int = 0
    cache_entries_corrupted: int = 0
    cache_invalidations: int = 0
    faults_fired: List[str] = field(default_factory=list)
    bit_identical: bool = False
    recovered_after_corruption: bool = False
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return (
            self.error is None
            and self.bit_identical
            and (
                self.cache_entries_corrupted == 0
                or self.recovered_after_corruption
            )
        )

    def to_dict(self) -> Dict:
        return {**dataclasses.asdict(self), "ok": self.ok}

    def describe(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        return (
            f"exploration chaos [{verdict}]: {self.shards} shards, "
            f"{self.worker_crashes} crashes / {self.pool_respawns} pool "
            f"respawns / {self.shard_retries} retries, "
            f"{self.cache_entries_corrupted} cache entries corrupted "
            f"({self.cache_invalidations} invalidated on reload), "
            f"bit-identical: {self.bit_identical}"
        )


def _results_identical(reference, result) -> bool:
    """Bit-identical on everything downstream consumers read."""
    return (
        result.best_per_bitwidth == reference.best_per_bitwidth
        and result.best_per_knob_point == reference.best_per_knob_point
        and result.feasible_counts == reference.feasible_counts
        and result.points_evaluated == reference.points_evaluated
        and result.points_feasible == reference.points_feasible
    )


def run_exploration_chaos(
    design,
    settings,
    schedule: FaultSchedule,
    workdir: os.PathLike,
    workers: int = 2,
) -> ExplorationChaosReport:
    """Crash workers mid-sweep, corrupt the cache, demand identical bits."""
    from repro.parallel.engine import ParallelExplorer
    from repro.parallel.shards import plan_shards

    report = ExplorationChaosReport()
    workdir = os.fspath(workdir)
    cache_dir = os.path.join(workdir, "chaos-cache")
    marker_dir = os.path.join(workdir, "chaos-faults")
    log = InjectionLog()

    shards = plan_shards(settings)
    report.shards = len(shards)
    crash_shards = tuple(
        sorted(
            {
                max(0, event.target) % len(shards)
                for event in schedule.of_kind(KIND_WORKER_CRASH)
            }
        )
    )
    log.worker_crashes_armed = len(crash_shards)
    plan = WorkerFaultPlan(marker_dir=marker_dir, crash_shards=crash_shards)

    serial_settings = dataclasses.replace(
        settings, workers=1, cache=False, cache_dir=None
    )
    chaos_settings = dataclasses.replace(
        settings, workers=max(2, workers), cache=True, cache_dir=cache_dir
    )

    try:
        reference = ParallelExplorer(design).run(serial_settings)
        chaotic = ParallelExplorer(
            design,
            fault_plan=plan,
            max_shard_retries=max(2, len(crash_shards)),
        ).run(chaos_settings)
    except Exception as error:
        report.error = f"{type(error).__name__}: {error}"
        return report

    report.bit_identical = _results_identical(reference, chaotic)
    report.faults_fired = plan.fired()
    stats = chaotic.fault_stats
    if stats is not None:
        report.worker_crashes = stats.worker_crashes
        report.pool_respawns = stats.pool_respawns
        report.shard_retries = stats.shard_retries
        report.shard_timeouts = stats.shard_timeouts

    # Corrupt the now-warm cache and demand detect-discard-recompute.
    wanted = len(schedule.of_kind(KIND_CACHE_CORRUPT))
    if wanted:
        damaged = corrupt_cache_entries(cache_dir, count=wanted)
        log.cache_entries_corrupted = damaged
        report.cache_entries_corrupted = damaged
        try:
            rerun = ParallelExplorer(design).run(chaos_settings)
        except Exception as error:
            report.error = f"{type(error).__name__}: {error}"
            return report
        report.recovered_after_corruption = _results_identical(
            reference, rerun
        )
        if rerun.cache_stats is not None:
            report.cache_invalidations = rerun.cache_stats.invalidations
    return report


# -- the full run ------------------------------------------------------------


@dataclass
class ChaosReport:
    """One seeded chaos run, end to end."""

    schedule: FaultSchedule
    serve: ServeChaosReport
    exploration: Optional[ExplorationChaosReport] = None
    fleet: Optional[FleetChaosReport] = None
    recal: Optional[RecalChaosReport] = None

    @property
    def ok(self) -> bool:
        return (
            self.serve.ok
            and (self.exploration is None or self.exploration.ok)
            and (self.fleet is None or self.fleet.ok)
            and (self.recal is None or self.recal.ok)
        )

    def to_dict(self) -> Dict:
        return {
            "ok": self.ok,
            "schedule": self.schedule.to_dict(),
            "serve": self.serve.to_dict(),
            "exploration": (
                self.exploration.to_dict()
                if self.exploration is not None
                else None
            ),
            "fleet": (
                self.fleet.to_dict() if self.fleet is not None else None
            ),
            "recal": (
                self.recal.to_dict() if self.recal is not None else None
            ),
        }

    def describe(self) -> str:
        lines = [self.schedule.describe(), self.serve.describe()]
        if self.exploration is not None:
            lines.append(self.exploration.describe())
        if self.fleet is not None:
            lines.append(self.fleet.describe())
        if self.recal is not None:
            lines.append(self.recal.describe())
        lines.append(f"chaos run: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def run_chaos(
    table,
    schedule: FaultSchedule,
    design=None,
    settings=None,
    workdir: Optional[os.PathLike] = None,
    num_operators: int = 3,
    requests: int = 96,
    seed: int = 7,
    fleet_workers: int = 0,
    fleet_requests: int = 1024,
    recalibrate: bool = False,
    recal_interval_ns: Optional[float] = None,
) -> ChaosReport:
    """Replay *schedule* against serving and (optionally) exploration.

    ``fleet_workers >= 2`` additionally soaks the fleet tier
    (:func:`run_fleet_chaos`) with the same schedule and seed.
    ``recalibrate=True`` serves with the canary-probe loop attached,
    races it against the retreat-only baseline for the reclaimed-energy
    report, and (with a fleet) audits margin-epoch propagation.
    """
    recal = None
    if recalibrate:
        recal = run_recal_chaos(
            table,
            schedule,
            num_operators=num_operators,
            requests=requests,
            seed=seed,
            recal_interval_ns=recal_interval_ns,
        )
        serve = recal.recalibrating
    else:
        serve = run_serve_chaos(
            table,
            schedule,
            num_operators=num_operators,
            requests=requests,
            seed=seed,
        )
    exploration = None
    if design is not None:
        if settings is None or workdir is None:
            raise ValueError(
                "exploration chaos needs settings and a workdir"
            )
        exploration = run_exploration_chaos(
            design, settings, schedule, workdir
        )
    fleet = None
    if fleet_workers:
        fleet_recal_interval = 0.0
        if recalibrate:
            fleet_recal_interval = (
                recal_interval_ns
                if recal_interval_ns is not None
                else max(schedule.horizon_ns, 1.0) / 32.0
            )
        fleet = run_fleet_chaos(
            table,
            schedule,
            workers=fleet_workers,
            requests=fleet_requests,
            seed=seed,
            recal_interval_ns=fleet_recal_interval,
        )
    return ChaosReport(
        schedule=schedule,
        serve=serve,
        exploration=exploration,
        fleet=fleet,
        recal=recal,
    )
