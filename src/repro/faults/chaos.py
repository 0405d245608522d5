"""The chaos harness: replay one seeded fault schedule against the stack.

:func:`run_chaos` soaks each target it is asked for under the same
:class:`~repro.faults.events.FaultSchedule`, then audits it:

* **serve** (always) drives a deterministic request mix from several
  concurrent operator instances through a margin-guarded
  :class:`~repro.serve.scheduler.ModeScheduler` while the schedule's
  silicon events erode margins, drop bias generators and block
  transitions.  Afterwards it audits every served phase against the
  same (pure, replayable) environment: served bits must cover the
  request, and any mode the guard passed through un-overridden must
  actually have been safe at its decision instant.
* **recal** (``recalibrate``) serves the mix a second time behind a
  retreat-only guard and races it against the serve soak, which then
  runs with the canary-probe recalibration loop attached.
* **exploration** (a ``design``) runs a sharded sweep with worker
  crashes armed (and the shard cache corrupted between runs) and holds
  the recovered results bit-identical to a clean serial reference.
* **fleet** (``fleet_workers``) injects the schedule on worker 0 of a
  multi-process fleet and audits how its peers react.

Each target returns the counts it archives and its invariants by name;
one :class:`ChaosReport` holds them, and the run is ``ok`` when every
invariant held.  One seed reproduces one full chaos run -- the CLI
(``repro chaos``) archives the schedule next to the report for exactly
that reason.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import tempfile
import types
from dataclasses import dataclass
from typing import Dict, Optional

from repro.faults.environment import SiliconEnvironment
from repro.faults.events import (
    KIND_CACHE_CORRUPT,
    KIND_TEMP_DRIFT,
    KIND_WORKER_CRASH,
    FaultEvent,
    FaultSchedule,
)
from repro.faults.injector import WorkerFaultPlan, corrupt_cache_entries

#: Operator instances of the fleet soak's request mix.
FLEET_OPERATORS = 8

#: Requests per ``FleetRouter.submit_many`` call in the fleet soak; a
#: scheduled worker kill lands between two such submissions.
FLEET_SOAK_CHUNK = 256

#: Worker processes of the exploration soak's chaotic sweep.
EXPLORATION_WORKERS = 2

#: ``describe()`` wording per target, in report order: a line over the
#: target's counts, and a tail appended when any count named after it
#: is non-zero.
_LINES = {
    "serve": (
        "serve chaos [{verdict}]: {requests} requests, "
        "{margin_fallbacks} margin fallbacks, {degraded} degraded, "
        "{transition_retries} transition retries "
        "({transition_failures} exhausted), {generator_dropouts} generator "
        "dropouts ({rebalanced_grants} slews rebalanced), "
        "{accuracy_violations} accuracy violations, "
        "{margin_violations} margin violations",
        ", {recal_epochs} recal epochs ({recal_demotions} demotions / "
        "{recal_readvances} re-advances, {recal_failures} probe failures)",
        ("recal_epochs", "recal_failures"),
    ),
    "exploration": (
        "exploration chaos [{verdict}]: {shards} shards, {worker_crashes} "
        "crashes / {pool_respawns} pool respawns / {shard_retries} retries, "
        "{cache_entries_corrupted} cache entries corrupted "
        "({cache_invalidations} invalidated on reload), "
        "bit-identical: {bit_identical}",
        "",
        (),
    ),
    "fleet": (
        "fleet chaos [{verdict}]: {requests} requests over {workers} workers "
        "({workers_killed} killed, {failovers} failovers), "
        "{margin_fallbacks} margin fallbacks -> {fleet_alerts} alerts / "
        "{fleet_retreats} retreats, propagation {worst_propagation} <= "
        "{propagation_bound} requests, {accuracy_violations} accuracy "
        "violations, segment leaked: {segment_leaked}",
        ", recal epoch {bus_recal_epoch} ({fleet_margin_syncs} peer syncs, "
        "worst lag {worst_recal_lag} <= {propagation_bound}, "
        "converged: {recal_converged})",
        ("recal_enabled",),
    ),
    "recal": (
        "recal chaos [{verdict}]: retreat-only {retreat_only[energy_j]:.3e} J "
        "vs recalibrating {recalibrating[energy_j]:.3e} J (probes "
        "{recalibrating[probe_energy_j]:.3e} J) -> "
        "{energy_reclaimed_fraction:.1%} reclaimed, "
        "{recalibrating[recal_readvances]} re-advances, "
        "0 violations required on both runs",
        "",
        (),
    ),
}


def _archive(counts: Dict, invariants: Dict[str, bool]) -> Dict:
    """One target's summary: its counts and whether its invariants held."""
    return {**counts, "ok": all(invariants.values())}


@dataclass
class ChaosReport:
    """One seeded chaos run, end to end.

    ``counts[target]`` holds what each target that ran archives, in
    order, and ``invariants[target]`` the named checks that decide
    ``ok``.  A target that did not run is absent (``None`` in the
    summary).
    """

    schedule: FaultSchedule
    counts: Dict[str, Dict]
    invariants: Dict[str, Dict[str, bool]]

    @property
    def ok(self) -> bool:
        return all(all(held.values()) for held in self.invariants.values())

    def to_dict(self) -> Dict:
        summary = {"ok": self.ok, "schedule": self.schedule.to_dict()}
        for target in _LINES:
            summary[target] = (
                _archive(self.counts[target], self.invariants[target])
                if target in self.counts
                else None
            )
        return summary

    def describe(self) -> str:
        summary = self.to_dict()
        lines = [self.schedule.describe()]
        for target, (line, tail, tail_when) in _LINES.items():
            counts = summary[target]
            if counts is None:
                continue
            if any(counts[name] for name in tail_when):
                line += tail
            verdict = "PASS" if counts["ok"] else "FAIL"
            lines.append(line.format(verdict=verdict, **counts))
        lines.append(f"chaos run: {'PASS' if summary['ok'] else 'FAIL'}")
        return "\n".join(lines)


@contextlib.contextmanager
def _stays_up():
    """The soaks' "stays up" criterion: an exception inside the block
    ends the soak and is archived as ``soak.error`` instead of raised."""
    soak = types.SimpleNamespace(error=None)
    try:
        yield soak
    except Exception as error:
        soak.error = f"{type(error).__name__}: {error}"


def run_chaos(
    table,
    schedule: FaultSchedule,
    design=None,
    settings=None,
    num_operators: int = 3,
    requests: int = 96,
    seed: int = 7,
    fleet_workers: int = 0,
    fleet_requests: int = 1024,
    recalibrate: bool = False,
    recal_interval_ns: Optional[float] = None,
) -> ChaosReport:
    """Replay *schedule* against serving and the targets asked for.

    A *design* (with its exploration *settings*) adds the exploration
    soak, ``fleet_workers >= 2`` the fleet soak with the same schedule
    and seed.  ``recalibrate=True`` serves with the canary-probe loop
    attached (probing every *recal_interval_ns*, default a 32nd of the
    horizon), races it against the retreat-only baseline for the
    reclaimed-energy report, and with a fleet audits margin-epoch
    propagation.
    """
    if num_operators < 1:
        raise ValueError("need at least one operator")
    if requests < 1:
        raise ValueError("need at least one request")
    if design is not None and settings is None:
        raise ValueError("exploration chaos needs settings")
    if fleet_workers:
        if fleet_workers < 2:
            raise ValueError("a fleet soak needs at least two workers")
        if not table.has_margins:
            raise ValueError(
                "fleet chaos needs a margined table (the degradation signal "
                "is the margin guard's fallback); compile with --margins"
            )
    interval = None
    if recalibrate:
        interval = (
            recal_interval_ns
            if recal_interval_ns is not None
            else max(schedule.horizon_ns, 1.0) / 32.0
        )
    mix = (table, schedule, num_operators, requests, seed)
    sections = {"serve": _serve_soak(*mix, recal_interval_ns=interval)}
    if recalibrate:
        sections["recal"] = _recal_race(
            _serve_soak(*mix, retreat_only=True), sections["serve"]
        )
    if design is not None:
        sections["exploration"] = _exploration_soak(design, settings, schedule)
    if fleet_workers:
        sections["fleet"] = _fleet_soak(
            table,
            schedule,
            fleet_workers,
            fleet_requests,
            seed,
            interval or 0.0,
        )
    return ChaosReport(
        schedule,
        counts={target: counts for target, (counts, _) in sections.items()},
        invariants={target: held for target, (_, held) in sections.items()},
    )


# -- serve-side soak ---------------------------------------------------------


def _serve_soak(
    table,
    schedule: FaultSchedule,
    num_operators: int,
    requests: int,
    seed: int,
    recal_interval_ns: Optional[float] = None,
    retreat_only: bool = False,
):
    """Soak a margin-guarded scheduler against *schedule*, then audit it.

    The scheduler, guard and recalibration loop keep their default
    policy, 2-generator pool, headroom and learner settings.  A
    *recal_interval_ns* attaches a canary-probe recalibration loop
    (:mod:`repro.serve.recal`) so the guard re-advances as margins
    recover; ``retreat_only=True`` runs the pessimistic baseline whose
    guard latches every mode it ever saw unsafe.  Every variant is
    audited by a **fresh oracle guard** over the same pure environment
    -- not the serving guard, whose learner/latch state at audit time
    differs from what it was at each decision instant.  Because a
    learned margin can only restrict relative to the compile-time
    check, zero ``margin_violations`` under recalibration *is* the
    per-phase re-advance correctness audit.
    """
    from repro.serve.guard import MarginGuard
    from repro.serve.recal import RecalibrationLoop
    from repro.serve.scheduler import (
        ModeScheduler,
        ServeRequest,
        chaos_requests,
    )

    guard = MarginGuard(
        table, SiliconEnvironment(schedule), retreat_only=retreat_only
    )
    recal = None
    if recal_interval_ns is not None:
        recal = RecalibrationLoop(guard, recal_interval_ns, seed=seed)
    scheduler = ModeScheduler(table, guard=guard, recal=recal)
    served = []
    with _stays_up() as soak:
        for request in chaos_requests(table, num_operators, requests, seed):
            served.append(scheduler.submit(ServeRequest(*request)))

    # Audit against the same (pure, replayable) environment with a
    # *fresh* stateless guard: the oracle for "was this mode actually
    # safe at that instant", independent of any learner or latch state
    # the serving guard has accumulated since.  Fallback modes are
    # best-effort by definition (the static rail is sign-off margined; a
    # guard substitution is safe whenever any covering mode was), so the
    # margin audit covers un-overridden policy picks only.
    oracle = MarginGuard(table, SiliconEnvironment(schedule))
    counters = scheduler.telemetry.counters
    counts = {
        "requests": len(served),
        "accuracy_violations": counters["accuracy_violations"]
        + sum(phase.served_bits < phase.required_bits for phase in served),
        "margin_violations": sum(
            not (phase.degraded or phase.margin_fallback)
            and not oracle.mode_is_safe(phase.served_bits, phase.decided_at_ns)
            for phase in served
        ),
        "margin_fallbacks": counters["margin_fallbacks"],
        "degraded": counters["degraded"],
        "transition_retries": counters["transition_retries"],
        "transition_failures": counters["transition_failures"],
        "generator_dropouts": scheduler.pool.dropouts,
        "rebalanced_grants": scheduler.pool.rebalanced_grants,
        # Served energy (compute + transitions), plus the canary probes'
        # own cost when recalibration is on (J).
        "energy_j": sum(
            phase.compute_energy_j + phase.transition_energy_j
            for phase in served
        ),
        "probe_energy_j": 0.0,
        "recal_probes": 0,
        "recal_epochs": 0,
        "recal_demotions": 0,
        "recal_readvances": 0,
        "recal_failures": 0,
        "stayed_up": soak.error is None,
        "error": soak.error,
    }
    if recal is not None:
        counts.update(
            probe_energy_j=recal.probe_energy_j,
            recal_probes=recal.probes_run,
            recal_epochs=recal.learner.epoch,
            recal_demotions=recal.learner.demotions,
            recal_readvances=recal.learner.readvances,
            recal_failures=recal.failures,
        )
        # The recalibrating run pays for its own probes; the race
        # against the retreat-only baseline is only honest if it does.
        counts["energy_j"] += recal.probe_energy_j
    return counts, {
        "stayed_up": soak.error is None,
        "no_accuracy_violations": counts["accuracy_violations"] == 0,
        "no_margin_violations": counts["margin_violations"] == 0,
    }


# -- recalibration race ------------------------------------------------------


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


def _recal_race(baseline, recalibrating):
    """Race two serve soaks of one schedule, seed and request mix.

    The only difference is the guard's margin source: retreat-only in
    *baseline*, the canary-probe loop in *recalibrating*.  The
    reclaimed-energy fraction charges the recalibrating run for its own
    probes; negative means probing cost more than re-advancing
    recovered (e.g. a schedule that never recovers).
    """
    base_counts, base_held = baseline
    recal_counts, recal_held = recalibrating
    reclaimed = base_counts["energy_j"] - recal_counts["energy_j"]
    counts = {
        "retreat_only": _archive(base_counts, base_held),
        "recalibrating": _archive(recal_counts, recal_held),
        "energy_reclaimed_j": reclaimed,
        "energy_reclaimed_fraction": (
            reclaimed / base_counts["energy_j"]
            if base_counts["energy_j"]
            else 0.0
        ),
    }
    return counts, {
        "retreat_only_ok": all(base_held.values()),
        "recalibrating_ok": all(recal_held.values()),
        "recal_epochs": recal_counts["recal_epochs"] > 0,
    }


# -- fleet-side soak ---------------------------------------------------------


def _peer_lags(phases, trigger, reached, exclude_origin=False):
    """The fleet soak's per-peer lag audit, or None if nothing triggered.

    After the first phase *trigger* accepts, every worker that still
    decides a request (less that phase's own worker with
    *exclude_origin*) is a peer that must reach the new state.  A peer's
    lag counts the requests it decided after the trigger before its
    first phase that *reached* it -- in requests *that peer* decided,
    because a worker polls the fleet bus per decision, so an idle peer
    cannot observe it (and by design, reacting costs nothing on a
    worker serving nothing).  Returns the lags of the peers that got
    there and of those that never did.
    """
    start = next(
        (
            index
            for index, phase in enumerate(phases)
            if phase is not None and trigger(phase)
        ),
        None,
    )
    if start is None:
        return None
    origin = phases[start].worker_id if exclude_origin else None
    peers = {
        phase.worker_id
        for phase in phases[start + 1 :]
        if phase is not None and phase.worker_id != origin
    }
    lags, stalled = [], []
    for peer in peers:
        lag = 0
        for index, phase in enumerate(phases):
            if phase is None or phase.worker_id != peer:
                continue
            if reached(phase):
                lags.append(lag)
                break
            if index > start:
                lag += 1
        else:
            stalled.append(lag)
    return lags, stalled


def _fleet_soak(
    table,
    schedule: FaultSchedule,
    workers: int,
    requests: int,
    seed: int,
    recal_interval_ns: float,
):
    """Soak a fleet against *schedule* injected on worker 0, then audit.

    Worker-crash events in the schedule kill one fleet worker process
    mid-soak (never worker 0, which carries the silicon injection), so
    one run exercises degradation propagation *and* failover.  The
    router runs its default policy, batch window and retreat budget;
    requests go out in :data:`FLEET_SOAK_CHUNK`-request submissions.
    The audits check the *fleet-wide* reactions: every peer that kept
    serving entered retreat within the per-peer propagation bound (and,
    with recalibration, adopted the final margin epoch within it), a
    killed worker's operators failed over without a dropped request,
    and the shared-memory segment was gone after shutdown.
    """
    from repro.fleet import FleetRouter
    from repro.serve.scheduler import chaos_requests
    from repro.serve.table import ModeTable

    router = FleetRouter(
        table,
        workers=workers,
        guard=True,
        schedules={0: schedule.to_dict()},
        max_queue_depth=requests + 1,
        recal_interval_ns=recal_interval_ns,
        recal_seed=seed,
    )
    # Per-peer request budget: a worker has at most max_inflight x
    # batch_window requests already in its pipe when an alert posts, and
    # it polls the bus before every decision after that.
    bound = router.max_inflight * router.batch_window
    kill_at = -1
    crash_events = schedule.of_kind(KIND_WORKER_CRASH)
    if crash_events and workers > 2:
        # Scale the first crash window's start into the request stream.
        fraction = crash_events[0].start_ns / max(schedule.horizon_ns, 1.0)
        kill_at = max(1, int(fraction * requests))
    trace = list(chaos_requests(table, FLEET_OPERATORS, requests, seed))
    phases, stats, killed, segment = [], {}, 0, None
    with _stays_up() as soak:
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
                        killed += 1
                    victim = None
                phases.extend(
                    router.submit_many(
                        trace[offset : offset + FLEET_SOAK_CHUNK]
                    )
                )
            stats = router.stats()
        finally:
            router.stop()

    # The segment must be unlinked once the fleet is down.
    leaked = False
    if segment is not None:
        try:
            ModeTable.from_shared(segment).close()
            leaked = True  # pragma: no cover - leak
        except ValueError:
            pass

    counters = stats.get("counters", {})
    answered = [phase for phase in phases if phase is not None]
    counts = {
        "workers": workers,
        "requests": len(answered),
        "accuracy_violations": counters.get("accuracy_violations", 0)
        + sum(phase.served_bits < phase.required_bits for phase in answered),
        "margin_fallbacks": counters.get("margin_fallbacks", 0),
        "fleet_alerts": counters.get("fleet_alerts", 0),
        "fleet_retreats": counters.get("fleet_retreats", 0),
        "degraded": counters.get("degraded", 0),
        "failovers": stats.get("failovers", 0),
        "workers_killed": killed,
        "propagation_bound": bound,
        # Worst count of requests any peer decided between the first
        # alerting phase and its own first retreat; -1 = no alert.
        "worst_propagation": -1,
        "peers_retreated": False,
        "unanswered_requests": len(phases) - len(answered),
        "segment_leaked": leaked,
        "recal_enabled": recal_interval_ns > 0.0,
        "bus_recal_epoch": 0,
        "fleet_margin_syncs": 0,
        # Worst count of requests any peer decided between the final
        # margin epoch first appearing fleet-wide and that peer reporting
        # it; peers that stop deciding within the bound are exempt.
        "worst_recal_lag": -1,
        "recal_converged": True,
        "stayed_up": soak.error is None,
        "error": soak.error,
    }
    alert = _peer_lags(
        phases,
        lambda phase: phase.margin_fallback,
        lambda phase: phase.fleet_retreat,
        exclude_origin=True,
    )
    if alert is not None:
        lags, stalled = alert
        counts["peers_retreated"] = bool(lags) and not stalled
        counts["worst_propagation"] = max(lags, default=-1)
    if counts["recal_enabled"]:
        counts["bus_recal_epoch"] = stats.get("bus_recal_epoch", 0)
        counts["fleet_margin_syncs"] = counters.get("fleet_margin_syncs", 0)
        final = max((phase.recal_epoch for phase in answered), default=0)

        def adopted(phase):
            return 0 < final <= phase.recal_epoch

        epoch = _peer_lags(phases, adopted, adopted)
        if epoch is None:
            counts["recal_converged"] = False
        else:
            lags, stalled = epoch
            counts["recal_converged"] = all(lag < bound for lag in stalled)
            counts["worst_recal_lag"] = max(lags, default=-1)
    return counts, {
        "stayed_up": soak.error is None,
        "no_accuracy_violations": counts["accuracy_violations"] == 0,
        "no_unanswered_requests": counts["unanswered_requests"] == 0,
        "peers_retreated": counts["peers_retreated"],
        "propagation_within_bound": 0 <= counts["worst_propagation"] <= bound,
        "segment_unlinked": not leaked,
        "recal_converged": not counts["recal_enabled"]
        or (counts["recal_converged"] and counts["bus_recal_epoch"] > 0),
    }


# -- exploration-side soak ---------------------------------------------------


def _results_identical(reference, result) -> bool:
    """Bit-identical on everything downstream consumers read."""
    return (
        result.best_per_bitwidth == reference.best_per_bitwidth
        and result.best_per_knob_point == reference.best_per_knob_point
        and result.feasible_counts == reference.feasible_counts
        and result.points_evaluated == reference.points_evaluated
        and result.points_feasible == reference.points_feasible
    )


def _exploration_soak(design, settings, schedule: FaultSchedule):
    """Crash workers mid-sweep, corrupt the cache, demand identical bits."""
    from repro.parallel.engine import ParallelExplorer
    from repro.parallel.shards import plan_shards

    shards = plan_shards(settings)
    crash_shards = tuple(
        sorted(
            {
                max(0, event.target) % len(shards)
                for event in schedule.of_kind(KIND_WORKER_CRASH)
            }
        )
    )
    counts = {
        "shards": len(shards),
        "worker_crashes": 0,
        "pool_respawns": 0,
        "shard_retries": 0,
        "shard_timeouts": 0,
        "cache_entries_corrupted": 0,
        "cache_invalidations": 0,
        "faults_fired": [],
        "bit_identical": False,
        "recovered_after_corruption": False,
        "error": None,
    }
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as workdir:
        cache_dir = os.path.join(workdir, "chaos-cache")
        plan = WorkerFaultPlan(
            marker_dir=os.path.join(workdir, "chaos-faults"),
            crash_shards=crash_shards,
        )
        serial_settings = dataclasses.replace(
            settings, workers=1, cache=False, cache_dir=None
        )
        chaos_settings = dataclasses.replace(
            settings,
            workers=EXPLORATION_WORKERS,
            cache=True,
            cache_dir=cache_dir,
        )
        with _stays_up() as soak:
            reference = ParallelExplorer(design).run(serial_settings)
            chaotic = ParallelExplorer(
                design,
                fault_plan=plan,
                max_shard_retries=max(2, len(crash_shards)),
            ).run(chaos_settings)
            counts["bit_identical"] = _results_identical(reference, chaotic)
            counts["faults_fired"] = plan.fired()
            stats = chaotic.fault_stats
            if stats is not None:
                counts["worker_crashes"] = stats.worker_crashes
                counts["pool_respawns"] = stats.pool_respawns
                counts["shard_retries"] = stats.shard_retries
                counts["shard_timeouts"] = stats.shard_timeouts
            # Corrupt the now-warm cache; demand detect-discard-recompute.
            wanted = len(schedule.of_kind(KIND_CACHE_CORRUPT))
            if wanted:
                counts["cache_entries_corrupted"] = corrupt_cache_entries(
                    cache_dir, count=wanted
                )
                rerun = ParallelExplorer(design).run(chaos_settings)
                counts["recovered_after_corruption"] = _results_identical(
                    reference, rerun
                )
                if rerun.cache_stats is not None:
                    counts["cache_invalidations"] = (
                        rerun.cache_stats.invalidations
                    )
    counts["error"] = soak.error
    return counts, {
        "no_error": soak.error is None,
        "bit_identical": counts["bit_identical"],
        "recovered_after_corruption": counts["cache_entries_corrupted"] == 0
        or counts["recovered_after_corruption"],
    }
