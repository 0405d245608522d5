"""Per-request serve references as test oracles.

Production serves traces and frames through the batched kernel behind
:func:`~repro.serve.scheduler.replay_trace` and
:meth:`~repro.serve.scheduler.ModeScheduler.submit_batch`.  The
semantics that kernel is held to, bit for bit, are spelled out here:

* :func:`replay_scalar` -- a trace replayed one
  :meth:`~repro.serve.scheduler.ModeScheduler.submit` per phase;
* :class:`ScalarFrameScheduler` -- a frame served one ``submit`` per
  request, with each request's lookahead window cut from the frame
  itself;
* :func:`force_per_request_fleet` -- fleet workers on their
  per-request loop instead of the batched fast path;
* :func:`replay_reference` -- the closed-form greedy accounting the
  scheduler reproduces, computed straight from an
  :class:`~repro.core.runtime.AccuracyController`;
* :func:`pool_state` -- what a later request can see of a scheduler's
  generator pool, so engines are compared on it too.
"""

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import OperatingPoint
from repro.core.runtime import AccuracyController, RuntimeReport, WorkloadPhase
from repro.serve.scheduler import ModeScheduler, ServedPhase, ServeRequest
from repro.serve.table import ModeTable
from tests.oracles import require_fork


def replay_scalar(
    table: ModeTable,
    workload: Sequence[WorkloadPhase],
    policy: str = "greedy",
    num_generators: int = 1,
    lookahead_window: int = 4,
    **policy_kwargs,
) -> RuntimeReport:
    """What :func:`replay_trace` returns, one ``submit`` per phase."""
    if not workload:
        raise ValueError("empty workload")
    if policy == "lookahead" and "window" not in policy_kwargs:
        policy_kwargs["window"] = lookahead_window
    scheduler = ModeScheduler(
        table,
        num_generators=num_generators,
        policy=policy,
        max_queue_depth=len(workload) + 1,
        policy_kwargs=policy_kwargs,
    )
    window = lookahead_window if policy == "lookahead" else 0
    for index, phase in enumerate(workload):
        upcoming = tuple(
            (p.required_bits, p.cycles)
            for p in workload[index + 1 : index + 1 + window]
        )
        scheduler.submit(
            ServeRequest("replay", phase.required_bits, phase.cycles),
            upcoming=upcoming,
        )
    return scheduler.report("replay")


def pool_state(scheduler: ModeScheduler) -> Tuple:
    """Every field of the generator pool a later request can observe:
    free times, availability, the deepest queue seen, and the pending
    grants as (signature, start, end, generator)."""
    pool = scheduler.pool
    return (
        list(pool.free_at_ns),
        list(pool.available),
        pool.max_depth_seen,
        [
            (grant.signature, grant.start_ns, grant.end_ns, grant.generator)
            for grant in pool.pending
        ],
    )


def force_per_request_fleet(monkeypatch) -> None:
    """Make fleet workers serve every frame through their per-request
    loop, as they do whenever a guard is attached.  Workers fork from
    the patched process, so start the fleet after calling this."""
    from repro.fleet.worker import _WorkerRuntime

    require_fork()
    monkeypatch.setattr(
        _WorkerRuntime, "_serve_batch_fast", _WorkerRuntime._serve_batch_loop
    )


class ScalarFrameScheduler(ModeScheduler):
    """A :class:`ModeScheduler` whose frames run one ``submit`` each."""

    def submit_batch(
        self,
        requests: Sequence[ServeRequest],
        upcoming_cap: Optional[int] = None,
    ) -> List[ServedPhase]:
        """What the batched ``submit_batch`` returns, request by request.

        Each request sees the next requests *of its own operator* in the
        frame as its upcoming window, up to the policy's ``window``
        (clipped by *upcoming_cap*).  A request that raises stops the
        frame there, with the prefix already served.
        """
        requests = list(requests)
        by_operator: Dict[str, List[int]] = {}
        for index, request in enumerate(requests):
            by_operator.setdefault(request.operator, []).append(index)
        upcoming = [()] * len(requests)
        for name, positions in by_operator.items():
            window = getattr(self._state(name).policy, "window", 0)
            if upcoming_cap is not None:
                window = min(window, upcoming_cap)
            for k, index in enumerate(positions):
                upcoming[index] = tuple(
                    (requests[j].required_bits, requests[j].cycles)
                    for j in positions[k + 1 : k + 1 + window]
                )
        return [
            self.submit(request, upcoming=ahead)
            for request, ahead in zip(requests, upcoming)
        ]


def replay_reference(
    controller: AccuracyController, workload: Sequence[WorkloadPhase]
) -> RuntimeReport:
    """The closed-form accounting loop the greedy replay reproduces.

    Greedy per-phase mode selection; a mode *switch* is counted
    whenever the operating point changes (including free first-phase
    power-on), not only when the transition costs energy.
    """
    if not workload:
        raise ValueError("empty workload")
    fclk_hz = controller.design.fclk_ghz * 1e9
    static_point = controller.mode_table[max(controller.mode_table)]

    compute_energy = 0.0
    transition_energy = 0.0
    transition_time = 0.0
    switches = 0
    static_energy = 0.0
    total_cycles = 0
    current: Optional[OperatingPoint] = None

    for phase in workload:
        point = controller.mode_for(phase.required_bits)
        energy, settle_ns = controller.transition_cost(current, point)
        if point != current:
            switches += 1
        transition_energy += energy
        transition_time += settle_ns
        current = point

        duration_s = phase.cycles / fclk_hz
        compute_energy += point.total_power_w * duration_s
        static_energy += static_point.total_power_w * duration_s
        total_cycles += phase.cycles

    return RuntimeReport(
        phases=len(workload),
        total_cycles=total_cycles,
        compute_energy_j=compute_energy,
        transition_energy_j=transition_energy,
        transition_time_ns=transition_time,
        mode_switches=switches,
        static_energy_j=static_energy,
    )
