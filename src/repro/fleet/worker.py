"""One fleet worker: a stock serve scheduler behind a binary pipe.

A worker process owns nothing novel -- it runs exactly the
:class:`~repro.serve.scheduler.ModeScheduler` (+ optional
:class:`~repro.serve.guard.MarginGuard`) the single-process server runs.
What is fleet-specific is the plumbing around it:

* the mode table arrives as a **shared-memory segment name**, attached
  via :meth:`ModeTable.from_shared` -- zero JSON parses in the worker,
  which the stats reply proves with parse-counter deltas;
* requests arrive as **binary batch frames** (int64 triples), replies
  leave as binary frames too -- the router's per-request dispatch cost
  must stay far below the scheduler's decision cost or fan-out cannot
  reach the saturation benchmark's >= 1.8x floor;
* before every decision the worker polls the :class:`~repro.fleet.bus.
  FleetBus` epoch; a fresh alert posted by a *peer* flips it into
  retreat (``retreat_budget`` requests on the degraded static-mode
  path), and its own guard fallbacks are posted back onto the bus.

Frames are one pipe message each, first byte the tag: ``b"B"`` binary
batch, ``b"C"`` pickled control dict.  Every frame gets exactly one
reply frame, in order -- that invariant is what lets the router pipeline
batches without per-request sequence numbers.
"""

from __future__ import annotations

import pickle
from typing import Dict, Optional, Tuple

import numpy as np

from repro.fleet.bus import FleetBus, KIND_MARGIN_EROSION
from repro.serve.scheduler import ModeScheduler, ServedPhase, ServeRequest
from repro.serve.table import ModeTable, parse_counters

#: Frame tags.
TAG_BATCH = b"B"
TAG_CONTROL = b"C"

#: Reply flag bits.
FLAG_SWITCHED = 1
FLAG_BATCHED = 2
FLAG_DEGRADED = 4
FLAG_MARGIN_FALLBACK = 8
FLAG_FLEET_RETREAT = 16

#: Reply layout: int64 columns, float64 columns.
#: int: served_bits, flags, transition_retries, epoch_seen, recal_epoch
REPLY_INT_COLS = 5
REPLY_FLOAT_COLS = 5  # compute_e, transition_e, settle, queue_wait, decided_at


def encode_batch(triples: np.ndarray) -> bytes:
    """Request frame from an int64 ``(n, 3)`` [op_id, bits, cycles]."""
    return TAG_BATCH + np.ascontiguousarray(
        triples, dtype="<i8"
    ).tobytes()


def decode_batch(frame: bytes) -> np.ndarray:
    return np.frombuffer(frame, dtype="<i8", offset=1).reshape(-1, 3)


def encode_replies(ints: np.ndarray, floats: np.ndarray) -> bytes:
    return (
        TAG_BATCH
        + np.ascontiguousarray(ints, dtype="<i8").tobytes()
        + np.ascontiguousarray(floats, dtype="<f8").tobytes()
    )


def decode_replies(frame: bytes) -> Tuple[np.ndarray, np.ndarray]:
    row_bytes = 8 * (REPLY_INT_COLS + REPLY_FLOAT_COLS)
    count = (len(frame) - 1) // row_bytes
    ints = np.frombuffer(
        frame, dtype="<i8", count=count * REPLY_INT_COLS, offset=1
    ).reshape(count, REPLY_INT_COLS)
    floats = np.frombuffer(
        frame,
        dtype="<f8",
        count=count * REPLY_FLOAT_COLS,
        offset=1 + 8 * count * REPLY_INT_COLS,
    ).reshape(count, REPLY_FLOAT_COLS)
    return ints, floats


def control_frame(payload: Dict) -> bytes:
    return TAG_CONTROL + pickle.dumps(payload)


def parse_control(frame: bytes) -> Dict:
    return pickle.loads(frame[1:])


def _phase_flags(served: ServedPhase, fleet_retreat: bool) -> int:
    flags = 0
    if served.switched:
        flags |= FLAG_SWITCHED
    if served.batched:
        flags |= FLAG_BATCHED
    if served.degraded:
        flags |= FLAG_DEGRADED
    if served.margin_fallback:
        flags |= FLAG_MARGIN_FALLBACK
    if fleet_retreat:
        flags |= FLAG_FLEET_RETREAT
    return flags


class _WorkerRuntime:
    """The scheduler, guard, bus and registry state of one worker."""

    def __init__(
        self,
        worker_id: int,
        segment: str,
        bus: Optional[FleetBus],
        config: Dict,
    ):
        self.worker_id = worker_id
        # Baseline before the attach so deltas isolate this worker's own
        # parsing (under fork the parent's counters are inherited).
        self.parse_baseline = parse_counters()
        self.handle = ModeTable.from_shared(segment)
        table = self.handle.table
        guard = None
        schedule_dict = config.get("schedule")
        if schedule_dict is not None:
            from repro.faults.environment import SiliconEnvironment
            from repro.faults.events import FaultSchedule
            from repro.serve.guard import MarginGuard

            guard = MarginGuard(
                table,
                SiliconEnvironment(FaultSchedule.from_dict(schedule_dict)),
                headroom_ps=float(config.get("headroom_ps", 0.0)),
            )
        elif config.get("guard") and table.has_margins:
            from repro.serve.guard import MarginGuard

            guard = MarginGuard(
                table, headroom_ps=float(config.get("headroom_ps", 0.0))
            )
        self.guard = guard
        # Closed-loop recalibration: only the worker that owns an
        # injected fault schedule probes (its environment is the one
        # being instrumented); every other guarded peer *adopts* the
        # poster's committed state over the bus, so one canary serves
        # the whole die.
        self.recal = None
        recal_interval = float(config.get("recal_interval_ns") or 0.0)
        if (
            guard is not None
            and recal_interval > 0.0
            and schedule_dict is not None
            and table.has_margins
        ):
            from repro.serve.recal import RecalibrationLoop

            self.recal = RecalibrationLoop(
                guard,
                recal_interval,
                bias_ps=float(config.get("recal_bias_ps", 2.0)),
                readvance_probes=int(config.get("recal_readvance", 3)),
                seed=int(config.get("recal_seed", 0)),
            )
        self.scheduler = ModeScheduler(
            table,
            num_generators=int(config.get("num_generators", 2)),
            policy=str(config.get("policy", "greedy")),
            policy_kwargs=dict(config.get("policy_params") or {}),
            max_queue_depth=int(config.get("max_queue_depth", 8)),
            guard=guard,
            recal=self.recal,
        )
        self.bus = bus
        self.retreat_budget = int(config.get("retreat_budget", 32))
        self.retreat_left = 0
        self.last_epoch = bus.epoch if bus is not None else 0
        # Recal epochs start at 0 so a state posted before this worker
        # spawned is adopted at its very first poll.
        self.last_recal_epoch = 0
        self._posted_recal_epoch = 0
        self.operators: Dict[int, str] = {}

    # -- serving -------------------------------------------------------------

    def _poll_bus(self) -> None:
        if self.bus is None:
            return
        # Hot path: one shared int64 load per channel decides "nothing
        # new"; full reads only happen on a transition.
        if self.bus.recal_epoch != self.last_recal_epoch:
            self._sync_margins()
        if self.bus.epoch == self.last_epoch:
            return
        epoch, _, origin = self.bus.read()
        self.last_epoch = epoch
        if origin != self.worker_id:
            self.scheduler.telemetry.bump("fleet_alerts")
            self.retreat_left = self.retreat_budget

    def _sync_margins(self) -> None:
        """Adopt a peer's committed learner state from the bus."""
        epoch, estimates, admissible, origin = self.bus.read_margins()
        if origin == self.worker_id or self.guard is None:
            self.last_recal_epoch = epoch
            return
        learner = self.guard.learner
        if learner is None:
            if not self.guard.table.has_margins:
                self.last_recal_epoch = epoch
                return
            from repro.serve.recal import MarginLearner

            learner = MarginLearner(self.guard.table)
            self.guard.attach_learner(learner)
        learner.adopt(estimates, admissible, epoch)
        self.last_recal_epoch = epoch
        self.scheduler.telemetry.bump("fleet_margin_syncs")

    def _post_margins(self) -> None:
        """Publish this worker's freshly committed learner state.

        The bus epoch the post returns becomes the learner's epoch --
        the fleet-wide identity of the state -- so the origin and every
        adopting peer report the same ``recal_epoch``.
        """
        learner = self.recal.learner
        estimates, admissible = learner.state_arrays()
        bus_epoch = self.bus.post_margins(
            estimates, admissible, self.worker_id
        )
        learner.epoch = bus_epoch
        self._posted_recal_epoch = bus_epoch
        self.last_recal_epoch = bus_epoch

    def _post_alert(self, served: ServedPhase) -> None:
        if self.bus is None:
            return
        kind = KIND_MARGIN_EROSION
        if self.guard is not None:
            active = [
                e
                for e in self.guard.environment.schedule.active(
                    served.decided_at_ns
                )
                if e.is_silicon
            ]
            if active:
                kind = active[0].kind
        self.last_epoch = self.bus.post(kind, self.worker_id)

    def serve_batch(self, triples: np.ndarray) -> bytes:
        if self.guard is None:
            # No guard means no per-request alert posting, so the only
            # per-request side effect left is the bus poll -- which the
            # fast path coarsens to frame granularity (an alert landing
            # mid-frame is a real-time race either way).
            return self._serve_batch_fast(triples)
        return self._serve_batch_loop(triples)

    def _serve_batch_loop(self, triples: np.ndarray) -> bytes:
        """Per-request frame serving: poll, serve, alert, post margins."""
        # Accumulate plain-python rows and convert once at the end:
        # per-row ``ndarray[row] = [...]`` assignments here were the
        # worker's second-largest per-request cost after the scheduler.
        int_rows = []
        float_rows = []
        operators = self.operators
        for op_id, bits, cycles in triples.tolist():
            request = ServeRequest(operators[op_id], bits, cycles)
            self._poll_bus()
            if self.retreat_left > 0:
                self.retreat_left -= 1
                self.scheduler.telemetry.bump("fleet_retreats")
                served = self.scheduler.submit_degraded(request)
                retreat = True
            else:
                served = self.scheduler.submit(request)
                retreat = False
                if served.margin_fallback:
                    self._post_alert(served)
                if (
                    self.recal is not None
                    and self.bus is not None
                    and self.recal.learner.epoch != self._posted_recal_epoch
                ):
                    self._post_margins()
            int_rows.append(
                (
                    served.served_bits,
                    _phase_flags(served, retreat),
                    served.transition_retries,
                    self.last_epoch,
                    self.last_recal_epoch,
                )
            )
            float_rows.append(
                (
                    served.compute_energy_j,
                    served.transition_energy_j,
                    served.settle_ns,
                    served.queue_wait_ns,
                    served.decided_at_ns,
                )
            )
        return encode_replies(
            np.array(int_rows, dtype="<i8").reshape(-1, REPLY_INT_COLS),
            np.array(float_rows, dtype="<f8").reshape(-1, REPLY_FLOAT_COLS),
        )

    def _serve_batch_fast(self, triples: np.ndarray) -> bytes:
        """Batched frame serving: one kernel call fills the reply arrays.

        While retreating, requests are still served one by one (the bus
        must be re-polled before every degraded decision); the moment
        the retreat budget is spent, the rest of the frame goes through
        :meth:`~repro.serve.scheduler.ModeScheduler.submit_batch_arrays`
        (lookahead clipped to zero so decisions match the per-request
        loop bit for bit) and the reply columns are filled vectorized.
        """
        count = len(triples)
        ints = np.empty((count, REPLY_INT_COLS), dtype="<i8")
        floats = np.empty((count, REPLY_FLOAT_COLS), dtype="<f8")
        operators = self.operators
        rows = triples.tolist()
        start = 0
        while start < count:
            self._poll_bus()
            if self.retreat_left > 0:
                op_id, bits, cycles = rows[start]
                self.retreat_left -= 1
                self.scheduler.telemetry.bump("fleet_retreats")
                served = self.scheduler.submit_degraded(
                    ServeRequest(operators[op_id], bits, cycles)
                )
                ints[start] = (
                    served.served_bits,
                    _phase_flags(served, True),
                    served.transition_retries,
                    self.last_epoch,
                    self.last_recal_epoch,
                )
                floats[start] = (
                    served.compute_energy_j,
                    served.transition_energy_j,
                    served.settle_ns,
                    served.queue_wait_ns,
                    served.decided_at_ns,
                )
                start += 1
                continue
            names = [operators[op_id] for op_id, _, _ in rows[start:]]
            result = self.scheduler.submit_batch_arrays(
                names,
                triples[start:, 1],
                triples[start:, 2],
                upcoming_cap=0,
            )
            tail = slice(start, count)
            ints[tail, 0] = result.served_bits
            ints[tail, 1] = (
                result.switched * FLAG_SWITCHED
                | result.batched * FLAG_BATCHED
                | result.degraded * FLAG_DEGRADED
                | result.margin_fallback * FLAG_MARGIN_FALLBACK
            )
            ints[tail, 2] = result.transition_retries
            ints[tail, 3] = self.last_epoch
            ints[tail, 4] = self.last_recal_epoch
            floats[tail, 0] = result.compute_energy_j
            floats[tail, 1] = result.transition_energy_j
            floats[tail, 2] = result.settle_ns
            floats[tail, 3] = result.queue_wait_ns
            floats[tail, 4] = result.decided_at_ns
            break
        return encode_replies(ints, floats)

    # -- control -------------------------------------------------------------

    def stats(self) -> Dict:
        counters = parse_counters()
        return {
            "worker_id": self.worker_id,
            "telemetry": self.scheduler.telemetry.snapshot(),
            "parse": {
                key: counters[key] - self.parse_baseline[key]
                for key in counters
            },
            "operators": sorted(self.operators.values()),
            "attach_count": self.handle.attach_count,
            "epoch": self.last_epoch,
            "recal_epoch": self.last_recal_epoch,
            "recal": self.recal.snapshot() if self.recal else None,
        }


def worker_main(
    conn, worker_id: int, segment: str, bus: Optional[FleetBus], config: Dict
) -> None:
    """Process entry point: serve frames until ``shutdown`` or EOF."""
    runtime = _WorkerRuntime(worker_id, segment, bus, config)
    try:
        while True:
            try:
                frame = conn.recv_bytes()
            except EOFError:  # router died; nothing to clean up but us
                break
            tag = frame[:1]
            if tag == TAG_BATCH:
                conn.send_bytes(runtime.serve_batch(decode_batch(frame)))
                continue
            control = parse_control(frame)
            command = control.get("cmd")
            if command == "register":
                runtime.operators.update(
                    {int(k): str(v) for k, v in control["ops"].items()}
                )
                conn.send_bytes(control_frame({"ok": True}))
            elif command == "stats":
                conn.send_bytes(control_frame(runtime.stats()))
            elif command == "shutdown":
                conn.send_bytes(control_frame({"ok": True}))
                break
            else:
                conn.send_bytes(
                    control_frame(
                        {"ok": False, "error": f"unknown cmd {command!r}"}
                    )
                )
    finally:
        runtime.handle.close()
        conn.close()
