"""The fleet front end: consistent-hash routing over worker processes.

:class:`FleetRouter` is the process that owns everything shared:

* it exports the compiled :class:`~repro.serve.table.ModeTable` into a
  shared-memory segment **once** (:meth:`ModeTable.to_shared`) and hands
  workers only the segment *name* -- N workers, one copy of the dense
  transition/margin matrices;
* it spawns N :func:`~repro.fleet.worker.worker_main` processes, each
  with a private duplex pipe, and places operators on them with a
  :class:`~repro.fleet.hashing.ConsistentHashRing` -- every operator's
  requests reach one worker, in order, which is what keeps fleet phase
  decisions bit-identical to a single-process scheduler;
* it **batches** compatible same-worker requests (up to
  ``batch_window`` per frame, ``max_inflight`` frames pipelined per
  worker), amortizing pipe round-trips so added workers translate into
  throughput instead of IPC overhead;
* it owns the :class:`~repro.fleet.bus.FleetBus` the workers use to
  propagate margin alerts, and tears the segment down (``unlink``) at
  :meth:`stop`.

A worker death (crash injection, OOM kill) is handled by **failover**:
the dead worker leaves the ring, its unanswered requests are re-hashed
onto the survivors in their original order, and its operators restart
from scheduler power-on state there -- degraded continuity, never an
exception on the caller.
"""

from __future__ import annotations

import multiprocessing
from collections import deque
from itertools import islice
from multiprocessing.connection import wait as connection_wait
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import AUTO_WORKERS, resolve_env_count
from repro.fleet.bus import FleetBus
from repro.fleet.hashing import DEFAULT_VNODES, ConsistentHashRing
from repro.fleet.worker import (
    FLAG_BATCHED,
    FLAG_DEGRADED,
    FLAG_FLEET_RETREAT,
    FLAG_MARGIN_FALLBACK,
    FLAG_SWITCHED,
    TAG_BATCH,
    control_frame,
    decode_replies,
    encode_batch,
    parse_control,
    worker_main,
)
from repro.serve.table import ModeTable, SharedModeTable

#: Environment override consulted when ``workers`` is AUTO_WORKERS.
FLEET_WORKERS_ENV = "REPRO_FLEET_WORKERS"


def resolve_fleet_workers(requested: int) -> int:
    """Fleet-size policy: AUTO consults $REPRO_FLEET_WORKERS, then CPUs."""
    return resolve_env_count(requested, FLEET_WORKERS_ENV)


class FleetError(RuntimeError):
    """The fleet cannot make progress (e.g. every worker died)."""


class FleetServedPhase(NamedTuple):
    """One served request as seen through the fleet wire protocol.

    A ``NamedTuple`` rather than a dataclass: the router materializes
    one per request on the reply hot path, and tuple construction is
    what keeps its per-request overhead below the workers' decision
    cost (the saturation benchmark's scaling floor depends on it).
    """

    operator: str
    required_bits: int
    served_bits: int
    compute_energy_j: float
    transition_energy_j: float
    settle_ns: float
    queue_wait_ns: float
    switched: bool
    batched: bool
    degraded: bool
    margin_fallback: bool
    fleet_retreat: bool
    transition_retries: int
    decided_at_ns: float
    epoch_seen: int
    recal_epoch: int
    worker_id: int


class _WorkerHandle:
    """Router-side state of one worker process."""

    def __init__(self, worker_id: int, process, conn):
        self.worker_id = worker_id
        self.process = process
        self.conn = conn
        self.known_ops: set = set()
        #: FIFO of expected replies: ("ack", None) or ("batch", items).
        self.inflight: deque = deque()
        self.queue: deque = deque()


class FleetRouter:
    """Routes accuracy-mode requests across a worker-process fleet."""

    def __init__(
        self,
        table: ModeTable,
        workers: int = AUTO_WORKERS,
        batch_window: int = 16,
        max_inflight: int = 2,
        num_generators: int = 2,
        policy: str = "greedy",
        policy_params: Optional[Dict] = None,
        max_queue_depth: int = 8,
        guard: bool = False,
        headroom_ps: float = 0.0,
        retreat_budget: int = 32,
        schedules: Optional[Dict[int, Dict]] = None,
        vnodes: int = DEFAULT_VNODES,
        segment_name: Optional[str] = None,
        recal_interval_ns: float = 0.0,
        recal_bias_ps: float = 2.0,
        recal_readvance: int = 3,
        recal_seed: int = 0,
    ):
        if batch_window < 1:
            raise ValueError("batch_window must be >= 1")
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if retreat_budget < 1:
            raise ValueError("retreat_budget must be >= 1")
        if recal_interval_ns < 0.0:
            raise ValueError("recal_interval_ns must be >= 0")
        self.num_workers = resolve_fleet_workers(workers)
        self.batch_window = batch_window
        self.max_inflight = max_inflight
        self.retreat_budget = retreat_budget
        self._config = {
            "num_generators": num_generators,
            "policy": policy,
            "policy_params": dict(policy_params or {}),
            "max_queue_depth": max_queue_depth,
            "guard": guard,
            "headroom_ps": headroom_ps,
            "retreat_budget": retreat_budget,
            # Canary recalibration: workers that own an injected fault
            # schedule run the probe loop; guarded peers adopt committed
            # margin states over the bus (see repro.fleet.worker).
            "recal_interval_ns": recal_interval_ns,
            "recal_bias_ps": recal_bias_ps,
            "recal_readvance": recal_readvance,
            "recal_seed": recal_seed,
        }
        self._schedules = dict(schedules or {})
        self._vnodes = vnodes
        self._segment_name = segment_name
        self._table = table
        self._shared: Optional[SharedModeTable] = None
        self._bus: Optional[FleetBus] = None
        self._workers: Dict[int, _WorkerHandle] = {}
        self._ring: Optional[ConsistentHashRing] = None
        self._op_ids: Dict[str, int] = {}
        self._op_names: Dict[int, str] = {}
        self._route: Dict[str, _WorkerHandle] = {}
        self._required: Dict[int, Tuple[int, int]] = {}
        self.failovers = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._workers:
            raise RuntimeError("fleet already started")
        self._shared = self._table.to_shared(name=self._segment_name)
        self._bus = FleetBus(num_modes=len(self._table.modes))
        for worker_id in range(self.num_workers):
            self._spawn(worker_id)
        self._ring = ConsistentHashRing(
            range(self.num_workers), vnodes=self._vnodes
        )

    def _spawn(self, worker_id: int) -> None:
        parent_conn, child_conn = multiprocessing.Pipe()
        config = dict(self._config)
        if worker_id in self._schedules:
            config["schedule"] = self._schedules[worker_id]
        process = multiprocessing.Process(
            target=worker_main,
            args=(child_conn, worker_id, self._shared.name, self._bus, config),
            name=f"repro-fleet-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        # Close the parent's copy of the child end so a dead worker
        # surfaces as EOF instead of a hang.
        child_conn.close()
        self._workers[worker_id] = _WorkerHandle(
            worker_id, process, parent_conn
        )

    def stop(self) -> None:
        """Shut workers down, then unlink the shared segment."""
        for handle in self._workers.values():
            try:
                handle.conn.send_bytes(control_frame({"cmd": "shutdown"}))
                handle.conn.recv_bytes()
            except (BrokenPipeError, EOFError, OSError):
                pass
            handle.conn.close()
        for handle in self._workers.values():
            handle.process.join(timeout=5.0)
            if handle.process.is_alive():  # pragma: no cover - stuck child
                handle.process.terminate()
                handle.process.join(timeout=5.0)
        self._workers.clear()
        if self._shared is not None:
            self._shared.unlink()
            self._shared = None

    def __enter__(self) -> "FleetRouter":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- introspection -------------------------------------------------------

    @property
    def segment_name(self) -> str:
        if self._shared is None:
            raise RuntimeError("fleet is not running")
        return self._shared.name

    @property
    def bus(self) -> FleetBus:
        if self._bus is None:
            raise RuntimeError("fleet is not running")
        return self._bus

    @property
    def alive_workers(self) -> List[int]:
        return sorted(self._workers)

    def worker_for(self, operator: str) -> int:
        if self._ring is None:
            raise RuntimeError("fleet is not running")
        return self._ring.worker_for(operator)

    @property
    def propagation_bound(self) -> int:
        """Max requests the fleet may decide before every peer retreats.

        An alert lands on the bus as part of deciding one request;
        every other worker polls the epoch before each decision, so the
        only requests that can still be decided un-retreated are the
        ones already *being* decided fleet-wide plus one more per peer:
        bounded by workers x max_inflight x batch_window.
        """
        return self.num_workers * self.max_inflight * self.batch_window

    # -- serving -------------------------------------------------------------

    def submit(
        self, operator: str, required_bits: int, cycles: int
    ) -> FleetServedPhase:
        """Serve one request (a batch of one; tests and trickle use)."""
        return self.submit_many([(operator, required_bits, cycles)])[0]

    def submit_many(
        self, requests: Sequence[Tuple[str, int, int]]
    ) -> List[FleetServedPhase]:
        """Serve a request list; replies come back in request order.

        Requests are partitioned per owning worker (preserving each
        operator's relative order), chopped into ``batch_window`` frames
        and pipelined ``max_inflight`` deep per worker.
        """
        if self._ring is None:
            raise RuntimeError("fleet is not running")
        results: List[Optional[FleetServedPhase]] = [None] * len(requests)
        # Operator -> handle routes are sticky between failovers, so
        # cache them: one blake2b ring walk per *operator*, not per
        # request (_failover clears the cache when the ring changes).
        route = self._route
        for index, (operator, bits, cycles) in enumerate(requests):
            op_id = self._op_id(operator)
            self._required[index] = (op_id, bits)
            worker = route.get(operator)
            if worker is None:
                worker = self._workers.get(self._ring.worker_for(operator))
                if worker is None:  # pragma: no cover - ring/worker raced
                    raise FleetError("request routed to a dead worker")
                route[operator] = worker
            worker.queue.append((index, op_id, bits, cycles))
        try:
            self._pump(results)
        finally:
            self._required.clear()
        return results  # type: ignore[return-value]

    def _op_id(self, operator: str) -> int:
        if operator not in self._op_ids:
            op_id = len(self._op_ids)
            self._op_ids[operator] = op_id
            self._op_names[op_id] = operator
        return self._op_ids[operator]

    def _pump(self, results: List[Optional[FleetServedPhase]]) -> None:
        while True:
            for handle in list(self._workers.values()):
                self._fill_pipeline(handle)
            waiting = [
                handle
                for handle in self._workers.values()
                if handle.inflight
            ]
            if not waiting:
                if any(h.queue for h in self._workers.values()):
                    # Queues non-empty but nothing in flight: every
                    # send failed; _fill_pipeline already failed over.
                    continue  # pragma: no cover - transient
                return
            ready = connection_wait([h.conn for h in waiting])
            for handle in list(waiting):
                if handle.conn not in ready:
                    continue
                try:
                    frame = handle.conn.recv_bytes()
                except (EOFError, OSError):
                    self._failover(handle)
                    continue
                self._absorb(handle, frame, results)

    def _fill_pipeline(self, handle: _WorkerHandle) -> None:
        while handle.queue and len(handle.inflight) < self.max_inflight:
            # Only the window about to be framed needs its ops known;
            # scanning the whole queue here would be O(queue^2) across a
            # large submit_many.
            window = min(self.batch_window, len(handle.queue))
            unknown = {
                op_id
                for _, op_id, _, _ in islice(handle.queue, window)
                if op_id not in handle.known_ops
            }
            if unknown:
                try:
                    handle.conn.send_bytes(
                        control_frame(
                            {
                                "cmd": "register",
                                "ops": {
                                    op_id: self._op_names[op_id]
                                    for op_id in unknown
                                },
                            }
                        )
                    )
                except (BrokenPipeError, OSError):
                    self._failover(handle)
                    return
                handle.known_ops |= unknown
                handle.inflight.append(("ack", None))
                continue
            items = [
                handle.queue.popleft()
                for _ in range(min(self.batch_window, len(handle.queue)))
            ]
            triples = np.array(
                [(op_id, bits, cycles) for _, op_id, bits, cycles in items],
                dtype="<i8",
            ).reshape(-1, 3)
            try:
                handle.conn.send_bytes(encode_batch(triples))
            except (BrokenPipeError, OSError):
                # The popped items are in neither queue nor inflight:
                # restore them before failover re-hashes the queue.
                handle.queue.extendleft(reversed(items))
                self._failover(handle)
                return
            handle.inflight.append(("batch", items))

    def _absorb(
        self,
        handle: _WorkerHandle,
        frame: bytes,
        results: List[Optional[FleetServedPhase]],
    ) -> None:
        kind, items = handle.inflight.popleft()
        if frame[:1] != TAG_BATCH:
            payload = parse_control(frame)
            if kind != "ack" or not payload.get("ok"):
                raise FleetError(
                    f"worker {handle.worker_id} broke protocol: "
                    f"expected {kind} reply, got {payload!r}"
                )
            return
        if kind != "batch":  # pragma: no cover - protocol violation
            raise FleetError(
                f"worker {handle.worker_id} sent a batch reply to an "
                f"{kind} frame"
            )
        ints, floats = decode_replies(frame)
        # tolist() converts each numpy row to plain python scalars in
        # one C call; per-element int()/float() casts here dominated the
        # router's per-request cost before.
        op_names = self._op_names
        worker_id = handle.worker_id
        for (index, op_id, bits, _), int_row, float_row in zip(
            items, ints.tolist(), floats.tolist()
        ):
            served_bits, flags, retries, epoch_seen, recal_epoch = int_row
            compute_e, transition_e, settle, queue_wait, decided = float_row
            results[index] = FleetServedPhase(
                op_names[op_id],
                bits,
                served_bits,
                compute_e,
                transition_e,
                settle,
                queue_wait,
                bool(flags & FLAG_SWITCHED),
                bool(flags & FLAG_BATCHED),
                bool(flags & FLAG_DEGRADED),
                bool(flags & FLAG_MARGIN_FALLBACK),
                bool(flags & FLAG_FLEET_RETREAT),
                retries,
                decided,
                epoch_seen,
                recal_epoch,
                worker_id,
            )

    def _failover(self, handle: _WorkerHandle) -> None:
        """Remove a dead worker; re-hash its unanswered work in order."""
        if handle.worker_id not in self._workers:
            return
        del self._workers[handle.worker_id]
        self._route.clear()
        self.failovers += 1
        if not self._workers:
            raise FleetError("every fleet worker died")
        self._ring.remove(handle.worker_id)
        handle.conn.close()
        handle.process.join(timeout=5.0)
        orphaned: List[Tuple[int, int, int, int]] = []
        for kind, items in handle.inflight:
            if kind == "batch":
                orphaned.extend(items)
        orphaned.extend(handle.queue)
        for index, op_id, bits, cycles in orphaned:
            operator = self._op_names[op_id]
            target = self._workers[self._ring.worker_for(operator)]
            target.queue.append((index, op_id, bits, cycles))

    # -- telemetry -----------------------------------------------------------

    def stats(self) -> Dict:
        """Aggregated fleet telemetry (only between submit batches)."""
        if any(h.inflight or h.queue for h in self._workers.values()):
            raise RuntimeError("stats() while requests are in flight")
        per_worker = []
        for handle in list(self._workers.values()):
            try:
                handle.conn.send_bytes(control_frame({"cmd": "stats"}))
                per_worker.append(parse_control(handle.conn.recv_bytes()))
            except (BrokenPipeError, EOFError, OSError):
                self._failover(handle)
        counters: Dict[str, int] = {}
        for stats in per_worker:
            for key, value in stats["telemetry"]["counters"].items():
                counters[key] = counters.get(key, 0) + value
        return {
            "workers": per_worker,
            "counters": counters,
            "num_workers": len(per_worker),
            "failovers": self.failovers,
            "segment": self._shared.name if self._shared else None,
            "segment_bytes": (
                self._shared.size_bytes if self._shared else 0
            ),
            "attach_count": (
                self._shared.attach_count if self._shared else 0
            ),
            "bus_epoch": self._bus.epoch if self._bus else 0,
            "bus_recal_epoch": (
                self._bus.recal_epoch if self._bus else 0
            ),
        }
