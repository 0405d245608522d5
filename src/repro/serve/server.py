"""Asyncio front end of the accuracy-serving subsystem.

Two entry points onto one :class:`~repro.serve.scheduler.ModeScheduler`:

* an **in-process API** -- ``await server.request(op, bits, cycles)`` --
  for applications living in the same interpreter;
* a **JSON-lines socket** -- one request object per line, one response
  object per line -- for everything else.  ``{"cmd": "stats"}`` returns
  the telemetry snapshot; ``{"cmd": "recalibrate"}`` forces one canary
  probe round when a recalibration loop is attached (a structured,
  recoverable ``recalibration_failed`` error frame otherwise).

All submissions funnel through one bounded queue drained by a single
worker task, which both serializes access to the (synchronous, virtual
time) scheduler and provides backpressure: when the queue is full the
request is *still answered* -- served immediately on the scheduler's
degraded path (static maximum-accuracy mode) instead of queueing, so an
overloaded server sheds precision headroom, never correctness.

The worker serves every drained request through
:meth:`~repro.serve.scheduler.ModeScheduler.submit`, one at a time:
socket requests arrive a few at a time, and on frames that small the
batched kernel's planning costs more than it saves.

Shutdown is graceful: in-flight requests finish, the socket closes, the
worker drains and exits.
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional

from repro.serve.errors import (
    ERROR_ACCURACY_VIOLATION,
    ERROR_BAD_JSON,
    ERROR_BAD_REQUEST,
    ERROR_NOT_OBJECT,
    ERROR_OVERSIZED_LINE,
    ERROR_RECALIBRATION_FAILED,
    RecalibrationError,
    error_payload,
)
from repro.serve.scheduler import (
    AccuracyViolation,
    ModeScheduler,
    ServedPhase,
    ServeRequest,
)

#: Default cap on one JSON-lines request (bytes, newline included).
DEFAULT_MAX_LINE_BYTES = 64 * 1024


def phase_to_dict(served: ServedPhase) -> dict:
    """Wire form of a served phase."""
    return {
        "operator": served.operator,
        "required_bits": served.required_bits,
        "served_bits": served.served_bits,
        "vdd": served.mode.vdd,
        "bb_config": list(served.mode.bb_config),
        "compute_energy_j": served.compute_energy_j,
        "transition_energy_j": served.transition_energy_j,
        "settle_ns": served.settle_ns,
        "queue_wait_ns": served.queue_wait_ns,
        "switched": served.switched,
        "batched": served.batched,
        "degraded": served.degraded,
        "margin_fallback": served.margin_fallback,
        "transition_retries": served.transition_retries,
    }


class AccuracyServer:
    """Serves accuracy-mode requests over asyncio (in-proc and socket)."""

    def __init__(
        self,
        scheduler: ModeScheduler,
        host: str = "127.0.0.1",
        port: int = 0,
        max_pending: int = 64,
        drain_delay_s: float = 0.0,
        max_line_bytes: int = DEFAULT_MAX_LINE_BYTES,
    ):
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if max_line_bytes < 2:
            raise ValueError("max_line_bytes must be >= 2")
        self.scheduler = scheduler
        self.host = host
        self._requested_port = port
        #: Artificial per-request drain pause (tests/benchmarks use it to
        #: force queue saturation deterministically).
        self.drain_delay_s = drain_delay_s
        self.max_line_bytes = max_line_bytes
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=max_pending)
        self._server: Optional[asyncio.AbstractServer] = None
        self._worker: Optional[asyncio.Task] = None
        self._stopping = False

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        if self._worker is not None:
            raise RuntimeError("server already started")
        self._worker = asyncio.ensure_future(self._drain())
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self._requested_port,
            limit=self.max_line_bytes,
        )

    @property
    def port(self) -> int:
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not listening")
        return self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Finish in-flight work, close the socket, stop the worker."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._worker is not None:
            await self._queue.join()
            self._worker.cancel()
            try:
                await self._worker
            except asyncio.CancelledError:
                pass
            self._worker = None

    async def __aenter__(self) -> "AccuracyServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- in-process API ------------------------------------------------------

    async def request(
        self, operator: str, required_bits: int, cycles: int
    ) -> ServedPhase:
        """Serve one request; degrades instead of blocking when saturated."""
        if self._stopping:
            raise RuntimeError("server is stopping")
        req = ServeRequest(operator, required_bits, cycles)
        future = asyncio.get_event_loop().create_future()
        try:
            self._queue.put_nowait((req, future))
        except asyncio.QueueFull:
            return self.scheduler.submit_degraded(req)
        return await future

    def stats(self) -> dict:
        return self.scheduler.telemetry.snapshot()

    def recalibrate(self) -> dict:
        """Force one canary probe round; structured error when it can't.

        A failed probe is *recoverable* -- the guard keeps serving on
        its last committed (conservative) margins and the connection
        stays usable -- so the reply is an error frame, never a dropped
        connection.
        """
        recal = getattr(self.scheduler, "recal", None)
        if recal is None:
            self.scheduler.telemetry.bump("errors")
            return error_payload(
                ERROR_RECALIBRATION_FAILED,
                "no recalibration loop is attached; start the server "
                "with --recal-interval on a margin-compiled table",
            )
        try:
            recal.recalibrate(
                self.scheduler.latest_clock_ns(), self.scheduler.telemetry
            )
        except RecalibrationError as error:
            self.scheduler.telemetry.bump("errors")
            return error_payload(
                ERROR_RECALIBRATION_FAILED, f"recalibration failed: {error}"
            )
        return {"recalibrated": recal.snapshot()}

    # -- internals -----------------------------------------------------------

    async def _drain(self) -> None:
        while True:
            req, future = await self._queue.get()
            try:
                served = self.scheduler.submit(req)
                if not future.done():
                    future.set_result(served)
            except Exception as error:  # surfaced to caller, not lost
                if not future.done():
                    future.set_exception(error)
            finally:
                self._queue.task_done()
            if self.drain_delay_s > 0.0:
                await asyncio.sleep(self.drain_delay_s)

    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as eof:
                    # EOF mid-line: a client that died after writing a
                    # partial request, or (common) one whose final line
                    # lacks the trailing newline.  Serve what arrived,
                    # then treat the connection as closed.
                    if eof.partial:
                        response = await self._handle_line(eof.partial)
                        await self._respond(writer, response)
                    break
                except asyncio.LimitOverrunError:
                    # The line is longer than the read buffer, so the
                    # stream cannot be resynchronized to the next
                    # newline; answer structurally, then drop the
                    # connection.
                    self.scheduler.telemetry.bump("errors")
                    await self._respond(
                        writer,
                        error_payload(
                            ERROR_OVERSIZED_LINE,
                            f"request line exceeds {self.max_line_bytes} "
                            "bytes; connection will close",
                            recoverable=False,
                        ),
                    )
                    break
                response = await self._handle_line(line)
                await self._respond(writer, response)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _respond(writer, response: dict) -> None:
        writer.write(json.dumps(response).encode() + b"\n")
        try:
            await writer.drain()
        except (ConnectionError, OSError):
            pass

    async def _handle_line(self, line: bytes) -> dict:
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as error:
            self.scheduler.telemetry.bump("errors")
            return error_payload(ERROR_BAD_JSON, f"bad json: {error}")
        if not isinstance(payload, dict):
            self.scheduler.telemetry.bump("errors")
            return error_payload(
                ERROR_NOT_OBJECT,
                f"expected a json object, got {type(payload).__name__}",
            )
        if payload.get("cmd") == "stats":
            return {"stats": self.stats()}
        if payload.get("cmd") == "recalibrate":
            return self.recalibrate()
        try:
            served = await self.request(
                str(payload["op"]),
                int(payload["bits"]),
                int(payload.get("cycles", 0)),
            )
            return phase_to_dict(served)
        except (KeyError, TypeError, ValueError) as error:
            self.scheduler.telemetry.bump("errors")
            return error_payload(ERROR_BAD_REQUEST, f"bad request: {error}")
        except AccuracyViolation as error:
            return error_payload(
                ERROR_ACCURACY_VIOLATION,
                f"accuracy violation: {error}",
                recoverable=False,
            )
