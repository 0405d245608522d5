"""The asyncio front end: in-proc API, JSON-lines socket, overload, shutdown."""

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.io.results import save_mode_table
from repro.serve.scheduler import ModeScheduler
from repro.serve.server import AccuracyServer, phase_to_dict
from tests.conftest import build_synthetic_table


def run(coroutine):
    """Drive an async test body from sync pytest (no plugin needed)."""
    return asyncio.run(coroutine)


def make_server(**kwargs) -> AccuracyServer:
    scheduler = ModeScheduler(build_synthetic_table(), num_generators=2)
    return AccuracyServer(scheduler, **kwargs)


class TestInProcessApi:
    def test_serves_and_accounts(self):
        async def body():
            async with make_server() as server:
                served = await server.request("op", 4, 1_000)
                assert served.served_bits >= 4
                assert served.switched  # power-on
                again = await server.request("op", 4, 1_000)
                assert not again.switched
                stats = server.stats()
                assert stats["counters"]["requests"] == 2
                assert stats["per_operator"] == {"op": 2}

        run(body())

    def test_concurrent_clients_all_answered(self):
        async def body():
            async with make_server() as server:
                phases = await asyncio.gather(
                    *(
                        server.request(f"op{i % 3}", 2 + 2 * (i % 4), 100)
                        for i in range(60)
                    )
                )
                assert len(phases) == 60
                for phase in phases:
                    assert phase.served_bits >= phase.required_bits

        run(body())

    def test_bad_request_surfaces_to_caller(self):
        async def body():
            async with make_server() as server:
                with pytest.raises(ValueError, match="required_bits"):
                    await server.request("op", 0, 100)

        run(body())

    def test_uncoverable_request_fails_alone(self):
        async def body():
            async with make_server(max_pending=64) as server:
                return await asyncio.gather(
                    server.request("op", 4, 100),
                    server.request("op", 16, 100),
                    server.request("op", 6, 100),
                    return_exceptions=True,
                )

        ok1, bad, ok2 = run(body())
        assert ok1.served_bits >= 4
        assert isinstance(bad, ValueError)
        assert ok2.served_bits >= 6

    def test_overload_sheds_to_degraded_path(self):
        async def body():
            # One-slot queue and a slow drain: the second put finds the
            # queue full and must be served degraded, not blocked.
            async with make_server(
                max_pending=1, drain_delay_s=0.02
            ) as server:
                phases = await asyncio.gather(
                    *(server.request("op", 2, 10) for _ in range(8))
                )
                degraded = [p for p in phases if p.degraded]
                assert degraded, "full queue never shed load"
                for phase in degraded:
                    assert phase.served_bits == 8  # static max-accuracy
                counters = server.stats()["counters"]
                assert counters["degraded"] == len(degraded)

        run(body())


class TestSocket:
    @staticmethod
    async def talk(port, lines):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        replies = []
        for line in lines:
            writer.write(line.encode() + b"\n")
            await writer.drain()
            replies.append(json.loads(await reader.readline()))
        writer.close()
        await writer.wait_closed()
        return replies

    def test_json_lines_round_trip(self):
        async def body():
            async with make_server() as server:
                replies = await self.talk(
                    server.port,
                    [
                        json.dumps({"op": "sock", "bits": 4, "cycles": 500}),
                        json.dumps({"op": "sock", "bits": 8}),
                        json.dumps({"cmd": "stats"}),
                    ],
                )
                assert replies[0]["served_bits"] >= 4
                assert replies[0]["switched"] is True
                assert replies[1]["served_bits"] == 8
                assert replies[2]["stats"]["counters"]["requests"] == 2

        run(body())

    def test_malformed_lines_answered_with_structured_errors(self):
        async def body():
            async with make_server() as server:
                replies = await self.talk(
                    server.port,
                    [
                        "this is not json",
                        json.dumps([1, 2, 3]),
                        json.dumps({"bits": 4}),  # missing "op"
                        json.dumps({"op": "x", "bits": 0}),
                    ],
                )
                kinds = [r["error"]["kind"] for r in replies]
                assert kinds == [
                    "bad_json",
                    "not_object",
                    "bad_request",
                    "bad_request",
                ]
                for reply in replies:
                    assert reply["error"]["recoverable"] is True
                    assert reply["error"]["message"]
                assert "bad json" in replies[0]["error"]["message"]
                assert server.stats()["counters"]["errors"] == 4

        run(body())

    def test_oversized_line_rejected_without_crashing(self):
        async def body():
            async with make_server(max_line_bytes=256) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b"x" * 1024 + b"\n")
                await writer.drain()
                reply = json.loads(await reader.readline())
                assert reply["error"]["kind"] == "oversized_line"
                assert reply["error"]["recoverable"] is False
                assert await reader.readline() == b""  # server hung up
                writer.close()
                await writer.wait_closed()
                # The server survives and keeps serving new connections.
                replies = await self.talk(
                    server.port,
                    [json.dumps({"op": "after", "bits": 4, "cycles": 10})],
                )
                assert replies[0]["served_bits"] >= 4
                assert server.stats()["counters"]["errors"] == 1

        run(body())

    def test_partial_final_line_still_served_at_eof(self):
        async def body():
            async with make_server() as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                # No trailing newline: the client hangs up mid-line.
                payload = json.dumps({"op": "eof", "bits": 6, "cycles": 42})
                writer.write(payload.encode())
                await writer.drain()
                writer.write_eof()
                reply = json.loads(await reader.readline())
                assert reply["served_bits"] >= 6
                writer.close()
                await writer.wait_closed()
                assert server.stats()["per_operator"] == {"eof": 1}

        run(body())

    def test_clean_eof_without_partial_line_is_silent(self):
        async def body():
            async with make_server() as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write_eof()
                assert await reader.readline() == b""
                writer.close()
                await writer.wait_closed()
                assert server.stats()["counters"]["errors"] == 0

        run(body())

    def test_many_clients_share_one_scheduler(self):
        async def body():
            async with make_server() as server:
                async def client(name):
                    return await self.talk(
                        server.port,
                        [
                            json.dumps(
                                {"op": name, "bits": 4, "cycles": 100}
                            )
                            for _ in range(10)
                        ],
                    )

                replies = await asyncio.gather(
                    *(client(f"c{i}") for i in range(5))
                )
                assert all(
                    r["served_bits"] >= 4 for rs in replies for r in rs
                )
                per_op = server.stats()["per_operator"]
                assert per_op == {f"c{i}": 10 for i in range(5)}

        run(body())


class TestLifecycle:
    def test_stop_drains_in_flight_work(self):
        async def body():
            server = make_server(max_pending=64, drain_delay_s=0.001)
            await server.start()
            pending = [
                asyncio.ensure_future(server.request("op", 4, 10))
                for _ in range(10)
            ]
            await asyncio.sleep(0)  # let every task enqueue its request
            await server.stop()
            phases = await asyncio.gather(*pending)
            assert len(phases) == 10
            assert server.stats()["counters"]["requests"] == 10

        run(body())

    def test_request_after_stop_rejected(self):
        async def body():
            server = make_server()
            await server.start()
            await server.stop()
            with pytest.raises(RuntimeError, match="stopping"):
                await server.request("op", 4, 10)

        run(body())

    def test_double_start_rejected(self):
        async def body():
            server = make_server()
            await server.start()
            try:
                with pytest.raises(RuntimeError, match="already started"):
                    await server.start()
            finally:
                await server.stop()

        run(body())

    def test_port_unavailable_before_start(self):
        server = make_server()
        with pytest.raises(RuntimeError, match="not listening"):
            server.port


class TestServeCommand:
    @pytest.mark.parametrize(
        "signum", [signal.SIGTERM, signal.SIGINT], ids=["sigterm", "sigint"]
    )
    def test_signal_after_a_request_exits_cleanly(self, tmp_path, signum):
        table_path = tmp_path / "table.json"
        with open(table_path, "w") as stream:
            save_mode_table(build_synthetic_table(), stream)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--table",
             str(table_path), "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env,
        )
        try:
            for line in proc.stdout:
                if line.startswith("REPRO_SERVE_PORT="):
                    port = int(line.split("=", 1)[1])
                    break
            else:
                pytest.fail("serve exited before listening")
            with socket.create_connection(("127.0.0.1", port), 10) as sock:
                sock.sendall(b'{"cmd": "stats"}\n')
                assert b"counters" in sock.makefile("rb").readline()
            proc.send_signal(signum)
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, err
        assert "shutting down" in out
        assert "Traceback" not in err


class TestWireFormat:
    def test_phase_to_dict_is_json_ready(self):
        async def body():
            async with make_server() as server:
                served = await server.request("op", 6, 100)
                payload = phase_to_dict(served)
                round_tripped = json.loads(json.dumps(payload))
                assert round_tripped["served_bits"] == served.served_bits
                assert round_tripped["degraded"] is False
                assert isinstance(round_tripped["bb_config"], list)

        run(body())