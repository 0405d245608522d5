"""Child processes of one benchmark run: timed commands and servers.

Every program call is a fresh ``python bench/launch.py`` process, timed
here from spawn to exit on the monotonic clock the launcher shares.  The
children see the parent's environment minus every ``REPRO_*`` variable,
with ``REPRO_CACHE_DIR`` pointed at the run's own temporary directory,
and they run inside that directory.  A :class:`Session` owns the
directory and every child it started; closing it stops them all.
"""

from __future__ import annotations

import json
import os
import select
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
LAUNCH = BENCH / "launch.py"
TMP = ROOT / ".bench_tmp"

#: Upper bound on one program call; a hung child counts as failed.
CALL_TIMEOUT_S = 150.0
#: Upper bound on server start-up and shutdown.
SERVER_TIMEOUT_S = 60.0


@dataclass
class Call:
    """One finished program call as seen from outside."""

    argv: List[str]
    rc: int
    wall: float
    stdout: str
    stderr: str
    record: Optional[dict]

    @property
    def ok(self) -> bool:
        return self.rc == 0 and self.record is not None

    @property
    def last_line(self) -> str:
        lines = self.stdout.strip().splitlines()
        return lines[-1] if lines else ""

    @property
    def window(self) -> float:
        """Spawn to the end of ``main``: command start to output written."""
        return self.record["main"][1] - self.record["spawned"]

    def describe(self) -> str:
        tail = self.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return f"`repro {' '.join(self.argv)}` exited {self.rc}: {tail[0]}"


def _load(path: Path) -> Optional[dict]:
    try:
        with open(path) as stream:
            return json.load(stream)
    except (OSError, ValueError):
        return None


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time a live process has used so far."""
    with open(f"/proc/{pid}/stat") as stream:
        fields = stream.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Session:
    """The temporary directory and the child processes of one run."""

    def __init__(self):
        TMP.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=TMP))
        self.env = {
            key: value
            for key, value in os.environ.items()
            if not key.startswith("REPRO_")
        }
        self.env["REPRO_CACHE_DIR"] = str(self.tmp / "cache")
        self.servers: List[Server] = []
        self._count = 0

    def path(self, name: str) -> Path:
        return self.tmp / name

    def launch_argv(self, argv, rep, trace, import_only, spawned):
        """The launcher command line for *argv*, and its result file."""
        self._count += 1
        result = self.tmp / f"call{self._count}.json"
        own = ["--result", str(result), "--spawned-at", repr(spawned),
               "--rep", str(rep)]
        if trace:
            own.append("--trace")
        if import_only:
            own.append("--import-only")
        return [sys.executable, str(LAUNCH), *own, "--", *argv], result

    def command(
        self,
        argv: List[str],
        rep: int = 0,
        trace: bool = False,
        import_only: bool = False,
    ) -> Call:
        """Run one program call to completion and time it."""
        spawned = time.perf_counter()
        full, result = self.launch_argv(
            argv, rep, trace, import_only, spawned
        )
        try:
            proc = subprocess.run(
                full, cwd=self.tmp, env=self.env, capture_output=True,
                text=True, timeout=CALL_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as timeout:
            return Call(argv, -1, time.perf_counter() - spawned,
                        "", f"timed out after {timeout.timeout} s", None)
        wall = time.perf_counter() - spawned
        record = _load(result)
        result.unlink(missing_ok=True)
        return Call(argv, proc.returncode, wall, proc.stdout, proc.stderr,
                    record)

    def start_server(self, table: Path, trace: bool = False) -> "Server":
        return Server(self, table, trace)

    def close(self) -> None:
        for server in self.servers:
            server.stop()
        shutil.rmtree(self.tmp, ignore_errors=True)
        remove_tmp_root()


def remove_tmp_root() -> None:
    """Remove the shared temporary root once no run is using it."""
    try:
        TMP.rmdir()
    except OSError:
        pass


class ServerError(RuntimeError):
    """The server child did not come up or did not answer."""


def _request(port: int, payload: dict) -> dict:
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
        sock.sendall(json.dumps(payload).encode() + b"\n")
        reply = b""
        while not reply.endswith(b"\n"):
            chunk = sock.recv(65536)
            if not chunk:
                raise ServerError("server closed the connection")
            reply += chunk
    return json.loads(reply)


@dataclass
class Server:
    """A ``repro serve --port 0`` child, up until :meth:`stop`."""

    session: Session
    table: Path
    trace: bool
    port: int = 0
    launch_s: float = 0.0
    rc: Optional[int] = None
    record: Optional[dict] = None
    proc: Optional[subprocess.Popen] = field(default=None, repr=False)

    def __post_init__(self):
        spawned = time.perf_counter()
        argv = ["serve", "--table", str(self.table), "--port", "0"]
        full, self._result = self.session.launch_argv(
            argv, 0, self.trace, False, spawned
        )
        self._stderr = open(self._result.with_suffix(".err"), "w+")
        self.proc = subprocess.Popen(
            full, cwd=self.session.tmp, env=self.session.env,
            stdout=subprocess.PIPE, stderr=self._stderr, bufsize=0,
        )
        self.session.servers.append(self)
        self.port = self._read_port(spawned + SERVER_TIMEOUT_S)
        self.stats()
        self.launch_s = time.perf_counter() - spawned

    def _read_port(self, deadline: float) -> int:
        marker = b"REPRO_SERVE_PORT="
        seen = b""
        fd = self.proc.stdout.fileno()
        while True:
            if marker in seen and seen.split(marker, 1)[1].count(b"\n"):
                return int(seen.split(marker, 1)[1].split(b"\n", 1)[0])
            remaining = deadline - time.perf_counter()
            ready, _, _ = select.select([fd], [], [], max(0.0, remaining))
            if not ready:
                raise ServerError("no REPRO_SERVE_PORT line before timeout")
            chunk = os.read(fd, 4096)
            if not chunk:
                raise ServerError(
                    f"server exited before listening: {self.stderr_tail()}"
                )
            seen += chunk

    def stderr_tail(self) -> str:
        self._stderr.seek(0)
        lines = self._stderr.read().strip().splitlines()
        return lines[-1] if lines else "no stderr"

    def stats(self) -> dict:
        """The server's telemetry snapshot, over a fresh connection."""
        return _request(self.port, {"cmd": "stats"})["stats"]

    def cpu_seconds(self) -> float:
        return cpu_seconds(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM, wait, and collect the launcher's result."""
        if self.proc is None or self.rc is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=SERVER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self.rc = self.proc.returncode
        self.record = _load(self._result)
        self._stderr.close()
