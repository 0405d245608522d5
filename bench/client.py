"""Closed-loop JSON-lines load generator for ``repro serve``.

Each connection has at most one request outstanding: it sends the next
request only when the previous reply has arrived, as an operator that
cannot start its phase before its mode grant returns.  All connections
are driven from one thread through a selector, so the generator is a
single process whatever the connection count.  Replies are kept as raw
bytes and parsed after the timed segment.
"""

from __future__ import annotations

import selectors
import socket
import time
from dataclasses import dataclass
from typing import List


@dataclass
class Segment:
    """One timed closed-loop segment."""

    start: float
    end: float
    cpu_s: float
    latencies_ns: List[int]
    replies: List[bytes]

    @property
    def wall(self) -> float:
        return self.end - self.start


class ClosedLoop:
    """``connections`` persistent connections to one server."""

    def __init__(self, port: int, connections: int):
        self.sockets = []
        self.selector = selectors.DefaultSelector()
        for _ in range(connections):
            sock = socket.create_connection(("127.0.0.1", port), timeout=30.0)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.selector.register(sock, selectors.EVENT_READ)
            self.sockets.append(sock)

    def run(self, lines: List[bytes]) -> Segment:
        """Send every line, one outstanding per connection; time them."""
        count = len(lines)
        latencies = [0] * count
        replies: List[bytes] = [b""] * count
        inflight = {}
        buffers = {sock: b"" for sock in self.sockets}
        clock = time.perf_counter_ns
        sent = done = 0
        cpu = time.process_time()
        start = time.perf_counter()
        for sock in self.sockets[:count]:
            inflight[sock] = (sent, clock())
            sock.sendall(lines[sent])
            sent += 1
        while done < count:
            events = self.selector.select(timeout=30.0)
            if not events:
                raise TimeoutError("no reply within 30 s")
            for key, _ in events:
                sock = key.fileobj
                chunk = sock.recv(65536)
                if not chunk:
                    raise ConnectionError("server closed a connection")
                data = buffers[sock] + chunk
                if not data.endswith(b"\n"):
                    buffers[sock] = data
                    continue
                index, sent_at = inflight.pop(sock)
                latencies[index] = clock() - sent_at
                replies[index] = data
                buffers[sock] = b""
                done += 1
                if sent < count:
                    inflight[sock] = (sent, clock())
                    sock.sendall(lines[sent])
                    sent += 1
        end = time.perf_counter()
        return Segment(start, end, time.process_time() - cpu, latencies,
                       replies)

    def close(self) -> None:
        self.selector.close()
        for sock in self.sockets:
            sock.close()
