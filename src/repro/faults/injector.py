"""Infrastructure fault injection: crashing workers, corrupting caches.

Silicon events are *evaluated* (pure arithmetic over a schedule); infra
events have to be *done to* real machinery.  This module owns the doing:

* :class:`WorkerFaultPlan` -- a picklable plan shipped to exploration
  worker processes through the pool initializer.  A worker that picks up
  a shard named in the plan hard-exits (``os._exit``) or hangs, once:
  each fault claims a marker file with ``O_CREAT | O_EXCL`` so the
  retried shard succeeds on the next attempt exactly like a real
  transient crash.  The marker directory doubles as the fault log --
  after the run, its entries are the faults that actually fired.
* :func:`corrupt_cache_entries` -- truncates persistent shard-cache
  entries in place, exercising the cache's detect-discard-recompute
  path (`repro.parallel.cache` validates a checksum on every load).

Both are driven by the chaos harness and the fault-injection test
suites; nothing here runs unless explicitly armed.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple


@dataclass(frozen=True)
class WorkerFaultPlan:
    """Deterministic one-shot faults for exploration worker processes.

    ``crash_shards`` name shard indices whose worker dies mid-execution
    (exit code 3, after the shard's work started but before any result
    is returned -- the pool surfaces it as ``BrokenProcessPool``).
    ``hang_shards`` sleep for ``hang_s`` instead, tripping the engine's
    per-shard timeout.  Every fault fires exactly once per plan: the
    first worker to reach the shard claims its marker file atomically.
    """

    marker_dir: str
    crash_shards: Tuple[int, ...] = ()
    hang_shards: Tuple[int, ...] = ()
    hang_s: float = 30.0

    def __post_init__(self):
        overlap = set(self.crash_shards) & set(self.hang_shards)
        if overlap:
            raise ValueError(
                f"shards {sorted(overlap)} are both crash and hang targets"
            )

    def _claim(self, label: str, shard_index: int) -> bool:
        """Atomically claim one fault; True exactly once per fault."""
        os.makedirs(self.marker_dir, exist_ok=True)
        path = os.path.join(self.marker_dir, f"{label}-{shard_index}")
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        os.close(fd)
        return True

    def maybe_fault(self, shard_index: int) -> None:
        """Called by the worker at the top of a shard; may never return."""
        if shard_index in self.crash_shards and self._claim(
            "crash", shard_index
        ):
            os._exit(3)
        if shard_index in self.hang_shards and self._claim(
            "hang", shard_index
        ):
            time.sleep(self.hang_s)

    def fired(self) -> List[str]:
        """Markers of the faults that actually executed (the fault log)."""
        root = Path(self.marker_dir)
        if not root.is_dir():
            return []
        return sorted(p.name for p in root.iterdir())


def corrupt_cache_entries(cache_dir: os.PathLike, count: int = 1) -> int:
    """Truncate up to *count* shard-cache entries in place.

    Entries are chosen deterministically (lexicographic order).  Returns
    how many files were actually damaged.  The cache detects the broken
    checksum on the next load, discards the entry and recomputes -- this
    function exists to prove that, not to be subtle.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    root = Path(cache_dir)
    if not root.is_dir():
        return 0
    damaged = 0
    for path in sorted(root.glob("*.json")):
        if damaged >= count:
            break
        size = path.stat().st_size
        with open(path, "r+b") as stream:
            stream.truncate(max(1, size // 2))
        damaged += 1
    return damaged
