"""The sharded exploration engine.

Execution model: plan shards, satisfy as many as possible from the
persistent cache, run the misses (in-process at one worker, on a
``ProcessPoolExecutor`` otherwise), checkpoint each shard into the cache
the moment it completes, then merge everything in canonical knob order.
Because a completed shard is durable before the next one is awaited, an
interrupted sweep resumes from its last finished shard: re-running the
same call simply turns completed shards into cache hits.

Workers receive the pickled :class:`ImplementedDesign` once (pool
initializer), compile their own timing graph, and are sent only tiny
shard descriptions; per-shard return values are a handful of operating
points.  Determinism: every engine along the path (simulation, batched
STA, power) is seeded/closed-form numpy, so a shard computes the same
bits in any process -- the differential suite holds the engine to that.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import AUTO_WORKERS, ExplorationSettings
from repro.core.exploration import (
    ExhaustiveExplorer,
    ExplorationResult,
    KnobCellResult,
    merge_cell_results,
)
from repro.core.flow import ImplementedDesign
from repro.parallel.cache import CacheStats, ResultCache
from repro.parallel.fingerprint import (
    configs_fingerprint,
    design_fingerprint,
    shard_key,
)
from repro.parallel.shards import Shard, plan_shards
from repro.sta.lattice import all_bb_configs

#: Environment override for auto-detected worker count.
WORKERS_ENV = "REPRO_WORKERS"


def resolve_worker_count(requested: int) -> int:
    """Map a ``settings.workers`` value to an actual worker count.

    ``AUTO_WORKERS`` consults ``$REPRO_WORKERS`` then the CPU count;
    explicit positive values are taken as-is (0 resolves to 1: the engine
    was engaged by the cache knob alone, so run serially).  The parsing
    and clamping live in :func:`repro.core.config.resolve_env_count`,
    shared with the fleet serving tier.
    """
    from repro.core.config import resolve_env_count

    return resolve_env_count(requested, WORKERS_ENV, auto=AUTO_WORKERS)


class SweepInterrupted(RuntimeError):
    """A sweep stopped on request after flushing its completed shards.

    Raised by :class:`ParallelExplorer` when the interrupt event is set
    (the CLI arms it from SIGINT/SIGTERM).  Every shard completed before
    the interrupt is durable in the persistent cache, so re-running the
    same command with ``--resume`` continues from here.
    """

    def __init__(self, completed: int, total: int):
        super().__init__(
            f"sweep interrupted after {completed}/{total} shards"
        )
        self.completed = completed
        self.total = total


class ShardRetryExhausted(RuntimeError):
    """A shard kept failing past the per-shard retry budget."""


#: Process-wide interrupt flag checked between shard completions.  The
#: CLI's signal handlers set it; tests may set and clear it directly.
_INTERRUPT = threading.Event()


def interrupt_event() -> threading.Event:
    """The engine's cooperative-interrupt flag (set = stop gracefully)."""
    return _INTERRUPT


@dataclass
class ResilienceStats:
    """What the engine survived during one sweep."""

    worker_crashes: int = 0
    pool_respawns: int = 0
    shard_retries: int = 0
    shard_timeouts: int = 0

    @property
    def any_faults(self) -> bool:
        return bool(
            self.worker_crashes
            or self.pool_respawns
            or self.shard_retries
            or self.shard_timeouts
        )

    def describe(self) -> str:
        return (
            f"resilience: {self.worker_crashes} worker crashes, "
            f"{self.shard_timeouts} timeouts, {self.pool_respawns} pool "
            f"respawns, {self.shard_retries} shard retries"
        )

    def to_dict(self) -> Dict[str, int]:
        return {
            "worker_crashes": self.worker_crashes,
            "pool_respawns": self.pool_respawns,
            "shard_retries": self.shard_retries,
            "shard_timeouts": self.shard_timeouts,
        }


# -- worker-process side ----------------------------------------------------

#: Per-worker-process state installed by the pool initializer; the
#: explorer is built lazily so workers that never receive a shard don't
#: pay graph compilation.
_WORKER_STATE: Dict[str, object] = {}


def _init_worker(
    design: ImplementedDesign,
    settings: ExplorationSettings,
    configs: np.ndarray,
    fault_plan: Optional[object] = None,
) -> None:
    # Workers must not inherit the CLI's graceful-shutdown handlers:
    # SIGINT is the parent's to coordinate (ignore it here), SIGTERM must
    # actually kill a hung worker when the engine terminates the pool.
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _WORKER_STATE["design"] = design
    _WORKER_STATE["settings"] = settings
    _WORKER_STATE["configs"] = configs
    _WORKER_STATE["fault_plan"] = fault_plan
    _WORKER_STATE.pop("explorer", None)


def _run_shard(shard: Shard) -> List[KnobCellResult]:
    plan = _WORKER_STATE.get("fault_plan")
    if plan is not None:
        plan.maybe_fault(shard.index)
    explorer = _WORKER_STATE.get("explorer")
    if explorer is None:
        explorer = ExhaustiveExplorer(_WORKER_STATE["design"])
        _WORKER_STATE["explorer"] = explorer
    settings: ExplorationSettings = _WORKER_STATE["settings"]
    configs = _WORKER_STATE["configs"]
    return explorer.evaluate_cells(
        shard.bitwidths, shard.vdd_values, settings, configs
    )


# -- orchestrating side -----------------------------------------------------


class ParallelExplorer:
    """Runs the optimization phase sharded, cached and resumable.

    ``on_shard_complete(shard, from_cache)`` fires after each shard's
    result is durable (cached when caching is on) -- the progress hook the
    CLI uses and the seam the fault-injection tests kill a sweep through.
    """

    def __init__(
        self,
        design: ImplementedDesign,
        explorer: Optional[ExhaustiveExplorer] = None,
        on_shard_complete: Optional[Callable[[Shard, bool], None]] = None,
        max_shard_retries: int = 2,
        shard_timeout_s: Optional[float] = None,
        fault_plan: Optional[object] = None,
    ):
        if max_shard_retries < 0:
            raise ValueError("max_shard_retries must be >= 0")
        if shard_timeout_s is not None and shard_timeout_s <= 0.0:
            raise ValueError("shard_timeout_s must be positive")
        self.design = design
        self._explorer = explorer
        self.on_shard_complete = on_shard_complete
        #: How many times one shard may be re-run after a crash/timeout.
        self.max_shard_retries = max_shard_retries
        #: Progress timeout: if no shard completes for this long, the
        #: pool is declared hung, its processes terminated, and the
        #: unfinished shards requeued.  None disables the watchdog.
        self.shard_timeout_s = shard_timeout_s
        #: Optional picklable fault plan shipped to workers (chaos tests).
        self.fault_plan = fault_plan

    def _serial_explorer(self) -> ExhaustiveExplorer:
        if self._explorer is None:
            self._explorer = ExhaustiveExplorer(self.design)
        return self._explorer

    def run(
        self,
        settings: Optional[ExplorationSettings] = None,
        configs: Optional[np.ndarray] = None,
        max_vdds_per_shard: Optional[int] = None,
    ) -> ExplorationResult:
        """Explore the full knob grid; bit-identical to serial.

        Shards are slices of the (bitwidth, VDD) grid, each carrying
        every BB assignment in *configs*.
        """
        if settings is None:
            settings = ExplorationSettings()
        start = time.perf_counter()
        if configs is None:
            configs = all_bb_configs(self.design.num_domains)
        configs = np.asarray(configs, dtype=bool)
        shards = plan_shards(settings, max_vdds_per_shard)

        cache = ResultCache(settings.cache_dir) if settings.cache else None
        stats = CacheStats() if cache else None
        design_digest: Optional[str] = None
        configs_digest: Optional[str] = None
        if cache:
            design_digest = design_fingerprint(self.design)
            configs_digest = configs_fingerprint(configs)

        cells: List[KnobCellResult] = []
        pending: List[Tuple[Shard, Optional[str]]] = []
        for shard in shards:
            key = (
                shard_key(design_digest, settings, configs_digest, shard)
                if cache
                else None
            )
            cached = cache.load(key, stats) if cache else None
            if cached is not None:
                cells.extend(cached)
                if self.on_shard_complete:
                    self.on_shard_complete(shard, True)
            else:
                pending.append((shard, key))

        workers = resolve_worker_count(settings.workers)
        fault_stats = ResilienceStats()
        if pending:
            if workers == 1 or len(pending) == 1:
                self._run_serial(pending, settings, configs, cache, stats, cells)
            else:
                self._run_pool(
                    pending, settings, configs, cache, stats, cells, workers,
                    fault_stats,
                )

        result = merge_cell_results(
            self.design, settings, cells, time.perf_counter() - start
        )
        result.cache_stats = stats
        result.fault_stats = fault_stats
        return result

    def _complete(
        self,
        shard: Shard,
        key: Optional[str],
        shard_cells: List[KnobCellResult],
        cache: Optional[ResultCache],
        stats: Optional[CacheStats],
        cells: List[KnobCellResult],
    ) -> None:
        """Make one shard durable, then visible, then announce it."""
        if cache:
            cache.store(key, shard_cells, stats)
        cells.extend(shard_cells)
        if self.on_shard_complete:
            self.on_shard_complete(shard, False)

    def _run_serial(self, pending, settings, configs, cache, stats, cells):
        explorer = self._serial_explorer()
        total = len(pending)
        for index, (shard, key) in enumerate(pending):
            if _INTERRUPT.is_set():
                raise SweepInterrupted(index, total)
            shard_cells = explorer.evaluate_cells(
                shard.bitwidths, shard.vdd_values, settings, configs
            )
            self._complete(shard, key, shard_cells, cache, stats, cells)

    def _run_pool(
        self, pending, settings, configs, cache, stats, cells, workers,
        fault_stats,
    ):
        """Pool path with crash/hang recovery.

        Each round runs the outstanding shards on a fresh pool; a
        ``BrokenProcessPool`` (worker killed mid-shard) or a progress
        timeout terminates the round, and every shard that did not make
        it into the cache is requeued with its attempt count bumped --
        up to ``max_shard_retries`` per shard.  Work completed before a
        crash is already durable (``_complete`` stores before
        announcing), so recovery never recomputes finished shards.
        """
        total = len(pending)
        completed = 0
        queue = [(shard, key, 0) for shard, key in pending]
        first_round = True
        while queue:
            if not first_round:
                fault_stats.pool_respawns += 1
            first_round = False
            batch, queue = queue, []
            done_now, unfinished = self._drain_batch(
                batch, settings, configs, cache, stats, cells,
                fault_stats, workers, completed, total,
            )
            completed += done_now
            for shard, key, attempt in unfinished:
                if attempt + 1 > self.max_shard_retries:
                    raise ShardRetryExhausted(
                        f"shard {shard.index} failed "
                        f"{attempt + 1} times (budget "
                        f"{self.max_shard_retries} retries)"
                    )
                fault_stats.shard_retries += 1
                queue.append((shard, key, attempt + 1))

    def _drain_batch(
        self, batch, settings, configs, cache, stats, cells,
        fault_stats, workers, done_before, total,
    ):
        """One pool lifetime: returns (completed_count, unfinished_entries)."""
        pool = ProcessPoolExecutor(
            max_workers=min(workers, len(batch)),
            initializer=_init_worker,
            initargs=(self.design, settings, configs, self.fault_plan),
        )
        futures = {
            pool.submit(_run_shard, entry[0]): entry for entry in batch
        }
        remaining = set(futures)
        processed = set()
        done_count = 0
        broken = False
        timed_out = False
        try:
            while remaining:
                if _INTERRUPT.is_set():
                    raise SweepInterrupted(done_before + done_count, total)
                done, remaining = wait(
                    remaining,
                    timeout=self.shard_timeout_s,
                    return_when=FIRST_COMPLETED,
                )
                if not done and self.shard_timeout_s is not None:
                    timed_out = True
                    fault_stats.shard_timeouts += 1
                    break
                for future in done:
                    if _INTERRUPT.is_set():  # one wait() may return several
                        raise SweepInterrupted(done_before + done_count, total)
                    shard, key, _attempt = futures[future]
                    shard_cells = future.result()
                    self._complete(shard, key, shard_cells, cache, stats, cells)
                    processed.add(future)
                    done_count += 1
        except BrokenProcessPool:
            broken = True
            fault_stats.worker_crashes += 1
        finally:
            if timed_out or broken:
                # The executor can't join hung/dead workers; terminate
                # them so shutdown doesn't block, then requeue.
                for proc in (getattr(pool, "_processes", None) or {}).values():
                    proc.terminate()
                pool.shutdown(wait=False)
            else:
                pool.shutdown(wait=True, cancel_futures=True)
        unfinished = [
            entry for future, entry in futures.items()
            if future not in processed
        ]
        return done_count, unfinished
