"""Work-sharded, cached execution of the optimization phase.

The exhaustive exploration (``ExhaustiveExplorer.run``) classifies
bitwidths x VDDs x 2^NMAX back-bias assignments, each bitwidth paying a
case analysis, an activity simulation and a lattice search that sends
the feasible and the maximal infeasible assignments to batched STA.
This package makes that sweep scale without changing a single number:

* :mod:`repro.parallel.shards` splits the (bitwidth, VDD) knob grid into
  independent shards, each over every back-bias assignment;
* :mod:`repro.parallel.engine` executes shards on a process pool (serial
  fallback at one worker) and merges them in canonical knob order;
* :mod:`repro.parallel.cache` persists per-shard results content-addressed
  by a SHA-256 fingerprint of everything that determines them
  (:mod:`repro.parallel.fingerprint`), giving warm-start re-runs and
  checkpoint/resume of interrupted sweeps for free.

Results are bit-identical to the serial explorer by construction (shards
run the same ``evaluate_cells`` code) and by test
(``tests/test_parallel_differential.py``).
"""

from repro.parallel.cache import CacheStats, ResultCache
from repro.parallel.engine import (
    ParallelExplorer,
    ResilienceStats,
    ShardRetryExhausted,
    SweepInterrupted,
    interrupt_event,
    resolve_worker_count,
)
from repro.parallel.fingerprint import (
    canonical_json,
    design_fingerprint,
    shard_key,
)
from repro.parallel.shards import Shard, plan_shards

__all__ = [
    "CacheStats",
    "ParallelExplorer",
    "ResilienceStats",
    "ResultCache",
    "Shard",
    "ShardRetryExhausted",
    "SweepInterrupted",
    "canonical_json",
    "design_fingerprint",
    "interrupt_event",
    "plan_shards",
    "resolve_worker_count",
    "shard_key",
]
