"""repro.faults -- deterministic fault injection across the stack.

The robustness layer: everything needed to *break* the system on
purpose, reproducibly, and to check that it bends instead:

* :mod:`repro.faults.events` -- seeded, serializable fault schedules
  (silicon events: temperature drift, VDD droop, aging Vth shift,
  bias-generator dropout / stuck-at-NoBB; infrastructure events: worker
  crash, cache corruption, transition timeout);
* :mod:`repro.faults.environment` -- evaluates a schedule into the
  electrical state the serve-side margin guard consumes (slack erosion,
  dropped generators, blocked transitions);
* :mod:`repro.faults.injector` -- does the infra faults to real
  machinery (one-shot worker crash/hang plans, cache corruption);
* :mod:`repro.faults.chaos` -- the harness replaying one seeded
  schedule against a multi-operator serve session, a sharded
  exploration run and a fleet, with post-hoc invariant audits.  It is
  not re-exported here, so the serving path, which imports the
  environment, never loads it.

See ``docs/robustness.md`` for the fault taxonomy and the invariants
each chaos soak enforces.
"""

from repro.faults.environment import (
    AGING_ALPHA,
    DROOP_ALPHA,
    TEMP_SLOWDOWN_PER_C,
    SiliconEnvironment,
)
from repro.faults.events import (
    ALL_KINDS,
    FAULT_SCHEDULE_SCHEMA,
    INFRA_KINDS,
    KIND_AGING_VTH,
    KIND_CACHE_CORRUPT,
    KIND_GEN_DROPOUT,
    KIND_STUCK_NOBB,
    KIND_TEMP_DRIFT,
    KIND_TRANSITION_TIMEOUT,
    KIND_VDD_DROOP,
    KIND_WORKER_CRASH,
    SILICON_KINDS,
    FaultEvent,
    FaultSchedule,
)
from repro.faults.injector import WorkerFaultPlan, corrupt_cache_entries

__all__ = [
    "AGING_ALPHA",
    "ALL_KINDS",
    "DROOP_ALPHA",
    "FAULT_SCHEDULE_SCHEMA",
    "FaultEvent",
    "FaultSchedule",
    "INFRA_KINDS",
    "KIND_AGING_VTH",
    "KIND_CACHE_CORRUPT",
    "KIND_GEN_DROPOUT",
    "KIND_STUCK_NOBB",
    "KIND_TEMP_DRIFT",
    "KIND_TRANSITION_TIMEOUT",
    "KIND_VDD_DROOP",
    "KIND_WORKER_CRASH",
    "SILICON_KINDS",
    "SiliconEnvironment",
    "TEMP_SLOWDOWN_PER_C",
    "WorkerFaultPlan",
    "corrupt_cache_entries",
]
