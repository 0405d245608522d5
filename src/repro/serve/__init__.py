"""repro.serve -- the online accuracy-serving subsystem.

Turns exploration results into a live, concurrent accuracy-mode service:

* :mod:`repro.serve.table` -- the compiled, versioned :class:`ModeTable`
  artifact (operating points + precomputed transition-cost matrix),
* :mod:`repro.serve.policy` -- the :class:`PolicyContext` policy API and
  :func:`register_policy` registry (greedy / hysteresis / lookahead),
* :mod:`repro.serve.learned` -- offline fitted-Q training over
  :mod:`repro.traces` suites and the frozen :class:`LearnedPolicy`,
* :mod:`repro.serve.scheduler` -- the event-driven shared-bias-generator
  scheduler with batching, backpressure and graceful degradation,
* :mod:`repro.serve.server` -- the asyncio front end (in-proc API +
  JSON-lines socket),
* :mod:`repro.serve.telemetry` -- counters and latency/energy histograms,
* :mod:`repro.serve.guard` -- the runtime margin guard (erosion
  detection + safe-mode fallback against :mod:`repro.faults`),
* :mod:`repro.serve.recal` -- the closed-loop canary-probe
  recalibration path (online margin learning + guard re-advance).

See ``docs/serve.md`` for the subsystem overview and invariants, and
``docs/robustness.md`` for the fault model and margin-guard semantics.
"""

from repro.serve.compiled import BatchResult, CompiledTable
from repro.serve.errors import (
    RecalibrationError,
    ServeError,
    error_payload,
)
from repro.serve.guard import MarginGuard
from repro.serve.recal import (
    MarginLearner,
    ProbeResult,
    RecalibrationLoop,
    run_canary_probe,
)
from repro.serve.learned import (
    LearnedPolicy,
    TrainingResult,
    train_on_suite,
    train_policy,
)
from repro.serve.policy import (
    DemandTracker,
    GreedyPolicy,
    HysteresisPolicy,
    LookaheadPolicy,
    POLICIES,
    PolicyContext,
    PolicyParam,
    SelectionPolicy,
    make_policy,
    parse_policy_args,
    policy_params,
    register_policy,
    validate_policy_kwargs,
)
from repro.serve.scheduler import (
    AccuracyViolation,
    GeneratorPool,
    ModeScheduler,
    ServedPhase,
    ServeRequest,
    replay_trace,
)
from repro.serve.server import AccuracyServer
from repro.serve.table import (
    LearnedPolicySpec,
    MODE_TABLE_SCHEMA,
    ModeMargin,
    ModeTable,
    SharedModeTable,
    TransitionCost,
    compile_margins,
    compile_mode_table,
    parse_counters,
)
from repro.serve.telemetry import Histogram, Telemetry

__all__ = [
    "AccuracyServer",
    "AccuracyViolation",
    "BatchResult",
    "CompiledTable",
    "DemandTracker",
    "GeneratorPool",
    "GreedyPolicy",
    "Histogram",
    "HysteresisPolicy",
    "LearnedPolicy",
    "LearnedPolicySpec",
    "LookaheadPolicy",
    "MODE_TABLE_SCHEMA",
    "MarginGuard",
    "MarginLearner",
    "ModeMargin",
    "ModeScheduler",
    "ModeTable",
    "POLICIES",
    "PolicyContext",
    "PolicyParam",
    "ProbeResult",
    "RecalibrationError",
    "RecalibrationLoop",
    "SelectionPolicy",
    "ServeError",
    "ServeRequest",
    "ServedPhase",
    "SharedModeTable",
    "Telemetry",
    "TrainingResult",
    "TransitionCost",
    "compile_margins",
    "compile_mode_table",
    "error_payload",
    "make_policy",
    "parse_counters",
    "parse_policy_args",
    "policy_params",
    "register_policy",
    "replay_trace",
    "run_canary_probe",
    "train_on_suite",
    "train_policy",
    "validate_policy_kwargs",
]
