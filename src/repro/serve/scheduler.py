"""Event-driven shared-bias scheduler for concurrent operator instances.

The paper's Section III hardware sketch shares *two* charge pumps (plus
power switches) across all Vth domains -- and an SoC shares them across
operators.  Mode transitions are therefore a scheduling problem: every
well/rail slew occupies a bias generator for its settling time, and
concurrent operators contend for the finite pool.

:class:`ModeScheduler` models that in deterministic virtual time:

* each operator instance carries its own virtual clock (advanced by the
  compute duration of every phase it serves);
* a transition acquires the earliest-free generator; starting later than
  requested is accounted as queue wait;
* transitions *pending* on the pool that target the same electrical
  signature (VDD, per-domain bias) are **batched**: the power switches
  gang extra wells onto an already-scheduled slew, paying energy but no
  extra generator time;
* when the number of not-yet-started transitions reaches
  ``max_queue_depth`` the scheduler **degrades gracefully**: the request
  is served in the static maximum-accuracy mode (always sufficient, and
  the hardware's power-on default rail, so it bypasses the pool) instead
  of erroring or violating accuracy;
* the accuracy invariant is enforced centrally -- a policy bug surfaces
  as :class:`AccuracyViolation`, never as a silently wrong answer.

:func:`replay_trace` runs an offline workload -- any sequence of
``(required_bits, cycles)`` pairs, such as the ``(N, 2)`` array
:func:`repro.traces.load_trace_file` returns -- through the same
machinery, as one frame of the batched kernel.  It is one operator on a
pool that is idle whenever it asks, so no slew ever queues, batch-joins
or degrades, and the frame's walk is the idle-pool tail: array passes
and one sequential clock fold, with no ``GeneratorPool.acquire`` call.
With the greedy policy it reproduces the closed-form greedy accounting
of ``tests/oracles/serve.py`` bit-for-bit, which
``tests/test_serve_scheduler.py`` locks in.

Resilience (all opt-in, the default path is bit-identical to before):

* an attached :class:`~repro.serve.guard.MarginGuard` vets every policy
  pick against runtime margin erosion and substitutes a safe mode
  (``margin_fallback`` on the served phase, ``margin_fallbacks`` in
  telemetry);
* bias transitions that the environment blocks (generator timeout
  windows) are retried with bounded exponential backoff in virtual
  time; an exhausted retry budget degrades to the static mode instead
  of failing the request;
* generator dropouts reported by the guard mark pool members
  unavailable and **rebalance** their not-yet-started slews onto the
  survivors; with every generator down, requests degrade to the static
  mode (power-on rail, no pool needed) until one returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.guard import MarginGuard
    from repro.serve.recal import RecalibrationLoop

import numpy as np

from repro.core.config import OperatingPoint
from repro.core.runtime import RuntimeReport, WorkloadPhase
from repro.serve.compiled import BatchResult, CompiledTable
from repro.serve.learned import LearnedPolicy, bucketize
from repro.serve.policy import (
    DemandTracker,
    PolicyContext,
    SelectionPolicy,
    Upcoming,
    make_policy,
)
from repro.serve.table import ModeTable
from repro.serve.telemetry import Telemetry, sequential_sum


class AccuracyViolation(RuntimeError):
    """A policy tried to serve fewer bits than the request demands."""


@dataclass(frozen=True)
class ServeRequest:
    """One phase of work demanded by an application."""

    operator: str
    required_bits: int
    cycles: int

    def __post_init__(self):
        if self.required_bits < 1:
            raise ValueError("required_bits must be >= 1")
        if self.cycles < 0:
            raise ValueError("cycles must be >= 0")


def chaos_requests(table, num_operators: int, count: int, seed: int):
    """Deterministic ``(operator, bits, cycles)`` request mix over
    *num_operators* instances: the workload of ``serve --soak``,
    ``fleet-serve`` and the chaos soaks."""
    rng = np.random.default_rng(seed)
    bitwidths = table.bitwidths
    for index in range(count):
        yield (
            f"op{index % num_operators}",
            int(rng.choice(bitwidths)),
            int(rng.integers(1_000, 20_000)),
        )


@dataclass(frozen=True)
class ServedPhase:
    """The scheduler's answer: which mode ran and what it cost."""

    operator: str
    required_bits: int
    mode: OperatingPoint
    compute_energy_j: float
    transition_energy_j: float
    settle_ns: float
    queue_wait_ns: float
    switched: bool
    batched: bool
    degraded: bool
    #: The margin guard overrode the policy's pick (erosion / stuck-at).
    margin_fallback: bool = False
    #: Blocked bias-transition attempts retried before this phase served.
    transition_retries: int = 0
    #: Operator virtual time at which the mode decision was made --
    #: lets an external auditor re-check the guard's verdict.
    decided_at_ns: float = 0.0

    @property
    def served_bits(self) -> int:
        return self.mode.active_bits


@dataclass
class _Grant:
    """A scheduled slew on one generator (or a batch join of one)."""

    signature: Tuple
    start_ns: float
    end_ns: float
    generator: int = -1


class GeneratorPool:
    """Finite pool of bias generators with slew batching.

    Virtual-time bookkeeping only: ``free_at_ns[i]`` is when generator
    *i* finishes its last scheduled slew.  Completed grants are pruned
    lazily against the requesting operator's clock.  Generators may be
    marked unavailable (dropout faults): they take no new slews, and
    :meth:`apply_dropouts` rebalances their not-yet-started grants onto
    the surviving generators.
    """

    def __init__(self, size: int):
        if size < 1:
            raise ValueError("need at least one bias generator")
        self.size = size
        self.free_at_ns = [0.0] * size
        self.available = [True] * size
        self.pending: List[_Grant] = []
        self.max_depth_seen = 0
        self.dropouts = 0
        self.rebalanced_grants = 0

    def queue_depth(self, now_ns: float) -> int:
        """Number of scheduled slews that have not yet started."""
        self._prune(now_ns)
        return self.occupancy(now_ns)

    def occupancy(self, now_ns: float) -> int:
        """:meth:`queue_depth` without the pruning side effect.

        Operators run on independent virtual clocks, and pruning with a
        fast operator's clock would discard grants a slower operator
        could still batch-join.  Decision-time probes therefore must not
        mutate the pool.  (Expired grants are never counted either way:
        ``start_ns < end_ns <= now_ns``.)
        """
        return sum(1 for grant in self.pending if grant.start_ns > now_ns)

    @property
    def num_available(self) -> int:
        return sum(self.available)

    def idle_at(self, now_ns: float) -> bool:
        """Every generator is up and done with its last slew by *now_ns*.

        Then a slew requested at *now_ns* starts at once, and every
        pending grant has ended (none ends after its generator's
        ``free_at_ns``), so nothing is queued or can be batch-joined.
        """
        return all(self.available) and max(self.free_at_ns) <= now_ns

    def _prune(self, now_ns: float) -> None:
        self.pending = [g for g in self.pending if g.end_ns > now_ns]

    def _earliest_available(self) -> Optional[int]:
        candidates = [i for i in range(self.size) if self.available[i]]
        if not candidates:
            return None
        return min(candidates, key=lambda i: self.free_at_ns[i])

    def apply_dropouts(
        self, dropped: FrozenSet[int], now_ns: float
    ) -> None:
        """Reconcile availability with the fault layer's dropout set.

        Newly dropped generators are counted and their queued (not yet
        started) slews move to the earliest-free survivor, preserving
        each slew's duration.  In-flight slews complete on their
        original generator (the pump output is held through the window).
        Restored generators simply become eligible again; their
        bookkeeping stays monotone.
        """
        dropped = frozenset(i for i in dropped if 0 <= i < self.size)
        newly_dropped = [
            i for i in dropped if self.available[i]
        ]
        for index in newly_dropped:
            self.available[index] = False
            self.dropouts += 1
        for index in range(self.size):
            if index not in dropped and not self.available[index]:
                self.available[index] = True
        if not newly_dropped or self.num_available == 0:
            return
        self._prune(now_ns)
        for grant in self.pending:
            if grant.generator in newly_dropped and grant.start_ns > now_ns:
                duration = grant.end_ns - grant.start_ns
                target = self._earliest_available()
                start = max(now_ns, self.free_at_ns[target])
                grant.generator = target
                grant.start_ns = start
                grant.end_ns = start + duration
                self.free_at_ns[target] = grant.end_ns
                self.rebalanced_grants += 1

    def acquire(
        self, now_ns: float, settle_ns: float, signature: Tuple
    ) -> Optional[Tuple[float, float, bool]]:
        """Schedule a slew at *now_ns*; returns (start, end, batched).

        A pending, not-yet-started grant with the same signature absorbs
        the request (power switches gang the extra wells onto the same
        slew) without consuming more generator time.  Returns ``None``
        when every generator is dropped out -- the caller must degrade.
        """
        self._prune(now_ns)
        for grant in self.pending:
            if grant.signature == signature and grant.start_ns >= now_ns:
                return (grant.start_ns, grant.end_ns, True)
        generator = self._earliest_available()
        if generator is None:
            return None
        start = max(now_ns, self.free_at_ns[generator])
        end = start + settle_ns
        self.free_at_ns[generator] = end
        self.pending.append(_Grant(signature, start, end, generator))
        self.max_depth_seen = max(self.max_depth_seen, self.queue_depth(now_ns))
        return (start, end, False)


@dataclass
class _OperatorState:
    table: ModeTable
    policy: SelectionPolicy
    clock_ns: float = 0.0
    current_bits: Optional[int] = None
    phases: int = 0
    cycles: int = 0
    compute_energy_j: float = 0.0
    transition_energy_j: float = 0.0
    transition_time_ns: float = 0.0
    switches: int = 0
    static_energy_j: float = 0.0
    #: Recent-demand EWMA features of this operator's request stream,
    #: folded identically by the scalar path and the batch planner.
    tracker: DemandTracker = field(default_factory=DemandTracker)


class _ScalarFrameFallback(Exception):
    """Internal: a frame is not provably batchable; use the scalar loop."""


@dataclass
class _OperatorPlan:
    """One operator's planned slice of a batched frame.

    ``positions`` are the operator's indices into the global frame;
    everything else is own-indexed.  ``event_own`` / ``event_row`` list
    the positions whose transition must talk to the generator pool, and
    the state row each leaves, in order; the walk consumes them via
    ``complex_ptr`` and replans the suffix after a degradation.
    """

    name: str
    state: _OperatorState
    compiled: CompiledTable
    positions: np.ndarray
    bits: np.ndarray
    cycles: np.ndarray
    terms: np.ndarray
    decisions: np.ndarray
    switched: np.ndarray
    margin: np.ndarray
    guard_active: bool
    #: Which planner filled (and replans) this operator's decisions:
    #: ``memoryless`` / ``lookahead`` / ``learned``.
    kind: str = "memoryless"
    window: int = 0
    dtable: Optional[np.ndarray] = None
    dtable_list: Optional[List[List[int]]] = None
    bits_list: List[int] = field(default_factory=list)
    cover_pos: Optional[np.ndarray] = None
    #: Lookahead plans only: ``(nontrivial, exact, inherited)`` over the
    #: positions, from :meth:`ModeScheduler._lookahead_inherited`.
    inherited: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
    #: The operator's demand tracker after the whole frame folds in
    #: (learned plans only; committed during accounting).
    final_tracker: Optional[DemandTracker] = None
    #: Per-position (level, volatility) buckets (learned plans only).
    #: Pure function of the request stream, so a degradation replan
    #: re-derives decisions from any forced mode without re-folding.
    learned_buckets: List[Tuple[int, int]] = field(default_factory=list)
    event_own: List[int] = field(default_factory=list)
    event_row: List[int] = field(default_factory=list)
    complex_ptr: int = 0
    fold_ptr: int = 0
    clock: float = 0.0
    # Python mirrors for the walk's per-element fold (list indexing is
    # several times cheaper than numpy scalar indexing there).
    terms_list: List[float] = field(default_factory=list)
    positions_list: List[int] = field(default_factory=list)


class ModeScheduler:
    """Serves accuracy-mode requests for many operators over one pool."""

    def __init__(
        self,
        table: ModeTable,
        num_generators: int = 2,
        policy: str = "greedy",
        max_queue_depth: int = 8,
        policy_kwargs: Optional[Dict] = None,
        telemetry: Optional[Telemetry] = None,
        guard: Optional["MarginGuard"] = None,
        max_transition_retries: int = 3,
        retry_backoff_ns: float = 50.0,
        recal: Optional["RecalibrationLoop"] = None,
    ):
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if recal is not None:
            if guard is None:
                raise ValueError(
                    "a recalibration loop requires a margin guard"
                )
            if recal.guard is not guard:
                raise ValueError(
                    "recalibration loop is bound to a different guard"
                )
        if max_transition_retries < 0:
            raise ValueError("max_transition_retries must be >= 0")
        if retry_backoff_ns <= 0.0:
            raise ValueError("retry_backoff_ns must be positive")
        self.default_table = table
        self.policy_name = policy
        self.policy_kwargs = dict(policy_kwargs or {})
        self.pool = GeneratorPool(num_generators)
        self.max_queue_depth = max_queue_depth
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.guard = guard
        self.recal = recal
        self.max_transition_retries = max_transition_retries
        self.retry_backoff_ns = retry_backoff_ns
        self._operators: Dict[str, _OperatorState] = {}
        # Per-scheduler array lowerings, keyed by table identity.  The
        # CompiledTable holds a reference to its ModeTable, so the id is
        # pinned for the cache entry's lifetime.  Never shared across
        # schedulers: the availability bitmask is guard-specific state.
        self._compiled: Dict[int, CompiledTable] = {}
        # (compiled id, guard id) -> margin epoch the availability mask
        # was last refreshed at; an epoch bump forces a re-refresh.
        self._guard_refreshed: Dict[Tuple[int, int], int] = {}

    # -- operator registry ---------------------------------------------------

    def register(
        self,
        operator: str,
        table: Optional[ModeTable] = None,
        policy: Optional[str] = None,
        **policy_kwargs,
    ) -> None:
        """Declare an operator instance (optional: submit auto-registers)."""
        if operator in self._operators:
            raise ValueError(f"operator {operator!r} already registered")
        table = table if table is not None else self.default_table
        name = policy if policy is not None else self.policy_name
        kwargs = policy_kwargs if policy_kwargs else self.policy_kwargs
        self._operators[operator] = _OperatorState(
            table=table, policy=make_policy(name, table, **kwargs)
        )

    def _state(self, operator: str) -> _OperatorState:
        if operator not in self._operators:
            self.register(operator)
        return self._operators[operator]

    @property
    def operators(self) -> List[str]:
        return list(self._operators)

    def latest_clock_ns(self) -> float:
        """Latest operator virtual clock (0.0 before any request)."""
        return max(
            (state.clock_ns for state in self._operators.values()),
            default=0.0,
        )

    # -- serving -------------------------------------------------------------

    def submit(
        self, request: ServeRequest, upcoming: Sequence[Upcoming] = ()
    ) -> ServedPhase:
        """Serve one request; deterministic in submission order."""
        state = self._state(request.operator)
        table = state.table
        if self.recal is not None:
            # Probe cadence runs on the deciding operator's virtual
            # clock, *before* the decision, so a committed margin epoch
            # already governs this request's safety check.
            self.recal.maybe_recalibrate(state.clock_ns, self.telemetry)
        decided_at_ns = state.clock_ns
        level, volatility = state.tracker.features_for(request.required_bits)
        bits_key = state.policy.decide(
            PolicyContext(
                required_bits=request.required_bits,
                current_bits=state.current_bits,
                upcoming=tuple(upcoming),
                demand_level=level,
                demand_volatility=volatility,
                pool_occupancy=self.pool.occupancy(decided_at_ns),
                virtual_time_ns=decided_at_ns,
            )
        )
        margin_fallback = False
        if self.guard is not None:
            bits_key, margin_fallback = self.guard.guarded_key(
                request.required_bits, bits_key, decided_at_ns
            )
            if margin_fallback:
                self.telemetry.bump("margin_fallbacks")
        mode = table.modes[bits_key]
        if mode.active_bits < request.required_bits:
            self.telemetry.bump("accuracy_violations")
            raise AccuracyViolation(
                f"policy {state.policy.name!r} chose a {mode.active_bits}-bit "
                f"mode for a {request.required_bits}-bit request"
            )

        switched = bits_key != state.current_bits
        cost = table.transition_between(state.current_bits, bits_key)
        degraded = False
        batched = False
        queue_wait_ns = 0.0
        settle_ns = 0.0
        retries = 0

        if switched and not cost.is_free:
            now = state.clock_ns
            exhausted = False
            if self.guard is not None:
                self.pool.apply_dropouts(
                    self.guard.dropped_generators(now), now
                )
                now, retries, exhausted = self._await_transition_window(now)
                if retries:
                    self.telemetry.bump("transition_retries", retries)
            if exhausted or self.pool.num_available == 0:
                # Transition retry budget exhausted or every generator
                # dropped out: serve the static maximum-accuracy mode.
                # Its rail is the hardware's always-on power-on default,
                # so the switch bypasses the generator pool entirely.
                self.telemetry.bump("transition_failures")
                degraded = True
                bits_key = table.max_bits
                switched = bits_key != state.current_bits
                mode = table.modes[bits_key]
                cost = table.transition_between(state.current_bits, bits_key)
                settle_ns = cost.settle_ns
            elif self.pool.queue_depth(now) >= self.max_queue_depth:
                # Saturated: fall back to the static maximum-accuracy
                # mode.  Its rail is the hardware's always-on power-on
                # default, so the switch bypasses the generator pool.
                degraded = True
                bits_key = table.max_bits
                switched = bits_key != state.current_bits
                mode = table.modes[bits_key]
                cost = table.transition_between(state.current_bits, bits_key)
                settle_ns = cost.settle_ns
            else:
                signature = (mode.vdd, mode.bb_config)
                grant = self.pool.acquire(now, cost.settle_ns, signature)
                if grant is None:  # pragma: no cover - num_available raced
                    grant = (now + cost.settle_ns, now + cost.settle_ns, False)
                start, end, batched = grant
                queue_wait_ns = start - state.clock_ns
                settle_ns = end - start
                state.clock_ns = end

        served = ServedPhase(
            operator=request.operator,
            required_bits=request.required_bits,
            mode=mode,
            compute_energy_j=self._compute_energy_j(table, mode, request.cycles),
            transition_energy_j=cost.energy_j if switched else 0.0,
            settle_ns=settle_ns,
            queue_wait_ns=queue_wait_ns,
            switched=switched,
            batched=batched,
            degraded=degraded,
            margin_fallback=margin_fallback,
            transition_retries=retries,
            decided_at_ns=decided_at_ns,
        )

        # Account the phase against the operator's running report.
        state.current_bits = bits_key
        state.phases += 1
        state.cycles += request.cycles
        state.compute_energy_j += served.compute_energy_j
        state.transition_energy_j += served.transition_energy_j
        state.transition_time_ns += settle_ns
        if switched:
            state.switches += 1
        state.static_energy_j += self._compute_energy_j(
            table, table.static_mode, request.cycles
        )
        state.clock_ns += request.cycles / table.fclk_ghz
        state.tracker.update(request.required_bits)
        self.telemetry.record_phase(served)
        return served

    def submit_degraded(self, request: ServeRequest) -> ServedPhase:
        """Serve in the static max-accuracy mode, bypassing the pool.

        The front end's overload path: when its bounded request queue is
        full it must still answer -- correctly, if not cheaply.
        """
        state = self._state(request.operator)
        table = state.table
        bits_key = table.max_bits
        mode = table.modes[bits_key]
        switched = bits_key != state.current_bits
        cost = table.transition_between(state.current_bits, bits_key)
        served = ServedPhase(
            operator=request.operator,
            required_bits=request.required_bits,
            mode=mode,
            compute_energy_j=self._compute_energy_j(table, mode, request.cycles),
            transition_energy_j=cost.energy_j if switched else 0.0,
            settle_ns=cost.settle_ns if switched else 0.0,
            queue_wait_ns=0.0,
            switched=switched,
            batched=False,
            degraded=True,
            decided_at_ns=state.clock_ns,
        )
        state.current_bits = bits_key
        state.phases += 1
        state.cycles += request.cycles
        state.compute_energy_j += served.compute_energy_j
        state.transition_energy_j += served.transition_energy_j
        state.transition_time_ns += served.settle_ns
        if switched:
            state.switches += 1
        state.static_energy_j += self._compute_energy_j(
            table, mode, request.cycles
        )
        state.clock_ns += request.cycles / table.fclk_ghz
        state.tracker.update(request.required_bits)
        self.telemetry.record_phase(served)
        return served

    def _await_transition_window(
        self, now_ns: float
    ) -> Tuple[float, int, bool]:
        """Back off (in virtual time) while bias transitions are blocked.

        Returns ``(new_now, retries, exhausted)``: the operator's clock
        after waiting, how many retry waits were spent, and whether the
        bounded budget ran out with transitions still blocked.
        """
        if self.guard is None or not self.guard.transition_blocked(now_ns):
            return now_ns, 0, False
        backoff = self.retry_backoff_ns
        retries = 0
        while retries < self.max_transition_retries:
            now_ns += backoff
            backoff *= 2.0
            retries += 1
            if not self.guard.transition_blocked(now_ns):
                return now_ns, retries, False
        return now_ns, retries, True

    @staticmethod
    def _compute_energy_j(
        table: ModeTable, mode: OperatingPoint, cycles: int
    ) -> float:
        duration_s = cycles / (table.fclk_ghz * 1e9)
        return mode.total_power_w * duration_s

    # -- batched serving -----------------------------------------------------

    def compiled_for(self, table: ModeTable) -> CompiledTable:
        """This scheduler's array lowering of *table* (built once)."""
        compiled = self._compiled.get(id(table))
        if compiled is None:
            compiled = CompiledTable(table)
            self._compiled[id(table)] = compiled
        return compiled

    def submit_batch(
        self,
        requests: Sequence[ServeRequest],
        upcoming_cap: Optional[int] = None,
    ) -> List[ServedPhase]:
        """Serve a frame of requests; bit-identical to a submit() loop.

        Semantics are exactly ``[self.submit(r, upcoming=w) for r in
        requests]`` where each lookahead window ``w`` is derived from
        the frame itself: the next requests of the same operator, up to
        the policy's window (optionally clipped by *upcoming_cap*).  The
        batched kernel resolves decisions, transition costs, energy
        accounting and settle windows in array passes; frames it cannot
        prove equivalent (time-varying guard environment, custom
        policies, partially dropped-out pools, invalid requests) run
        that scalar loop internally instead -- including raising the
        same exception at the same request.
        """
        requests = list(requests)
        count = len(requests)
        if count == 0:
            return []
        operators = [r.operator for r in requests]
        bits = np.fromiter(
            (r.required_bits for r in requests), np.int64, count
        )
        cycles = np.fromiter((r.cycles for r in requests), np.int64, count)
        phases, _ = self._serve_frame(
            operators,
            bits,
            cycles,
            want_phases=True,
            want_arrays=False,
            upcoming_cap=upcoming_cap,
        )
        return phases

    def submit_batch_arrays(
        self,
        operators,
        required_bits,
        cycles,
        upcoming_cap: Optional[int] = None,
    ) -> BatchResult:
        """Array-in / array-out frame serving (no ServedPhase objects).

        *operators* is one name (the whole frame) or a sequence of
        names; *required_bits* / *cycles* are equal-length 1-D int
        arrays.  Same semantics as :meth:`submit_batch`, but the hot
        consumers (fleet reply frames, trace replay) read the flat
        :class:`BatchResult` arrays directly.
        """
        bits = np.asarray(required_bits, dtype=np.int64)
        cyc = np.asarray(cycles, dtype=np.int64)
        if bits.ndim != 1 or bits.shape != cyc.shape:
            raise ValueError(
                "required_bits and cycles must be 1-D and equal length"
            )
        if not isinstance(operators, str):
            operators = list(operators)
            if len(operators) != len(bits):
                raise ValueError(
                    "operators must match required_bits in length"
                )
        _, result = self._serve_frame(
            operators,
            bits,
            cyc,
            want_phases=False,
            want_arrays=True,
            upcoming_cap=upcoming_cap,
        )
        return result

    def _serve_frame(
        self,
        operators,
        bits: np.ndarray,
        cycles: np.ndarray,
        *,
        want_phases: bool,
        want_arrays: bool,
        upcoming_cap: Optional[int],
    ) -> Tuple[Optional[List[ServedPhase]], Optional[BatchResult]]:
        count = len(bits)
        if count == 0:
            return (
                [] if want_phases else None,
                self._phases_to_arrays([]) if want_arrays else None,
            )
        try:
            plans = self._plan_frame(operators, bits, cycles, upcoming_cap)
        except _ScalarFrameFallback:
            return self._serve_frame_scalar(
                operators, bits, cycles, want_phases, want_arrays,
                upcoming_cap,
            )

        # decided_at is a python list: the clock fold writes it element
        # by element, and list stores are much cheaper than numpy scalar
        # stores.  It is skipped entirely when no output wants it.
        need_decided = want_phases or want_arrays
        decided_at: List[float] = [0.0] * count if need_decided else []
        queue_wait = np.zeros(count)
        settle = np.zeros(count)
        trans_e = np.zeros(count)
        compute_e = np.zeros(count)
        batched = np.zeros(count, dtype=bool)
        degraded = np.zeros(count, dtype=bool)
        switched_g = np.zeros(count, dtype=bool)
        margin_g = np.zeros(count, dtype=bool)
        served_bits = np.zeros(count, dtype=np.int64)

        self._walk_frame(
            plans, decided_at, need_decided, queue_wait, settle, trans_e,
            batched, degraded,
        )

        # Per-operator accounting: every float accumulator is folded
        # left to right, as the scalar += sequence folds it.
        op_counts: Dict[str, int] = {}
        for plan in plans:
            comp = plan.compiled
            pos = plan.positions
            dur = plan.cycles / comp.denom_hz
            ce = comp.power_w[plan.decisions] * dur
            se = float(comp.power_w[comp.static_index]) * dur
            compute_e[pos] = ce
            switched_g[pos] = plan.switched
            margin_g[pos] = plan.margin
            served_bits[pos] = comp.active_bits[plan.decisions]
            state = plan.state
            op_counts[plan.name] = len(plan.bits)
            state.phases += len(plan.bits)
            # Python ints, as the scalar path sums them: int64 can wrap.
            state.cycles += sum(plan.cycles.tolist())
            state.compute_energy_j = sequential_sum(
                state.compute_energy_j, ce
            )
            state.transition_energy_j = sequential_sum(
                state.transition_energy_j, trans_e[pos]
            )
            state.transition_time_ns = sequential_sum(
                state.transition_time_ns, settle[pos]
            )
            state.switches += int(np.count_nonzero(plan.switched))
            state.static_energy_j = sequential_sum(state.static_energy_j, se)
            state.current_bits = comp.keys[int(plan.decisions[-1])]
            state.clock_ns = plan.clock
            if plan.final_tracker is not None:
                state.tracker = plan.final_tracker

        fallbacks = int(np.count_nonzero(margin_g))
        if fallbacks:
            self.telemetry.bump("margin_fallbacks", fallbacks)
        self.telemetry.record_batch(
            op_counts,
            int(np.count_nonzero(switched_g)),
            int(np.count_nonzero(degraded)),
            int(np.count_nonzero(batched)),
            queue_wait + settle,
            settle[settle > 0.0],
            (compute_e + trans_e) * 1e12,
        )

        phases_out: Optional[List[ServedPhase]] = None
        if want_phases:
            phases_out = [None] * count  # type: ignore[list-item]
            qw_l = queue_wait.tolist()
            st_l = settle.tolist()
            te_l = trans_e.tolist()
            da_l = decided_at
            bat_l = batched.tolist()
            deg_l = degraded.tolist()
            for plan in plans:
                comp = plan.compiled
                name = plan.name
                modes = comp.modes
                pos_l = plan.positions.tolist()
                dec_l = plan.decisions.tolist()
                rb_l = plan.bits.tolist()
                sw_l = plan.switched.tolist()
                mg_l = plan.margin.tolist()
                ce_l = compute_e[plan.positions].tolist()
                for k, g in enumerate(pos_l):
                    phases_out[g] = ServedPhase(
                        operator=name,
                        required_bits=rb_l[k],
                        mode=modes[dec_l[k]],
                        compute_energy_j=ce_l[k],
                        transition_energy_j=te_l[g],
                        settle_ns=st_l[g],
                        queue_wait_ns=qw_l[g],
                        switched=sw_l[k],
                        batched=bat_l[g],
                        degraded=deg_l[g],
                        margin_fallback=mg_l[k],
                        transition_retries=0,
                        decided_at_ns=da_l[g],
                    )
        result: Optional[BatchResult] = None
        if want_arrays:
            result = BatchResult(
                served_bits=served_bits,
                switched=switched_g,
                batched=batched,
                degraded=degraded,
                margin_fallback=margin_g,
                transition_retries=np.zeros(count, dtype=np.int64),
                compute_energy_j=compute_e,
                transition_energy_j=trans_e,
                settle_ns=settle,
                queue_wait_ns=queue_wait,
                decided_at_ns=np.asarray(decided_at, dtype=np.float64),
            )
        return phases_out, result

    def _plan_frame(
        self,
        operators,
        bits: np.ndarray,
        cycles: np.ndarray,
        upcoming_cap: Optional[int],
    ) -> List[_OperatorPlan]:
        """Eligibility gate + pure planning pass.  Mutates nothing.

        Raises :class:`_ScalarFrameFallback` the moment the frame stops
        being provably equivalent to the scalar loop.
        """
        if self.recal is not None:
            # A local probe loop fires mid-frame on operator clocks; the
            # batch kernel cannot interleave probes, so frames fall back
            # to the scalar loop.  A guard with a *passively adopted*
            # learner (fleet peer) stays batch-eligible -- its margins
            # only change between frames, tracked by margin_epoch below.
            raise _ScalarFrameFallback
        guard = self.guard
        if self.pool.num_available != self.pool.size:
            raise _ScalarFrameFallback
        if guard is not None and not guard.is_time_invariant:
            raise _ScalarFrameFallback

        if isinstance(operators, str):
            groups: List[Tuple[str, Optional[List[int]]]] = [
                (operators, None)
            ]
        else:
            by_name: Dict[str, List[int]] = {}
            for index, name in enumerate(operators):
                by_name.setdefault(name, []).append(index)
            groups = list(by_name.items())

        plans: List[_OperatorPlan] = []
        for name, idx in groups:
            state = self._state(name)
            policy = state.policy
            if not CompiledTable.is_known_policy(policy):
                raise _ScalarFrameFallback
            if guard is not None and state.table is not guard.table:
                # The guard vets modes against *its* table; equivalence
                # of the compiled mask needs them to be the same object.
                raise _ScalarFrameFallback
            comp = self.compiled_for(state.table)
            if guard is not None:
                fresh_key = (id(comp), id(guard))
                epoch = guard.margin_epoch
                if self._guard_refreshed.get(fresh_key) != epoch:
                    guard.refresh_availability(comp)
                    self._guard_refreshed[fresh_key] = epoch

            if idx is None:
                positions = np.arange(len(bits), dtype=np.int64)
                op_bits = bits
                op_cycles = cycles
            else:
                positions = np.asarray(idx, dtype=np.int64)
                op_bits = bits[positions]
                op_cycles = cycles[positions]
            if (
                int(op_bits.min()) < 1
                or int(op_bits.max()) > comp.max_bits
                or int(op_cycles.min()) < 0
            ):
                raise _ScalarFrameFallback

            plan = _OperatorPlan(
                name=name,
                state=state,
                compiled=comp,
                positions=positions,
                bits=op_bits,
                cycles=op_cycles,
                terms=op_cycles / comp.fclk_ghz,
                decisions=np.empty(len(op_bits), dtype=np.int64),
                switched=np.zeros(len(op_bits), dtype=bool),
                margin=np.zeros(len(op_bits), dtype=bool),
                # With every mode available the guard never overrides
                # (guarded_key returns the safe preferred key, no flag),
                # so the adjusted lookup degenerates to the plain one.
                guard_active=guard is not None and not comp.all_available,
            )
            if isinstance(policy, LearnedPolicy):
                # The learned decision is a pure function of (current
                # mode, bits, demand EWMAs, pool occupancy).  The mode
                # row and EWMAs fold from the frame itself; occupancy
                # must provably be 0 at every decision, which holds
                # when (a) this operator is
                # the only one in the frame -- no interleaved foreign
                # grants -- and (b) no pre-frame grant is still waiting
                # to start: the operator's own grants start at (and
                # advance the clock past) acquisition, so they are
                # never "not yet started" at a later decision.
                if len(groups) > 1:
                    raise _ScalarFrameFallback
                if self.pool.occupancy(state.clock_ns) > 0:
                    raise _ScalarFrameFallback
                plan.kind = "learned"
                plan.bits_list = op_bits.tolist()
            elif CompiledTable.policy_cache_key(policy) is not None:
                plan.kind = "memoryless"
                plan.dtable = comp.decision_table(policy)
                plan.dtable_list = plan.dtable.tolist()
                if not self._memoryless_stable(
                    comp, plan.dtable, plan.guard_active
                ):
                    raise _ScalarFrameFallback
            else:
                plan.kind = "lookahead"
                plan.window = (
                    policy.window
                    if upcoming_cap is None
                    else min(policy.window, upcoming_cap)
                )
                plan.cover_pos = comp.cover_index[op_bits]

            start_row = (
                comp.index_of[state.current_bits]
                if state.current_bits is not None
                else comp.none_row
            )
            plan.clock = state.clock_ns
            if plan.kind == "memoryless":
                self._plan_memoryless(plan, 0, start_row)
            elif plan.kind == "learned":
                self._plan_learned(plan, 0, start_row)
            else:
                self._plan_lookahead(plan, 0, start_row)
            # Accuracy invariant, pre-verified so the walk cannot raise
            # mid-mutation.  Unreachable with the stock policies (cover
            # and guard substitutions always cover), so a hit means a
            # probe-table surprise: serve scalar and let submit() raise
            # its AccuracyViolation at the exact offending request.
            if bool((comp.active_bits[plan.decisions] < plan.bits).any()):
                raise _ScalarFrameFallback
            plans.append(plan)
        return plans

    @staticmethod
    def _memoryless_stable(
        comp: CompiledTable, dtable: np.ndarray, guard_active: bool
    ) -> bool:
        """``adj(dt[adj(dt[s,b]), b]) == adj(dt[s,b])`` for all (s, b).

        The run-length collapse in :meth:`_plan_memoryless` relies on
        guard-adjusted decisions being idempotent: within a run of equal
        bits, the decision made *from the head's mode* must re-pick the
        head's mode.  True for greedy (state-independent) and hysteresis
        (holds or stays on its target); verified wholesale here so the
        kernel never has to bail mid-walk.
        """
        if guard_active:
            available = comp.mode_available
            guarded = comp.guarded_cover_index
            head = np.where(available[dtable], dtable, guarded)
        else:
            head = dtable
        body = np.take_along_axis(dtable, head, axis=0)
        if guard_active:
            body = np.where(available[body], body, guarded)
        return bool((body == head).all())

    def _plan_memoryless(
        self, plan: _OperatorPlan, start: int, row: int
    ) -> None:
        """Fill decisions for ``[start:]`` from state *row* (greedy/hyst).

        Requests are run-length collapsed: within a run of equal bits
        only the head (from *row*) and the body (from the head's mode)
        lookups exist, and :meth:`_memoryless_stable` guarantees the
        body re-picks the head -- so the whole run shares one decision.
        The margin flag is recomputed for the body: the policy's *raw*
        pick may be unsafe every time even though the guarded result is
        stable.
        """
        bits = plan.bits
        total = len(bits)
        if start >= total:
            return
        comp = plan.compiled
        dtable = plan.dtable_list
        guard_active = plan.guard_active
        if guard_active:
            available = comp.mode_available.tolist()
            guarded = comp.guarded_cover_index.tolist()
        free = comp._free_rows
        event_own = plan.event_own
        event_row = plan.event_row

        seg = bits[start:]
        change = np.flatnonzero(seg[1:] != seg[:-1]) + start + 1
        starts = np.concatenate(([start], change))
        lengths = np.diff(np.concatenate((starts, [total])))
        starts_l = starts.tolist()
        lengths_l = lengths.tolist()
        run_bits = bits[starts].tolist()

        heads: List[int] = []
        head_switched: List[bool] = []
        head_flags: List[bool] = []
        body_flags: List[bool] = []
        for index, b in enumerate(run_bits):
            head = dtable[row][b]
            flag = False
            if guard_active and not available[head]:
                head = guarded[b]
                flag = True
            heads.append(head)
            head_flags.append(flag)
            if head != row:
                head_switched.append(True)
                if not free[row][head]:
                    event_own.append(starts_l[index])
                    event_row.append(row)
            else:
                head_switched.append(False)
            if lengths_l[index] > 1:
                raw_body = dtable[head][b]
                body_flags.append(
                    guard_active and not available[raw_body]
                )
            else:
                body_flags.append(False)
            row = head

        plan.decisions[start:] = np.repeat(
            np.asarray(heads, dtype=np.int64), lengths
        )
        plan.switched[start:] = False
        plan.switched[starts] = head_switched
        plan.margin[start:] = np.repeat(
            np.asarray(body_flags, dtype=bool), lengths
        )
        plan.margin[starts] = head_flags

    def _plan_learned(
        self, plan: _OperatorPlan, start: int, row: int
    ) -> None:
        """Fill decisions for ``[start:]`` from state *row* (learned).

        The demand EWMAs are a pure function of the request stream, so
        their buckets fold once (``start == 0``) in the same python
        float arithmetic the scalar :class:`DemandTracker` applies.  The
        decision lookup then walks mode history from *row* -- the spec's
        mode-state axis is aligned with this table's rows by
        construction -- indexing the tensor at occupancy bucket 0
        (guaranteed by the eligibility gate).  A replan after
        degradation (``start > 0``) re-derives the suffix decisions from
        the forced *row* over the stored buckets.
        """
        total = len(plan.bits)
        if start >= total:
            return
        comp = plan.compiled
        policy = plan.state.policy
        spec = policy.spec
        ltable = comp.learned_decision_table(policy)
        occ_zero = bucketize(spec.occupancy_edges, 0.0)
        occ_plane = ltable[:, :, :, occ_zero, :]
        if start == 0:
            level_edges = spec.level_edges
            vol_edges = spec.volatility_edges
            tracker = plan.state.tracker.copy()
            buckets: List[Tuple[int, int]] = []
            for bits in plan.bits_list:
                level, volatility = tracker.features_for(bits)
                buckets.append(
                    (
                        bucketize(level_edges, level),
                        bucketize(vol_edges, volatility),
                    )
                )
                tracker.update(bits)
            plan.learned_buckets = buckets
            plan.final_tracker = tracker
        guard_active = plan.guard_active
        if guard_active:
            available = comp.mode_available.tolist()
            guarded = comp.guarded_cover_index.tolist()
        free = comp._free_rows
        event_own = plan.event_own
        event_row = plan.event_row
        bits_list = plan.bits_list
        bucket_list = plan.learned_buckets
        decisions: List[int] = []
        switched: List[bool] = []
        flags: List[bool] = []
        for offset in range(start, total):
            bits = bits_list[offset]
            level_b, vol_b = bucket_list[offset]
            decision = int(occ_plane[row, level_b, vol_b, bits])
            flag = False
            if guard_active and not available[decision]:
                decision = guarded[bits]
                flag = True
            decisions.append(decision)
            flags.append(flag)
            if decision != row:
                switched.append(True)
                if not free[row][decision]:
                    event_own.append(offset)
                    event_row.append(row)
                row = decision
            else:
                switched.append(False)
        plan.decisions[start:] = decisions
        plan.margin[start:] = flags
        plan.switched[start:] = switched

    def _plan_lookahead(
        self, plan: _OperatorPlan, start: int, row: int
    ) -> None:
        """Fill decisions for ``[start:]`` from state *row* (lookahead).

        A decision depends on the current mode only through the first
        transition term of each plan's cost.  :meth:`_lookahead_inherited`
        prices every position once, in array passes, for the row it
        inherits when the previous position serves its own cover mode.
        This pass takes those decisions and redoes the exact comparison
        (:meth:`_lookahead_decide`) only where the actual row differs:
        at *start*, after a held peak and after a guard substitution.
        """
        total = len(plan.bits)
        if start >= total:
            return
        comp = plan.compiled
        if plan.inherited is None:
            plan.inherited = self._lookahead_inherited(plan)
        nontrivial, exact, inherited = plan.inherited
        nontrivial = nontrivial[start:]
        exact = exact[start:]
        cover = plan.cover_pos[start:]
        decisions = inherited[start:].copy()
        guard_active = plan.guard_active
        if guard_active:
            flags = ~comp.mode_available[decisions]
            decisions[flags] = comp.guarded_cover_index[
                plan.bits[start:][flags]
            ]
        else:
            flags = np.zeros(total - start, dtype=bool)

        # Positions whose inherited row is wrong or was never priced.
        redo = nontrivial & ~exact
        redo[1:] |= nontrivial[1:] & (decisions[:-1] != cover[:-1])
        redo[0] = nontrivial[0]
        queue = np.flatnonzero(redo).tolist()
        available = comp.mode_available
        guarded = comp.guarded_cover_index
        last = total - start - 1
        popped = 0
        carry = -1
        while True:
            if carry >= 0:
                i = carry
                carry = -1
                if popped < len(queue) and queue[popped] == i:
                    popped += 1
            elif popped < len(queue):
                i = queue[popped]
                popped += 1
                if i and exact[i] and decisions[i - 1] == cover[i - 1]:
                    continue  # the predecessor was redone onto its cover
            else:
                break
            before = row if i == 0 else int(decisions[i - 1])
            decision = self._lookahead_decide(plan, start + i, before)
            flag = guard_active and not available[decision]
            if flag:
                decision = int(guarded[plan.bits[start + i]])
            decisions[i] = decision
            flags[i] = flag
            if i < last and nontrivial[i + 1] and decision != cover[i]:
                carry = i + 1

        rows = np.empty_like(decisions)
        rows[0] = row
        rows[1:] = decisions[:-1]
        switched = decisions != rows
        costly = np.flatnonzero(
            switched & ~comp.transition_free[rows, decisions]
        )
        plan.decisions[start:] = decisions
        plan.switched[start:] = switched
        plan.margin[start:] = flags
        plan.event_own.extend((costly + start).tolist())
        plan.event_row.extend(rows[costly].tolist())

    @staticmethod
    def _lookahead_decide(plan: _OperatorPlan, j: int, row: int) -> int:
        """The lookahead policy's raw decision at a non-trivial own
        position *j* from state *row*: its plan comparison, folded in
        python float arithmetic that mirrors
        ``LookaheadPolicy._plan_energy_j`` operation for operation."""
        comp = plan.compiled
        span = min(plan.window, len(plan.bits) - 1 - j)
        future = plan.cycles[j + 1 : j + 1 + span].tolist()
        mean_cycles = sum(future) // span
        keys = plan.cover_pos[j : j + span + 1].tolist()
        peak = comp._cover_list[int(plan.bits[j : j + span + 1].max())]
        trans_rows = comp._energy_rows
        power = comp._power_list
        denom = comp.denom_hz
        cycle_seq = [mean_cycles, *future]
        greedy_cost = 0.0
        current = row
        for key, cyc in zip(keys, cycle_seq):
            greedy_cost += trans_rows[current][key]
            greedy_cost += power[key] * cyc / denom
            current = key
        hold_cost = 0.0
        current = row
        for cyc in cycle_seq:
            hold_cost += trans_rows[current][peak]
            hold_cost += power[peak] * cyc / denom
            current = peak
        return peak if hold_cost < greedy_cost else keys[0]

    @staticmethod
    def _lookahead_inherited(
        plan: _OperatorPlan,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(nontrivial, exact, inherited)`` over the plan's positions.

        A position is *trivial* when its whole horizon maps to one cover
        mode: the policy's early return serves that mode from any row,
        and ``inherited`` holds it.  At every other position ``j > 0``,
        ``inherited`` is the plan comparison from row ``cover[j - 1]``,
        priced across positions in ``LookaheadPolicy._plan_energy_j``'s
        operation order (``+= transition``, then ``+= power * cycles /
        denom``; steps past a short horizon are skipped with ``where=``)
        and ``exact`` marks it.  The int64 window sums equal python's
        only if the prefix sum cannot wrap, so otherwise no position is
        priced here and the scalar comparison handles all of them.
        """
        comp = plan.compiled
        window = plan.window
        cover = plan.cover_pos
        cycles = plan.cycles
        total = len(cover)
        index = np.arange(total, dtype=np.int64)
        horizon = np.minimum(window, total - 1 - index)
        bounds = np.append(np.flatnonzero(cover[1:] != cover[:-1]) + 1, total)
        run_end = bounds[np.searchsorted(bounds, index, side="right")]
        nontrivial = run_end < index + horizon + 1
        exact = np.zeros(total, dtype=bool)
        inherited = cover.copy()
        at = np.flatnonzero(nontrivial[1:]) + 1
        if at.size == 0 or total * int(cycles.max()) > np.iinfo(np.int64).max:
            return nontrivial, exact, inherited
        span = horizon[at]
        prefix = np.concatenate(([0], np.cumsum(cycles)))
        mean_cycles = (prefix[at + 1 + span] - prefix[at + 1]) // span
        bits = plan.bits
        peak_bits = bits[at]
        for step in range(1, window + 1):
            later = bits[np.minimum(at + step, total - 1)]
            peak_bits = np.where(
                step <= span, np.maximum(peak_bits, later), peak_bits
            )
        peak = comp.cover_index[peak_bits]
        first = cover[at]
        row = cover[at - 1]
        energy = comp.transition_energy_j
        power = comp.power_w
        denom = comp.denom_hz
        greedy_cost = np.zeros(at.size)
        greedy_cost += energy[row, first]
        greedy_cost += power[first] * mean_cycles / denom
        hold_cost = np.zeros(at.size)
        hold_cost += energy[row, peak]
        hold_cost += power[peak] * mean_cycles / denom
        current = first
        for step in range(1, window + 1):
            live = step <= span
            later = np.minimum(at + step, total - 1)
            key = cover[later]
            cyc = cycles[later]
            for cost, term in (
                (greedy_cost, energy[current, key]),
                (greedy_cost, power[key] * cyc / denom),
                (hold_cost, energy[peak, peak]),
                (hold_cost, power[peak] * cyc / denom),
            ):
                np.add(cost, term, out=cost, where=live)
            current = key
        inherited[at] = np.where(hold_cost < greedy_cost, peak, first)
        exact[at] = True
        return nontrivial, exact, inherited

    def _walk_frame(
        self,
        plans: List[_OperatorPlan],
        decided_at: List[float],
        need_decided: bool,
        queue_wait: np.ndarray,
        settle: np.ndarray,
        trans_e: np.ndarray,
        batched: np.ndarray,
        degraded: np.ndarray,
    ) -> None:
        """Pass 2: advance virtual clocks, talking to the real pool.

        Only *complex* positions (mode switch with a non-free cost)
        interact with the generator pool; everything between consecutive
        complex positions of one operator is a pure prefix sum of
        compute durations.  Complex positions are consumed in global
        frame order so the pool sees the exact scalar call sequence,
        until one operator is left with events on a pool that is idle
        at its clock: the rest is :meth:`_walk_idle_tail`.
        """
        pool = self.pool
        depth_limit = self.max_queue_depth
        for plan in plans:
            plan.fold_ptr = 0
            plan.complex_ptr = 0
            plan.clock = plan.state.clock_ns
            plan.terms_list = plan.terms.tolist()
            plan.positions_list = plan.positions.tolist()
        while True:
            best: Optional[_OperatorPlan] = None
            best_global = -1
            waiting = 0
            for plan in plans:
                if plan.complex_ptr < len(plan.event_own):
                    waiting += 1
                    at = plan.positions_list[plan.event_own[plan.complex_ptr]]
                    if best is None or at < best_global:
                        best = plan
                        best_global = at
            if best is None:
                break
            plan = best
            own = plan.event_own[plan.complex_ptr]
            row_before = plan.event_row[plan.complex_ptr]
            self._fold_clock(plan, own, decided_at, need_decided)
            now = plan.clock
            if waiting == 1 and pool.idle_at(now):
                self._walk_idle_tail(
                    plan, decided_at, need_decided, settle, trans_e
                )
                break
            plan.complex_ptr += 1
            comp = plan.compiled
            if need_decided:
                decided_at[best_global] = now
            decision = int(plan.decisions[own])
            if pool.queue_depth(now) >= depth_limit:
                # Saturated: degrade to the static mode (power-on rail,
                # no pool), exactly like the scalar branch -- then the
                # operator's remaining requests are replanned from it.
                static = comp.static_index
                changed = static != row_before
                plan.decisions[own] = static
                plan.switched[own] = changed
                degraded[best_global] = True
                settle[best_global] = float(
                    comp.transition_settle_ns[row_before, static]
                )
                if changed:
                    trans_e[best_global] = float(
                        comp.transition_energy_j[row_before, static]
                    )
                plan.event_own = []
                plan.event_row = []
                plan.complex_ptr = 0
                if plan.kind == "memoryless":
                    self._plan_memoryless(plan, own + 1, static)
                elif plan.kind == "learned":
                    self._plan_learned(plan, own + 1, static)
                else:
                    self._plan_lookahead(plan, own + 1, static)
            else:
                grant = pool.acquire(
                    now,
                    float(comp.transition_settle_ns[row_before, decision]),
                    comp.signatures[decision],
                )
                if grant is None:  # pragma: no cover - gated on eligibility
                    raise RuntimeError("pool dropped out mid-frame")
                start, end, was_batched = grant
                queue_wait[best_global] = start - now
                settle[best_global] = end - start
                batched[best_global] = was_batched
                trans_e[best_global] = float(
                    comp.transition_energy_j[row_before, decision]
                )
                plan.clock = end
            plan.clock = plan.clock + plan.terms_list[own]
            plan.fold_ptr = own + 1
        for plan in plans:
            self._fold_clock(plan, len(plan.bits), decided_at, need_decided)

    def _walk_idle_tail(
        self,
        plan: _OperatorPlan,
        decided_at: List[float],
        need_decided: bool,
        settle: np.ndarray,
        trans_e: np.ndarray,
    ) -> None:
        """Finish *plan*'s walk on an idle pool in array passes.

        The caller checked the premise at the plan's next event: no other
        operator has events left, and :meth:`GeneratorPool.idle_at` the
        plan's clock.  Then every grant starts at its request (queue
        wait 0), ``_prune`` empties ``pending`` before it (nothing
        batch-joins) and the depth stays 0 (nothing degrades).  The
        premise holds at the next event too: the clock passes each
        grant's end before it, and terms are >= 0.  So the clock is one
        sequential fold over interleaved ``[settle, term]`` increments --
        ``np.cumsum`` adds in sequence, bit for bit the scalar chain --
        and the pool is left as the scalar ``acquire`` sequence leaves
        it.  Settle is recorded as ``end - start``, as the scalar walk
        does, which can differ from the table's settle in the last bit.
        """
        comp = plan.compiled
        pool = self.pool
        begin = plan.fold_ptr
        total = len(plan.bits)
        own = np.asarray(plan.event_own[plan.complex_ptr :], dtype=np.int64)
        rows = np.asarray(plan.event_row[plan.complex_ptr :], dtype=np.int64)
        plan.complex_ptr = len(plan.event_own)
        served = plan.decisions[own]
        # Each position adds its term, an event adds its settle first;
        # clock[offset[k]] is the clock as position begin + k starts.
        width = np.ones(total - begin, dtype=np.int64)
        width[own - begin] = 2
        offset = np.cumsum(width) - width
        at = offset[own - begin]
        chain = np.empty(total - begin + len(own) + 1)
        chain[0] = plan.clock
        chain[offset + width] = plan.terms[begin:]
        chain[at + 1] = comp.transition_settle_ns[rows, served]
        clock = np.cumsum(chain)
        start = clock[at]
        end = clock[at + 1]
        where = plan.positions[own]
        settle[where] = end - start
        trans_e[where] = comp.transition_energy_j[rows, served]
        if need_decided:
            for position, now in zip(
                plan.positions_list[begin:], clock[offset].tolist()
            ):
                decided_at[position] = now
        plan.clock = float(clock[-1])
        plan.fold_ptr = total

        ends = end.tolist()
        free = pool.free_at_ns
        generator = 0
        if pool.size == 1:
            free[0] = ends[-1]
        else:
            for value in ends:
                generator = min(range(pool.size), key=free.__getitem__)
                free[generator] = value
        # The last acquire's own depth probe prunes every earlier grant,
        # and its own one too when it ended as it started.
        last_start = float(start[-1])
        pool.pending = []
        if ends[-1] > last_start:
            pool.pending.append(
                _Grant(
                    comp.signatures[int(served[-1])],
                    last_start,
                    ends[-1],
                    generator,
                )
            )

    @staticmethod
    def _fold_clock(
        plan: _OperatorPlan,
        upto: int,
        decided_at: List[float],
        need_decided: bool,
    ) -> None:
        """Fold the clock over simple positions ``[fold_ptr, upto)``.

        A plain left-to-right python float fold -- exactly the scalar
        ``clock += cycles / fclk`` chain, on the same precomputed
        per-request terms.
        """
        begin = plan.fold_ptr
        if upto <= begin:
            return
        clock = plan.clock
        terms = plan.terms_list
        if need_decided:
            positions = plan.positions_list
            for k in range(begin, upto):
                decided_at[positions[k]] = clock
                clock += terms[k]
        else:
            for term in terms[begin:upto]:
                clock += term
        plan.clock = clock
        plan.fold_ptr = upto

    def _serve_frame_scalar(
        self,
        operators,
        bits: np.ndarray,
        cycles: np.ndarray,
        want_phases: bool,
        want_arrays: bool,
        upcoming_cap: Optional[int],
    ) -> Tuple[Optional[List[ServedPhase]], Optional[BatchResult]]:
        """Reference path: the scalar loop the kernel must match."""
        count = len(bits)
        single = operators if isinstance(operators, str) else None
        bits_l = bits.tolist()
        cycles_l = cycles.tolist()
        by_op: Dict[str, List[int]] = {}
        if single is None:
            for index, name in enumerate(operators):
                by_op.setdefault(name, []).append(index)
        else:
            by_op[single] = list(range(count))
        upcomings: List[Tuple] = [()] * count
        for name, idx in by_op.items():
            window = getattr(self._state(name).policy, "window", 0)
            if upcoming_cap is not None:
                window = min(window, upcoming_cap)
            if window <= 0:
                continue
            own_bits = [bits_l[i] for i in idx]
            own_cycles = [cycles_l[i] for i in idx]
            for k, i in enumerate(idx):
                upcomings[i] = tuple(
                    zip(
                        own_bits[k + 1 : k + 1 + window],
                        own_cycles[k + 1 : k + 1 + window],
                    )
                )
        phases: List[ServedPhase] = []
        for i in range(count):
            name = single if single is not None else operators[i]
            request = ServeRequest(name, int(bits_l[i]), int(cycles_l[i]))
            phases.append(self.submit(request, upcoming=upcomings[i]))
        result = self._phases_to_arrays(phases) if want_arrays else None
        return (phases if want_phases else None), result

    @staticmethod
    def _phases_to_arrays(phases: Sequence[ServedPhase]) -> BatchResult:
        count = len(phases)
        return BatchResult(
            served_bits=np.fromiter(
                (p.served_bits for p in phases), np.int64, count
            ),
            switched=np.fromiter((p.switched for p in phases), bool, count),
            batched=np.fromiter((p.batched for p in phases), bool, count),
            degraded=np.fromiter((p.degraded for p in phases), bool, count),
            margin_fallback=np.fromiter(
                (p.margin_fallback for p in phases), bool, count
            ),
            transition_retries=np.fromiter(
                (p.transition_retries for p in phases), np.int64, count
            ),
            compute_energy_j=np.fromiter(
                (p.compute_energy_j for p in phases), np.float64, count
            ),
            transition_energy_j=np.fromiter(
                (p.transition_energy_j for p in phases), np.float64, count
            ),
            settle_ns=np.fromiter(
                (p.settle_ns for p in phases), np.float64, count
            ),
            queue_wait_ns=np.fromiter(
                (p.queue_wait_ns for p in phases), np.float64, count
            ),
            decided_at_ns=np.fromiter(
                (p.decided_at_ns for p in phases), np.float64, count
            ),
        )

    # -- reporting -----------------------------------------------------------

    def report(self, operator: str) -> RuntimeReport:
        """Legacy-shaped accounting of everything one operator served."""
        state = self._operators[operator]
        return RuntimeReport(
            phases=state.phases,
            total_cycles=state.cycles,
            compute_energy_j=state.compute_energy_j,
            transition_energy_j=state.transition_energy_j,
            transition_time_ns=state.transition_time_ns,
            mode_switches=state.switches,
            static_energy_j=state.static_energy_j,
        )


def replay_trace(
    table: ModeTable,
    workload: Sequence[WorkloadPhase],
    policy: str = "greedy",
    num_generators: int = 1,
    lookahead_window: int = 4,
    **policy_kwargs,
) -> RuntimeReport:
    """Replay an offline trace through the scheduler; return the report.

    *workload* is any sequence of ``(required_bits, cycles)`` pairs:
    :class:`~repro.core.runtime.WorkloadPhase` objects, tuples, or the
    ``(N, 2)`` int64 array :func:`repro.traces.load_trace_file` returns.
    Single operator, pool never saturated (depth bound is the trace
    length), so the only differences between policies are the selection
    decisions themselves.  The lookahead policy sees the next
    ``lookahead_window`` phases of the trace.  The whole trace is served
    as one frame of the batched kernel, which is bit-identical to
    submitting the phases one by one.
    """
    phases = np.asarray(workload, dtype=np.int64)
    if phases.size == 0:
        raise ValueError("empty workload")
    if phases.ndim != 2 or phases.shape[1] != 2:
        raise ValueError("workload must be (required_bits, cycles) pairs")
    if policy == "lookahead" and "window" not in policy_kwargs:
        policy_kwargs["window"] = lookahead_window
    scheduler = ModeScheduler(
        table,
        num_generators=num_generators,
        policy=policy,
        max_queue_depth=len(phases) + 1,
        policy_kwargs=policy_kwargs,
    )
    # Report-only: no phases, no result arrays -- just accounting.
    scheduler._serve_frame(
        "replay",
        np.ascontiguousarray(phases[:, 0]),
        np.ascontiguousarray(phases[:, 1]),
        want_phases=False,
        want_arrays=False,
        upcoming_cap=lookahead_window if policy == "lookahead" else 0,
    )
    return scheduler.report("replay")
