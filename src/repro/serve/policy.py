"""Pluggable mode-selection policies for the serving subsystem.

A policy decides which compiled mode serves a request.  Since the policy
API redesign the decision point is :meth:`SelectionPolicy.decide`, which
receives one :class:`PolicyContext` -- the request itself plus everything
the scheduler knows that a stateful or learned policy may want to
condition on: the current mode, a bounded window of known upcoming
phases, recent-demand EWMA features, the generator-pool occupancy and
the operator's virtual clock.

The contract every policy must honour -- and the scheduler re-checks
centrally -- is the accuracy invariant: **the selected mode never offers
fewer bits than the request demands**.  Policies only get to trade
*headroom* (serving more bits than asked) against transition cost.

Four policies ship:

* ``greedy`` -- the paper baseline: cheapest sufficient mode, every phase.
* ``hysteresis`` -- takes every upswitch (accuracy first), but refuses a
  downswitch unless the projected compute saving over an expected dwell
  beats the transition energy by a configurable margin.  Kills mode
  thrash on alternating workloads.
* ``lookahead`` -- evaluates, over a bounded window of known upcoming
  phases, the full energy of "greedy per phase" vs "hold one covering
  mode", and commits to the cheaper plan's first step.
* ``learned`` -- a frozen fitted-Q lookup policy trained offline on a
  workload-trace suite (:mod:`repro.serve.learned`), conditioned on the
  current mode plus the context's demand features.

Policies register through the :func:`register_policy` decorator, which
also carries each policy's typed constructor parameters
(:class:`PolicyParam`) so the CLI's ``--policy-arg key=value`` pairs are
validated and coerced with a clear error instead of a raw ``TypeError``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from repro.serve.table import ModeTable

#: An upcoming request as the scheduler exposes it to policies:
#: ``(required_bits, cycles)``.
Upcoming = Tuple[int, int]

#: EWMA smoothing of the demand-level feature.  Shared by the scheduler,
#: the batched kernel and the offline trainer -- a learned artifact
#: records the constants it was trained with and the loader rejects a
#: mismatch, so the served features always match the trained ones.
DEMAND_EWMA_ALPHA = 0.25

#: EWMA smoothing of the demand-volatility feature (|delta bits|).
VOLATILITY_EWMA_ALPHA = 0.25


@dataclass(frozen=True)
class PolicyContext:
    """Everything a policy may condition one decision on.

    ``demand_level`` / ``demand_volatility`` are the scheduler-maintained
    EWMA features of the operator's recent request stream *before* this
    request is folded in (see :class:`DemandTracker`); ``pool_occupancy``
    is the number of not-yet-started slews queued on the generator pool
    at decision time; ``virtual_time_ns`` is the operator's virtual
    clock.  Memoryless policies simply ignore the fields they do not
    need.
    """

    required_bits: int
    current_bits: Optional[int] = None
    upcoming: Tuple[Upcoming, ...] = ()
    demand_level: float = 0.0
    demand_volatility: float = 0.0
    pool_occupancy: int = 0
    virtual_time_ns: float = 0.0


class DemandTracker:
    """Per-operator EWMA features of the request stream.

    ``level`` tracks the demanded bits, ``volatility`` the absolute
    phase-to-phase demand change.  The very first request initialises
    the level to itself (no cold-start bias toward zero).  Updates are
    plain python float arithmetic so the batched kernel's fold replays
    them bit-identically.
    """

    __slots__ = ("level", "volatility", "last_bits")

    def __init__(
        self,
        level: Optional[float] = None,
        volatility: float = 0.0,
        last_bits: Optional[int] = None,
    ):
        self.level = level
        self.volatility = volatility
        self.last_bits = last_bits

    def features_for(self, required_bits: int) -> Tuple[float, float]:
        """The (level, volatility) a decision on *required_bits* sees."""
        if self.level is None:
            return (float(required_bits), self.volatility)
        return (self.level, self.volatility)

    def update(self, required_bits: int) -> None:
        """Fold one served request into the EWMAs."""
        bits = float(required_bits)
        if self.last_bits is None:
            self.level = bits
        else:
            self.level = (
                DEMAND_EWMA_ALPHA * bits
                + (1.0 - DEMAND_EWMA_ALPHA) * self.level
            )
            self.volatility = (
                VOLATILITY_EWMA_ALPHA * abs(bits - float(self.last_bits))
                + (1.0 - VOLATILITY_EWMA_ALPHA) * self.volatility
            )
        self.last_bits = required_bits

    def copy(self) -> "DemandTracker":
        return DemandTracker(self.level, self.volatility, self.last_bits)


class SelectionPolicy(ABC):
    """Chooses the mode key serving a request; subclasses override
    :meth:`decide`."""

    name = "base"

    def __init__(self, table: ModeTable):
        self.table = table

    @abstractmethod
    def decide(self, ctx: PolicyContext) -> int:
        """Return the mode key serving ``ctx.required_bits``."""

    def _phase_energy_j(self, bits_key: int, cycles: int) -> float:
        power = self.table.modes[bits_key].total_power_w
        return power * cycles / (self.table.fclk_ghz * 1e9)


# -- registry -----------------------------------------------------------------


@dataclass(frozen=True)
class PolicyParam:
    """One typed, documented constructor parameter of a policy."""

    name: str
    kind: type
    default: Any
    doc: str = ""

    def coerce(self, raw: Any) -> Any:
        """Parse *raw* (typically a CLI string) into the declared type."""
        if isinstance(raw, self.kind):
            return raw
        try:
            if self.kind is bool and isinstance(raw, str):
                lowered = raw.strip().lower()
                if lowered in ("1", "true", "yes", "on"):
                    return True
                if lowered in ("0", "false", "no", "off"):
                    return False
                raise ValueError(f"not a boolean: {raw!r}")
            return self.kind(raw)
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"policy parameter {self.name!r} expects "
                f"{self.kind.__name__}, got {raw!r}"
            ) from exc


#: The live policy registry: name -> class.  Populated by
#: :func:`register_policy`; kept under the historical ``POLICIES`` name
#: so existing imports stay valid.
POLICIES: Dict[str, Type[SelectionPolicy]] = {}


def register_policy(cls: Type[SelectionPolicy]) -> Type[SelectionPolicy]:
    """Class decorator adding a policy to the registry.

    The class must define ``name`` and may define ``params`` -- a tuple
    of :class:`PolicyParam` describing its constructor keywords.  The
    registry drives :func:`make_policy` validation and the CLI's
    ``--policy`` / ``--policy-arg`` surface.
    """
    name = getattr(cls, "name", None)
    if not name or name == SelectionPolicy.name:
        raise ValueError(
            f"policy class {cls.__name__} must define a unique name"
        )
    existing = POLICIES.get(name)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"policy name {name!r} already registered by "
            f"{existing.__name__}"
        )
    for param in getattr(cls, "params", ()):
        if not isinstance(param, PolicyParam):
            raise ValueError(
                f"{cls.__name__}.params must contain PolicyParam entries"
            )
    POLICIES[name] = cls
    return cls


def policy_params(name: str) -> Tuple[PolicyParam, ...]:
    """The declared parameters of a registered policy."""
    return tuple(getattr(_policy_class(name), "params", ()))


def _policy_class(name: str) -> Type[SelectionPolicy]:
    try:
        return POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; choose from {sorted(POLICIES)}"
        ) from None


def validate_policy_kwargs(name: str, kwargs: Dict[str, Any]) -> Dict[str, Any]:
    """Check *kwargs* against the registry; coerce declared types.

    Unknown keys raise a :class:`ValueError` that lists every parameter
    the policy actually takes (or says it takes none).
    """
    declared = {param.name: param for param in policy_params(name)}
    coerced: Dict[str, Any] = {}
    for key, value in kwargs.items():
        if key not in declared:
            known = (
                "takes no parameters"
                if not declared
                else "knows " + ", ".join(
                    f"{p.name} ({p.kind.__name__}, default {p.default!r})"
                    for p in declared.values()
                )
            )
            raise ValueError(
                f"policy {name!r} has no parameter {key!r}; it {known}"
            )
        coerced[key] = declared[key].coerce(value)
    return coerced


def make_policy(name: str, table: ModeTable, **kwargs) -> SelectionPolicy:
    """Instantiate a registered policy by name, validating its kwargs."""
    cls = _policy_class(name)
    return cls(table, **validate_policy_kwargs(name, kwargs))


def parse_policy_args(pairs: Sequence[str]) -> Dict[str, str]:
    """Parse CLI ``--policy-arg key=value`` pairs into a raw dict."""
    parsed: Dict[str, str] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ValueError(
                f"bad --policy-arg {pair!r}; expected key=value"
            )
        parsed[key.strip()] = value.strip()
    return parsed


# -- built-in policies --------------------------------------------------------


@register_policy
class GreedyPolicy(SelectionPolicy):
    """Paper baseline: cheapest sufficient mode, reconsidered every phase."""

    name = "greedy"
    params: Tuple[PolicyParam, ...] = ()

    def decide(self, ctx: PolicyContext) -> int:
        return self.table.mode_key_for(ctx.required_bits)


@register_policy
class HysteresisPolicy(SelectionPolicy):
    """Debounced greedy: a downswitch must pay for itself.

    When greedy wants a cheaper mode than the current one, the move is
    taken only if the projected compute saving over ``dwell_cycles``
    exceeds ``margin`` times the transition energy; otherwise the operator
    holds its (sufficient) current mode.  Upswitches are never delayed.
    """

    name = "hysteresis"
    params = (
        PolicyParam(
            "dwell_cycles", int, 20_000,
            "cycles the projected saving is amortized over",
        ),
        PolicyParam(
            "margin", float, 2.0,
            "saving must beat margin x transition energy",
        ),
    )

    def __init__(
        self, table: ModeTable, dwell_cycles: int = 20_000, margin: float = 2.0
    ):
        super().__init__(table)
        if dwell_cycles <= 0:
            raise ValueError("dwell_cycles must be positive")
        if margin < 0.0:
            raise ValueError("margin must be non-negative")
        self.dwell_cycles = dwell_cycles
        self.margin = margin

    def decide(self, ctx: PolicyContext) -> int:
        required_bits = ctx.required_bits
        current_bits = ctx.current_bits
        target = self.table.mode_key_for(required_bits)
        if current_bits is None or target == current_bits:
            return target
        current = self.table.modes[current_bits]
        if current.active_bits < required_bits:
            return target  # upswitch: accuracy always wins
        saving_w = current.total_power_w - self.table.modes[target].total_power_w
        if saving_w <= 0.0:
            return current_bits
        dwell_s = self.dwell_cycles / (self.table.fclk_ghz * 1e9)
        cost = self.table.transition_between(current_bits, target)
        if saving_w * dwell_s <= self.margin * cost.energy_j:
            return current_bits
        return target


@register_policy
class LookaheadPolicy(SelectionPolicy):
    """Bounded-window plan comparison: greedy-per-phase vs hold-covering.

    Considers the current request plus up to ``window`` known upcoming
    phases, prices both plans exactly with the compiled table (compute
    energy + every transition either plan incurs), and serves the first
    step of the cheaper one.  With an empty window it degenerates to
    greedy.
    """

    name = "lookahead"
    params = (
        PolicyParam(
            "window", int, 4, "upcoming phases the plan comparison sees"
        ),
    )

    def __init__(self, table: ModeTable, window: int = 4):
        super().__init__(table)
        if window < 0:
            raise ValueError("window must be non-negative")
        self.window = window

    def _plan_energy_j(
        self,
        keys: Sequence[int],
        phases: Sequence[Upcoming],
        start_key: Optional[int],
    ) -> float:
        energy = 0.0
        current = start_key
        for key, (_bits, cycles) in zip(keys, phases):
            energy += self.table.transition_between(current, key).energy_j
            energy += self._phase_energy_j(key, cycles)
            current = key
        return energy

    def decide(self, ctx: PolicyContext) -> int:
        required_bits = ctx.required_bits
        current_bits = ctx.current_bits
        horizon: Sequence[Upcoming] = [
            (required_bits, 0),
            *list(ctx.upcoming)[: self.window],
        ]
        # The current request's cycle count is unknown at selection time
        # (the scheduler passes only the future); weight it like the mean
        # of the visible future so plans stay comparable.
        future = horizon[1:]
        mean_cycles = (
            sum(c for _b, c in future) // len(future) if future else 0
        )
        horizon = [(required_bits, mean_cycles), *future]

        greedy_keys = [self.table.mode_key_for(b) for b, _c in horizon]
        peak_key = self.table.mode_key_for(max(b for b, _c in horizon))
        if all(key == greedy_keys[0] for key in greedy_keys):
            return greedy_keys[0]
        hold_keys = [peak_key] * len(horizon)
        greedy_cost = self._plan_energy_j(greedy_keys, horizon, current_bits)
        hold_cost = self._plan_energy_j(hold_keys, horizon, current_bits)
        return peak_key if hold_cost < greedy_cost else greedy_keys[0]
