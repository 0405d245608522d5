"""Seeded workload-trace generation.

A :class:`WorkloadTrace` is a first-class versioned artifact: a named
family, the seed and parameters that produced it, and the resulting
sequence of ``(required_bits, cycles)`` phases.  Saving and reloading a
trace replays bit-identically, and regenerating from the recorded
``family``/``seed``/``params`` reproduces the same phases -- traces are
therefore safe to check into benchmarks, ship to CI, or hand to the
offline policy trainer (:mod:`repro.serve.learned`) as reproducible
training corpora.

Four families model the workload structures the serving papers call out
("On Dynamic Precision Scaling": applications have *phases* of
different precision demand; the DNN-accelerator work: bursty MAC-heavy
traffic):

``bursty``
    A low-precision baseline with Poisson-like bursts of full-precision
    work, burst lengths geometric.
``diurnal``
    Demand follows a slow sinusoid over the trace (a day of traffic),
    quantized to the available levels with light noise.
``phase_structured``
    Long macro-phases alternate between *calm* (pure low demand) and
    *active* (mid-level demand punctured by frequent short
    full-precision spikes).  Memoryless policies thrash on the spikes
    or hold peak through the calm -- the structure a stateful policy is
    supposed to exploit.
``adversarial_flapping``
    Flapping segments alternate low/high every phase or two with
    irregular gaps sized to defeat a bounded lookahead window,
    interleaved with long calm low-only stretches that punish any
    policy that latches onto the peak mode forever.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

#: Schema version of the serialized trace artifact.
TRACE_SCHEMA = 1

#: The ``kind`` discriminator in the JSON document.
TRACE_KIND = "repro-workload-trace"

#: Default bits levels when the caller does not name a table's modes.
DEFAULT_LEVELS: Tuple[int, ...] = (2, 4, 6, 8)


class TraceError(ValueError):
    """A trace artifact is malformed or a generation request is invalid."""


@dataclass(frozen=True)
class WorkloadTrace:
    """A replayable request trace: its provenance plus its phases."""

    family: str
    seed: int
    params: Dict[str, Any] = field(default_factory=dict)
    phases: Tuple[Tuple[int, int], ...] = ()
    schema: int = TRACE_SCHEMA

    def __post_init__(self):
        rows = phase_array(self.phases).tolist()
        object.__setattr__(self, "phases", tuple(map(tuple, rows)))

    def to_phases(self) -> List[Tuple[int, int]]:
        """The trace as the ``[(bits, cycles), ...]`` list replay expects."""
        return [tuple(phase) for phase in self.phases]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "kind": TRACE_KIND,
            "family": self.family,
            "seed": self.seed,
            "params": dict(self.params),
            "phases": [[bits, cycles] for bits, cycles in self.phases],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "WorkloadTrace":
        family, seed, params, phases = _parse_document(payload)
        return cls(family=family, seed=seed, params=params, phases=phases)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "WorkloadTrace":
        return cls.from_dict(_read_json(path))


def phase_array(phases) -> "np.ndarray":
    """*phases* as a validated ``(N, 2)`` int64 array of (bits, cycles).

    One conversion and whole-array checks; a bad phase raises
    :class:`TraceError` naming the first offending value, in trace order
    and bits before cycles.
    """
    import numpy as np

    try:
        array = np.asarray(phases, dtype=np.int64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise TraceError(_first_malformed(phases, exc)) from exc
    if array.shape == (0,):
        return array.reshape(0, 2)
    if array.ndim == 0:
        raise TraceError(
            f"phases must be a list of [bits, cycles] pairs, got {phases!r}"
        )
    if array.ndim != 2 or array.shape[1] != 2:
        raise TraceError(
            f"phase 0 is {array[0].tolist()!r}, not a [bits, cycles] pair"
        )
    bad = (array <= 0).any(axis=1)
    if bad.any():
        bits, cycles = array[int(bad.argmax())].tolist()
        if bits <= 0:
            raise TraceError(f"phase bits must be positive, got {bits}")
        raise TraceError(f"phase cycles must be positive, got {cycles}")
    return array


def _first_malformed(phases, error: Exception) -> str:
    """Why :func:`phase_array` could not convert *phases*, naming the
    first phase that is not a pair of 64-bit integers."""
    import numpy as np

    if isinstance(phases, (list, tuple)):
        for index, phase in enumerate(phases):
            try:
                pair = np.asarray(phase, dtype=np.int64)
            except (TypeError, ValueError, OverflowError) as exc:
                return f"phase {index} is {phase!r}: {exc}"
            if pair.shape != (2,):
                return f"phase {index} is {phase!r}, not a [bits, cycles] pair"
    return f"phases must be a list of [bits, cycles] pairs: {error}"


def _read_json(path) -> Any:
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise TraceError(f"trace file {path} is not valid JSON") from exc


def _parse_document(
    payload: Any,
) -> Tuple[str, int, Dict[str, Any], "np.ndarray"]:
    """(family, seed, params, phase array) of a trace document."""
    if not isinstance(payload, dict):
        raise TraceError("trace document must be a JSON object")
    if payload.get("kind") != TRACE_KIND:
        raise TraceError(
            f"not a workload trace (kind={payload.get('kind')!r})"
        )
    schema = payload.get("schema")
    if schema != TRACE_SCHEMA:
        raise TraceError(
            f"unsupported trace schema {schema!r}; "
            f"this build reads schema {TRACE_SCHEMA}"
        )
    try:
        return (
            str(payload["family"]),
            int(payload["seed"]),
            dict(payload.get("params", {})),
            phase_array(payload["phases"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceError(f"malformed trace document: {exc}") from exc


def _cycles(rng: random.Random, mean_cycles: int) -> int:
    """A per-phase cycle count jittered around the configured mean."""
    return max(1, int(rng.uniform(0.7, 1.3) * mean_cycles))


def _gen_bursty(
    rng: random.Random,
    length: int,
    levels: Sequence[int],
    mean_cycles: int,
    params: Dict[str, Any],
) -> List[Tuple[int, int]]:
    burst_rate = float(params.get("burst_rate", 0.08))
    mean_burst = max(1, int(params.get("mean_burst", 4)))
    low, high = levels[0], levels[-1]
    phases: List[Tuple[int, int]] = []
    burst_left = 0
    while len(phases) < length:
        if burst_left > 0:
            phases.append((high, _cycles(rng, mean_cycles)))
            burst_left -= 1
        elif rng.random() < burst_rate:
            burst_left = 1 + _geometric(rng, mean_burst)
        else:
            phases.append((low, _cycles(rng, mean_cycles)))
    return phases[:length]


def _geometric(rng: random.Random, mean: int) -> int:
    """A geometric draw with the given mean (support >= 0)."""
    p = 1.0 / (mean + 1.0)
    count = 0
    while rng.random() > p and count < 64:
        count += 1
    return count


def _gen_diurnal(
    rng: random.Random,
    length: int,
    levels: Sequence[int],
    mean_cycles: int,
    params: Dict[str, Any],
) -> List[Tuple[int, int]]:
    period = max(4, int(params.get("period", max(8, length // 2))))
    noise = float(params.get("noise", 0.15))
    phases: List[Tuple[int, int]] = []
    top = len(levels) - 1
    for k in range(length):
        wave = 0.5 * (1.0 - math.cos(2.0 * math.pi * k / period))
        level = wave * top + rng.gauss(0.0, noise * top)
        idx = min(top, max(0, int(round(level))))
        phases.append((levels[idx], _cycles(rng, mean_cycles)))
    return phases


def _gen_phase_structured(
    rng: random.Random,
    length: int,
    levels: Sequence[int],
    mean_cycles: int,
    params: Dict[str, Any],
) -> List[Tuple[int, int]]:
    calm_dwell = max(4, int(params.get("calm_dwell", 40)))
    active_dwell = max(4, int(params.get("active_dwell", 40)))
    spike_gap = max(2, int(params.get("spike_gap", 5)))
    low = levels[0]
    # Active segments sit on a level *far* from the spike level, so a
    # per-spike round trip is expensive relative to holding the peak --
    # the regime where memoryless selection is globally suboptimal.
    mid = levels[min(1, len(levels) - 1)]
    high = levels[-1]
    phases: List[Tuple[int, int]] = []
    active = bool(rng.random() < 0.5)
    while len(phases) < length:
        if active:
            dwell = max(2, int(rng.uniform(0.7, 1.3) * active_dwell))
            since_spike = rng.randrange(spike_gap)
            for _ in range(dwell):
                since_spike += 1
                gap = spike_gap + rng.randrange(-1, 2)
                if since_spike >= max(2, gap):
                    phases.append((high, _cycles(rng, mean_cycles)))
                    since_spike = 0
                else:
                    phases.append((mid, _cycles(rng, mean_cycles)))
        else:
            dwell = max(2, int(rng.uniform(0.7, 1.3) * calm_dwell))
            for _ in range(dwell):
                phases.append((low, _cycles(rng, mean_cycles)))
        active = not active
    return phases[:length]


def _gen_adversarial_flapping(
    rng: random.Random,
    length: int,
    levels: Sequence[int],
    mean_cycles: int,
    params: Dict[str, Any],
) -> List[Tuple[int, int]]:
    flap_dwell = max(4, int(params.get("flap_dwell", 30)))
    calm_dwell = max(4, int(params.get("calm_dwell", 50)))
    low, high = levels[0], levels[-1]
    phases: List[Tuple[int, int]] = []
    flapping = True
    while len(phases) < length:
        if flapping:
            dwell = max(2, int(rng.uniform(0.7, 1.3) * flap_dwell))
            up = bool(rng.random() < 0.5)
            produced = 0
            while produced < dwell:
                # Irregular run lengths (1-2 phases) so a bounded
                # lookahead window cannot line the pattern up.
                run = 1 + rng.randrange(2)
                bits = high if up else low
                for _ in range(run):
                    phases.append((bits, _cycles(rng, mean_cycles)))
                    produced += 1
                up = not up
        else:
            dwell = max(2, int(rng.uniform(0.7, 1.3) * calm_dwell))
            for _ in range(dwell):
                phases.append((low, _cycles(rng, mean_cycles)))
        flapping = not flapping
    return phases[:length]


_FAMILY_GENERATORS: Dict[str, Callable[..., List[Tuple[int, int]]]] = {
    "bursty": _gen_bursty,
    "diurnal": _gen_diurnal,
    "phase_structured": _gen_phase_structured,
    "adversarial_flapping": _gen_adversarial_flapping,
}

#: The trace families this build can generate, in canonical order.
TRACE_FAMILIES: Tuple[str, ...] = tuple(_FAMILY_GENERATORS)


def generate_trace(
    family: str,
    *,
    seed: int = 0,
    length: int = 200,
    bits_levels: Sequence[int] = DEFAULT_LEVELS,
    mean_cycles: int = 2000,
    **params: Any,
) -> WorkloadTrace:
    """Generate one seeded trace of the named family.

    ``bits_levels`` names the precision levels the trace draws from
    (ascending); pass the served table's mode keys so every request is
    satisfiable.  Family-specific knobs go through ``**params`` and are
    recorded in the artifact.
    """
    try:
        gen = _FAMILY_GENERATORS[family]
    except KeyError:
        raise TraceError(
            f"unknown trace family {family!r}; "
            f"choose from {list(TRACE_FAMILIES)}"
        ) from None
    levels = tuple(sorted(int(b) for b in bits_levels))
    if not levels or levels[0] <= 0:
        raise TraceError(f"bits_levels must be positive, got {bits_levels}")
    if length <= 0:
        raise TraceError(f"length must be positive, got {length}")
    if mean_cycles <= 0:
        raise TraceError(f"mean_cycles must be positive, got {mean_cycles}")
    rng = random.Random(seed)
    phases = gen(rng, length, levels, mean_cycles, params)
    recorded = {
        "length": length,
        "bits_levels": list(levels),
        "mean_cycles": mean_cycles,
        **params,
    }
    return WorkloadTrace(
        family=family, seed=seed, params=recorded, phases=tuple(phases)
    )


def generate_suite(
    *,
    seed: int = 0,
    length: int = 200,
    bits_levels: Sequence[int] = DEFAULT_LEVELS,
    mean_cycles: int = 2000,
) -> Dict[str, WorkloadTrace]:
    """One trace per family, seeds offset so families stay independent."""
    return {
        family: generate_trace(
            family,
            seed=seed + index,
            length=length,
            bits_levels=bits_levels,
            mean_cycles=mean_cycles,
        )
        for index, family in enumerate(TRACE_FAMILIES)
    }


def load_trace_file(path) -> "np.ndarray":
    """The phases of the :class:`WorkloadTrace` document at *path*.

    Returns the validated ``(N, 2)`` int64 array of ``(required_bits,
    cycles)`` rows that :func:`repro.serve.scheduler.replay_trace` takes
    as is; a document with no phases is a :class:`TraceError`.
    """
    phases = _parse_document(_read_json(path))[3]
    if not len(phases):
        raise TraceError(f"trace file {path} has no phases")
    return phases
