"""Exploration settings and operating points."""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: ``workers`` value requesting auto-detection (``REPRO_WORKERS`` env var,
#: falling back to the machine's CPU count).
AUTO_WORKERS = -1


def resolve_env_count(
    requested: int,
    env_var: str,
    auto: int = AUTO_WORKERS,
    default: Optional[int] = None,
) -> int:
    """Resolve a process-count knob against an environment override.

    The one worker-count policy shared by the sharded exploration engine
    (``$REPRO_WORKERS``) and the fleet serving tier
    (``$REPRO_FLEET_WORKERS``): a *requested* value equal to *auto*
    consults ``$env_var`` first and falls back to *default* (the CPU
    count when ``None``); explicit values are clamped to >= 1.  A
    non-integer override raises a chained :class:`ValueError` naming the
    variable.
    """
    if requested == auto:
        env = os.environ.get(env_var)
        if env:
            try:
                return max(1, int(env))
            except ValueError as exc:
                raise ValueError(
                    f"${env_var} must be an integer, got {env!r}"
                ) from exc
        if default is not None:
            return max(1, default)
        return max(1, os.cpu_count() or 1)
    return max(1, requested)


@dataclass(frozen=True)
class ExplorationSettings:
    """Knob ranges of the optimization phase.

    Defaults mirror the paper's experimental setup: bitwidths 1..16, five
    supply voltages from 1.0 V down to 0.6 V in 0.1 V steps, switching
    activity annotated from random stimulus.

    ``workers``/``cache`` select the sharded execution engine
    (:mod:`repro.parallel`): ``workers=0`` (default) keeps the legacy
    in-process serial sweep, ``workers=1`` runs the sharded engine
    serially (debuggable, bit-identical), ``workers>1`` fans shards out
    over a process pool and :data:`AUTO_WORKERS` auto-detects the count.
    ``cache`` persists per-shard results under ``cache_dir`` (default
    ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``), which also provides
    checkpoint/resume of interrupted sweeps.  Neither knob may change the
    numbers: results are bit-identical to the serial explorer.
    """

    bitwidths: Tuple[int, ...] = tuple(range(1, 17))
    vdd_values: Tuple[float, ...] = (1.0, 0.9, 0.8, 0.7, 0.6)
    activity_cycles: int = 40
    activity_batch: int = 48
    seed: int = 2017
    workers: int = 0
    cache: bool = False
    cache_dir: Optional[str] = None

    def __post_init__(self):
        if not self.bitwidths:
            raise ValueError("need at least one bitwidth")
        if any(b < 1 for b in self.bitwidths):
            raise ValueError("bitwidths must be >= 1")
        if not self.vdd_values:
            raise ValueError("need at least one supply voltage")
        if any(v <= 0.0 for v in self.vdd_values):
            raise ValueError("supply voltages must be positive")
        if self.workers < AUTO_WORKERS:
            raise ValueError(
                f"workers must be >= {AUTO_WORKERS} (got {self.workers})"
            )

    @property
    def num_knob_points(self) -> int:
        """Bitwidth x VDD grid size (BB assignments multiply on top)."""
        return len(self.bitwidths) * len(self.vdd_values)

    @property
    def uses_parallel_engine(self) -> bool:
        """Whether run() should route through :mod:`repro.parallel`."""
        return self.workers != 0 or self.cache

    def semantic_fields(self) -> Dict[str, object]:
        """The fields that determine exploration *numbers*.

        Execution knobs (workers, cache, cache_dir) are excluded: they
        change how results are computed, never what they are, so cached
        shards stay valid across worker counts and cache locations.
        """
        return {
            "activity_cycles": self.activity_cycles,
            "activity_batch": self.activity_batch,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class OperatingPoint:
    """One fully specified runtime configuration and its analysis results.

    ``bb_config`` is the per-domain FBB flags (length = number of Vth
    domains; a design without domains uses a single entry).
    """

    active_bits: int
    vdd: float
    bb_config: Tuple[bool, ...]
    total_power_w: float
    dynamic_power_w: float
    leakage_power_w: float
    worst_slack_ps: float

    @property
    def feasible(self) -> bool:
        return self.worst_slack_ps >= 0.0

    @property
    def num_boosted_domains(self) -> int:
        return sum(self.bb_config)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (used by result files and the shard cache)."""
        return {
            "active_bits": self.active_bits,
            "vdd": self.vdd,
            "bb_config": list(self.bb_config),
            "total_power_w": self.total_power_w,
            "dynamic_power_w": self.dynamic_power_w,
            "leakage_power_w": self.leakage_power_w,
            "worst_slack_ps": self.worst_slack_ps,
        }

    @staticmethod
    def from_dict(data: Dict) -> "OperatingPoint":
        return OperatingPoint(
            active_bits=int(data["active_bits"]),
            vdd=float(data["vdd"]),
            bb_config=tuple(bool(x) for x in data["bb_config"]),
            total_power_w=float(data["total_power_w"]),
            dynamic_power_w=float(data["dynamic_power_w"]),
            leakage_power_w=float(data["leakage_power_w"]),
            worst_slack_ps=float(data["worst_slack_ps"]),
        )

    def describe(self) -> str:
        bb = "".join("F" if f else "-" for f in self.bb_config)
        return (
            f"{self.active_bits:2d} bits @ {self.vdd:.1f} V, BB[{bb}]: "
            f"{self.total_power_w * 1e3:.3f} mW "
            f"(slack {self.worst_slack_ps:+.0f} ps)"
        )
