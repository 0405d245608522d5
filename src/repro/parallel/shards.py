"""Shard planning: slicing the (bitwidth, VDD) knob grid.

A shard is a rectangular slice of the knob grid that one worker
evaluates in one go, over every BB assignment.  The canonical plan is one
shard per bitwidth carrying every VDD: activity simulation (the
per-bitwidth fixed cost) then runs exactly once per shard, and with the
paper's 16 bitwidths there is ample parallelism for any sane worker
count.  ``max_vdds_per_shard`` further slices the VDD axis (very tall
VDD sweeps, or shard-boundary testing).  The BB-assignment axis never
splits: the lattice search prunes an assignment by its supersets, so a
shard must hold all of them.

Results are invariant to the plan because every plan covers each
(bitwidth, VDD) point exactly once and the merge re-orders cells
canonically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.config import ExplorationSettings


@dataclass(frozen=True)
class Shard:
    """One independently computable slice of the knob grid."""

    index: int
    bitwidths: Tuple[int, ...]
    vdd_values: Tuple[float, ...]


def plan_shards(
    settings: ExplorationSettings,
    max_vdds_per_shard: Optional[int] = None,
) -> List[Shard]:
    """Deterministic shard plan covering the settings' knob grid.

    The plan depends only on the grid's extents (never on worker
    count), so cache keys derived from shards are stable across machines
    and executions with different parallelism.
    """
    if max_vdds_per_shard is not None and max_vdds_per_shard < 1:
        raise ValueError("max_vdds_per_shard must be >= 1")
    step = max_vdds_per_shard or len(settings.vdd_values)
    vdd_groups = [
        settings.vdd_values[i:i + step]
        for i in range(0, len(settings.vdd_values), step)
    ]
    shards: List[Shard] = []
    for bits in settings.bitwidths:
        for group in vdd_groups:
            shards.append(Shard(len(shards), (bits,), tuple(group)))
    return shards
