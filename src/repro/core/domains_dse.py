"""Domain-configuration design-space exploration.

The paper's conclusion lists "an investigation of the optimal number and
configuration of domains" as future work, noting that "since our method is
automated, the design space can be explored exhaustively, at least for a
small number of groups (<= 10)".  This module does exactly that: implement
the design for every candidate grid, run the optimization phase, and rank
the configurations by average power over the accuracy modes of interest
under an area-overhead budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import ExplorationSettings
from repro.core.exploration import ExhaustiveExplorer, ExplorationResult
from repro.core.flow import ImplementedDesign, implement_with_domains
from repro.netlist.netlist import Netlist
from repro.pnr.grid import GridPartition
from repro.sta.constraints import ClockConstraint
from repro.techlib.library import Library

#: The candidate grid shapes of the paper's Fig. 6 plus the trivial 1x1.
DEFAULT_CANDIDATES: Tuple[Tuple[int, int], ...] = (
    (1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2), (2, 3), (3, 2), (3, 3),
)


@dataclass
class GridCandidate:
    """One evaluated grid configuration."""

    partition: GridPartition
    design: ImplementedDesign
    exploration: ExplorationResult
    mean_power_w: float
    covered_bitwidths: int

    @property
    def area_overhead(self) -> float:
        return self.design.area_overhead

    def describe(self) -> str:
        return (
            f"{self.partition.label}: mean {self.mean_power_w * 1e3:.3f} mW "
            f"over {self.covered_bitwidths} modes, "
            f"overhead {self.area_overhead * 100:.1f}%"
        )


@dataclass
class DomainDseResult:
    """Ranked outcome of the grid sweep."""

    candidates: List[GridCandidate]
    area_budget: Optional[float]
    runtime_s: float

    def within_budget(self) -> List[GridCandidate]:
        if self.area_budget is None:
            return list(self.candidates)
        return [
            c for c in self.candidates if c.area_overhead <= self.area_budget
        ]

    def best(self) -> GridCandidate:
        """Lowest mean power among budget-compliant, full-coverage grids."""
        pool = self.within_budget()
        if not pool:
            raise ValueError("no candidate satisfies the area budget")
        full = max(c.covered_bitwidths for c in pool)
        pool = [c for c in pool if c.covered_bitwidths == full]
        return min(pool, key=lambda c: c.mean_power_w)

    def format_text(self) -> str:
        lines = [
            f"{'grid':>5s} {'mean power':>11s} {'overhead':>9s} "
            f"{'modes':>6s} {'in budget':>10s}"
        ]
        for candidate in self.candidates:
            in_budget = (
                self.area_budget is None
                or candidate.area_overhead <= self.area_budget
            )
            lines.append(
                f"{candidate.partition.label:>5s} "
                f"{candidate.mean_power_w * 1e3:9.3f}mW "
                f"{candidate.area_overhead * 100:8.1f}% "
                f"{candidate.covered_bitwidths:6d} "
                f"{'yes' if in_budget else 'no':>10s}"
            )
        return "\n".join(lines)


def explore_domain_configurations(
    netlist_factory: Callable[[], Netlist],
    library: Library,
    constraint: ClockConstraint,
    candidates: Sequence[Tuple[int, int]] = DEFAULT_CANDIDATES,
    settings: Optional[ExplorationSettings] = None,
    bitwidths_of_interest: Optional[Sequence[int]] = None,
    area_budget: Optional[float] = None,
    max_domains: int = 10,
) -> DomainDseResult:
    """Implement + explore every candidate grid and rank them.

    *bitwidths_of_interest* selects the accuracy modes averaged in the
    score (default: all of ``settings.bitwidths``); *area_budget* is a
    fractional overhead cap (e.g. 0.2 for "at most 20% bigger").
    Candidates with more than *max_domains* domains are skipped, matching
    the paper's exhaustive-up-to-10-groups remark.
    """
    if settings is None:
        settings = ExplorationSettings()
    start = time.perf_counter()
    interest = tuple(bitwidths_of_interest or settings.bitwidths)
    evaluated: List[GridCandidate] = []
    for rows, cols in candidates:
        partition = GridPartition(rows, cols)
        if partition.num_domains > max_domains:
            continue
        design = implement_with_domains(
            netlist_factory, library, partition, constraint=constraint
        )
        exploration = ExhaustiveExplorer(design).run(settings)
        covered = [
            exploration.best_per_bitwidth[b]
            for b in interest
            if b in exploration.best_per_bitwidth
        ]
        mean_power = (
            float(np.mean([p.total_power_w for p in covered]))
            if covered
            else float("inf")
        )
        evaluated.append(
            GridCandidate(
                partition=partition,
                design=design,
                exploration=exploration,
                mean_power_w=mean_power,
                covered_bitwidths=len(covered),
            )
        )
    evaluated.sort(key=lambda c: c.mean_power_w)
    return DomainDseResult(
        candidates=evaluated,
        area_budget=area_budget,
        runtime_s=time.perf_counter() - start,
    )
