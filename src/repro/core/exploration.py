"""The optimization phase: exhaustive knob exploration (Fig. 4, blue part).

For every accuracy mode (bitwidth) of interest the explorer

1. runs case analysis (zeroed LSBs -> deactivated paths),
2. annotates switching activity by simulating the netlist in that mode,
3. for every supply voltage, evaluates *all* 2^NMAX back-bias assignments
   in one batched STA sweep (the feasibility filter -- the paper reports
   ~75 % of points rejected here),
4. ranks the feasible points by total (leakage + dynamic) power,

and reports the minimum-power configuration per bitwidth: the data behind
the paper's Fig. 5 Pareto curves.  Steps 1 and 2 run once for all of a
call's bitwidths, each bitwidth a lane of one compiled pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import ExplorationSettings, OperatingPoint
from repro.core.flow import ImplementedDesign
from repro.power.analysis import PowerAnalyzer
from repro.sim.activity import ActivityReport, measure_activity
from repro.sta.caseanalysis import dvas_case
from repro.sta.lattice import LatticeStaEngine, all_bb_configs


@dataclass(frozen=True)
class KnobCellResult:
    """Outcome of one slice of the (bitwidth, VDD, BB-combo) tensor.

    The unit of work the sharded engine distributes and caches; the
    serial explorer produces the same records, so merging a list of them
    (:func:`merge_cell_results`) is bit-identical either way.
    ``combo_lo`` is the cell's offset on the BB-combination axis -- a
    cell covers combos ``[combo_lo, combo_lo + evaluated)`` of the full
    configuration matrix, and the merge folds the slices of one
    (bitwidth, VDD) point back together in ascending combo order.
    """

    bits: int
    vdd: float
    evaluated: int
    feasible_count: int
    best: Optional[OperatingPoint]
    combo_lo: int = 0

    @property
    def combo_hi(self) -> int:
        """One past the last combo index this cell covers."""
        return self.combo_lo + self.evaluated

    def to_dict(self) -> Dict[str, object]:
        return {
            "bits": self.bits,
            "vdd": self.vdd,
            "evaluated": self.evaluated,
            "feasible_count": self.feasible_count,
            "best": self.best.to_dict() if self.best is not None else None,
            "combo_lo": self.combo_lo,
        }

    @staticmethod
    def from_dict(data: Dict) -> "KnobCellResult":
        best = data["best"]
        return KnobCellResult(
            bits=int(data["bits"]),
            vdd=float(data["vdd"]),
            evaluated=int(data["evaluated"]),
            feasible_count=int(data["feasible_count"]),
            best=OperatingPoint.from_dict(best) if best is not None else None,
            combo_lo=int(data.get("combo_lo", 0)),
        )


@dataclass
class ExplorationResult:
    """Everything the optimization phase produced."""

    design_name: str
    settings: ExplorationSettings
    num_domains: int
    best_per_bitwidth: Dict[int, OperatingPoint]
    points_evaluated: int
    points_feasible: int
    runtime_s: float
    # Per (bitwidth, vdd): number of feasible BB assignments.
    feasible_counts: Dict[Tuple[int, float], int] = field(default_factory=dict)
    # Per (bitwidth, vdd): the minimum-power feasible point, when any.
    best_per_knob_point: Dict[Tuple[int, float], OperatingPoint] = field(
        default_factory=dict
    )
    # Persistent-cache statistics of the run (None on the legacy path).
    cache_stats: Optional[object] = None
    # Resilience statistics (crashes/retries survived; None on the
    # legacy path, a repro.parallel.engine.ResilienceStats otherwise).
    fault_stats: Optional[object] = None

    @property
    def filtered_fraction(self) -> float:
        """Fraction of design points the STA filter rejected (paper: ~75%)."""
        if self.points_evaluated == 0:
            return 0.0
        return 1.0 - self.points_feasible / self.points_evaluated

    def pareto(self) -> List[OperatingPoint]:
        """Best operating point per bitwidth, sorted by bitwidth."""
        return [self.best_per_bitwidth[b] for b in sorted(self.best_per_bitwidth)]

    def best_at(self, bits: int, vdd: float) -> Optional[OperatingPoint]:
        """Cheapest feasible point at one (bitwidth, VDD), or None.

        Lets system-level composition (several operators sharing one
        supply) pick per-operator BB configurations at a common VDD.
        """
        return self.best_per_knob_point.get((bits, vdd))


class ExhaustiveExplorer:
    """Runs the optimization phase on one implemented design."""

    def __init__(self, design: ImplementedDesign):
        self.design = design
        self.graph = design.timing_graph()
        self.library = design.netlist.library
        self.lattice_engine = LatticeStaEngine(
            self.graph, self.library, design.domains, design.num_domains
        )
        self.power = PowerAnalyzer(design.netlist, design.parasitics)

    def _activities(
        self, bitwidths: Sequence[int], settings: ExplorationSettings
    ) -> List[ActivityReport]:
        return measure_activity(
            self.design.netlist,
            bitwidths,
            cycles=settings.activity_cycles,
            batch=settings.activity_batch,
            seed=settings.seed,
        )

    def _ladder_slacks(
        self,
        vdd_values: Sequence[float],
        configs: np.ndarray,
        case,
    ) -> List[np.ndarray]:
        """Per-combo worst setup slack for every VDD rung.

        One nets-major lattice pass sweeps the whole (VDD, combo)
        ladder; the differential wall holds it to the per-combination
        scalar loop bit for bit.
        """
        ladder = self.lattice_engine.analyze_ladder(
            self.design.constraint, vdd_values, configs=configs, case=case
        )
        return [result.worst_slack_ps for result in ladder]

    def evaluate_cells(
        self,
        bitwidths: Sequence[int],
        vdd_values: Sequence[float],
        settings: ExplorationSettings,
        configs: np.ndarray,
        combo_lo: int = 0,
    ) -> List[KnobCellResult]:
        """Evaluate one rectangular slice of the knob/combo tensor.

        One case analysis and one activity simulation for all
        *bitwidths* (each bitwidth is a lane of one compiled pass), then
        one whole-lattice STA pass over all *configs* per bitwidth,
        stacking the VDD ladder.
        *configs* may be any contiguous slice of the full configuration
        matrix, with *combo_lo* recording its offset on the combo axis.
        This is the single implementation both the serial sweep and
        every shard of the parallel engine execute, which is what makes
        their merged results bit-identical.
        """
        design = self.design
        config_tuples = [tuple(bool(x) for x in row) for row in configs]
        cells: List[KnobCellResult] = []
        cases = dvas_case(design.netlist, bitwidths)
        activities = self._activities(bitwidths, settings)
        # One CaseAnalysis at a time: each lane's analysis (and the
        # case-filtered schedules memoized on it) dies with its ladder.
        for bits, case, activity in zip(bitwidths, cases, activities):
            slacks = self._ladder_slacks(vdd_values, configs, case)
            for vdd, worst_slack in zip(vdd_values, slacks):
                feasible = worst_slack >= 0.0
                count = int(np.count_nonzero(feasible))
                point: Optional[OperatingPoint] = None
                if count:
                    powers = self.power.total_batch(
                        activity,
                        vdd,
                        design.fclk_ghz,
                        design.domains,
                        configs,
                    )
                    powers = np.where(feasible, powers, np.inf)
                    winner = int(np.argmin(powers))
                    dynamic = self.power.dynamic.total(
                        activity, vdd, design.fclk_ghz
                    )
                    point = OperatingPoint(
                        active_bits=bits,
                        vdd=vdd,
                        bb_config=config_tuples[winner],
                        total_power_w=float(powers[winner]),
                        dynamic_power_w=dynamic,
                        leakage_power_w=float(powers[winner]) - dynamic,
                        worst_slack_ps=float(worst_slack[winner]),
                    )
                cells.append(
                    KnobCellResult(
                        bits=bits,
                        vdd=vdd,
                        evaluated=len(config_tuples),
                        feasible_count=count,
                        best=point,
                        combo_lo=combo_lo,
                    )
                )
        return cells

    def run(
        self,
        settings: Optional[ExplorationSettings] = None,
        configs: Optional[np.ndarray] = None,
    ) -> ExplorationResult:
        """Explore every (BB assignment, bitwidth, VDD) combination.

        *configs* restricts the BB assignments (used by the DVAS baseline
        and by ablations); by default all 2^NMAX assignments are explored.
        When *settings* selects workers or the persistent cache, the sweep
        is delegated to the sharded engine in :mod:`repro.parallel`.
        """
        if settings is None:
            settings = ExplorationSettings()
        if settings.uses_parallel_engine:
            from repro.parallel.engine import ParallelExplorer

            return ParallelExplorer(self.design, explorer=self).run(
                settings, configs=configs
            )
        start = time.perf_counter()
        design = self.design
        if configs is None:
            configs = all_bb_configs(design.num_domains)
        cells = self.evaluate_cells(
            settings.bitwidths, settings.vdd_values, settings, configs
        )
        return merge_cell_results(
            design, settings, cells, time.perf_counter() - start
        )


def _fold_combo_slices(
    bits: int,
    vdd: float,
    slices: Dict[int, KnobCellResult],
) -> KnobCellResult:
    """Fold the combo-axis slices of one (bitwidth, VDD) point.

    Slices must tile ``[0, total)`` contiguously (the shard planner
    guarantees it; a cache serving a stale plan would not, and is caught
    here).  Feasible counts add; the best point folds with a strict
    minimum in ascending combo order, matching the unsplit ``argmin``.
    """
    ordered = [slices[lo] for lo in sorted(slices)]
    if len(ordered) == 1 and ordered[0].combo_lo == 0:
        return ordered[0]
    cursor = 0
    evaluated = 0
    feasible = 0
    best: Optional[OperatingPoint] = None
    for cell in ordered:
        if cell.combo_lo != cursor:
            raise ValueError(
                f"combo slices of ({bits} bits, {vdd} V) do not tile: "
                f"expected offset {cursor}, got {cell.combo_lo}"
            )
        cursor = cell.combo_hi
        evaluated += cell.evaluated
        feasible += cell.feasible_count
        if cell.best is not None and (
            best is None or cell.best.total_power_w < best.total_power_w
        ):
            best = cell.best
    return KnobCellResult(
        bits=bits,
        vdd=vdd,
        evaluated=evaluated,
        feasible_count=feasible,
        best=best,
        combo_lo=0,
    )


def merge_cell_results(
    design: ImplementedDesign,
    settings: ExplorationSettings,
    cells: Sequence[KnobCellResult],
    runtime_s: float,
) -> ExplorationResult:
    """Fold per-cell records into an :class:`ExplorationResult`.

    Cells are consumed in canonical knob order (``settings.bitwidths``
    major, ``settings.vdd_values`` minor) regardless of the order they
    were computed in, so ties in the per-bitwidth minimum resolve exactly
    as the serial loop resolves them (first VDD in settings order wins).
    A knob point split along the BB-combination axis (combo-tensor
    shards) folds back in ascending ``combo_lo`` order with a strict
    minimum, reproducing ``np.argmin`` over the unsplit power vector
    exactly -- ties resolve to the lowest combo index either way.
    """
    by_knob: Dict[Tuple[int, float], Dict[int, KnobCellResult]] = {}
    for cell in cells:
        by_knob.setdefault((cell.bits, cell.vdd), {})[cell.combo_lo] = cell
    best: Dict[int, OperatingPoint] = {}
    best_per_knob: Dict[Tuple[int, float], OperatingPoint] = {}
    feasible_counts: Dict[Tuple[int, float], int] = {}
    evaluated = 0
    feasible_total = 0
    for bits in settings.bitwidths:
        for vdd in settings.vdd_values:
            slices = by_knob.get((bits, vdd))
            if not slices:
                raise ValueError(
                    f"missing knob cell ({bits} bits, {vdd} V) in merge"
                )
            cell = _fold_combo_slices(bits, vdd, slices)
            evaluated += cell.evaluated
            feasible_counts[(bits, vdd)] = cell.feasible_count
            feasible_total += cell.feasible_count
            point = cell.best
            if point is None:
                continue
            best_per_knob[(bits, vdd)] = point
            incumbent = best.get(bits)
            if incumbent is None or point.total_power_w < incumbent.total_power_w:
                best[bits] = point
    return ExplorationResult(
        design_name=design.netlist.name,
        settings=settings,
        num_domains=design.num_domains,
        best_per_bitwidth=best,
        points_evaluated=evaluated,
        points_feasible=feasible_total,
        runtime_s=runtime_s,
        feasible_counts=feasible_counts,
        best_per_knob_point=best_per_knob,
    )
