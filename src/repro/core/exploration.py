"""The optimization phase: exhaustive knob exploration (Fig. 4, blue part).

For every accuracy mode (bitwidth) of interest the explorer

1. runs case analysis (zeroed LSBs -> deactivated paths),
2. annotates switching activity by simulating the netlist in that mode,
3. for every supply voltage, classifies *all* 2^NMAX back-bias
   assignments as timing feasible or not (the feasibility filter -- the
   paper reports ~75 % of points rejected here),
4. ranks the feasible points by total (leakage + dynamic) power,

and reports the minimum-power configuration per bitwidth: the data behind
the paper's Fig. 5 Pareto curves.  Steps 1 and 2 run once for all of a
call's bitwidths, each bitwidth a lane of one compiled pass.

Step 3 searches the lattice instead of sweeping it.  Forward back bias
only shortens delays, so the feasible assignments of a (bitwidth, VDD)
point form an up-set: an assignment with an infeasible immediate
superset (one more domain boosted) is infeasible itself.  The walk goes
top-down by popcount, one batched STA pass per level with every VDD
rung stacked, and sends only the assignments with no immediate superset
known to be infeasible: the feasible ones plus the maximal infeasible
ones.  Every feasible assignment still gets its exact slack, so counts,
winners and the winner's slack equal the exhaustive sweep's.
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
    """Outcome of one (bitwidth, VDD) point over every BB assignment.

    The unit of work the sharded engine distributes and caches; the
    serial explorer produces the same records, so merging a list of them
    (:func:`merge_cell_results`) is bit-identical either way.
    """

    bits: int
    vdd: float
    evaluated: int
    feasible_count: int
    best: Optional[OperatingPoint]

    def to_dict(self) -> Dict[str, object]:
        return {
            "bits": self.bits,
            "vdd": self.vdd,
            "evaluated": self.evaluated,
            "feasible_count": self.feasible_count,
            "best": self.best.to_dict() if self.best is not None else None,
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
        """Per-combo worst setup slack for every VDD rung, by search.

        Walks the assignments top-down by popcount.  Each level sends
        every rung's candidates -- the assignments with no immediate
        superset known to be infeasible -- through one stacked lattice
        pass, and marks the rest infeasible without STA.  A superset
        missing from a restricted *configs* gives no evidence.  When the
        engine cannot vouch for monotonicity at these rungs
        (:meth:`~repro.sta.lattice.LatticeStaEngine.bias_monotone`), no
        superset gives evidence and every assignment goes to STA.

        Lanes that were not sent read ``-inf``; only ``>= 0`` may be
        asked of them.  Every lane sent is bit-identical to the full
        lattice pass, which ``tests/oracles/sta.py`` holds it to.
        """
        configs = np.asarray(configs, dtype=bool)
        num_combos, num_domains = configs.shape
        # superset[k, d]: the row of configs holding row k with domain d
        # boosted, or num_combos (a never-infeasible sentinel column)
        # when d is already boosted or that row is absent.
        superset = np.full((num_combos, num_domains), num_combos)
        if self.lattice_engine.bias_monotone(vdd_values):
            codes = configs @ (1 << np.arange(num_domains, dtype=np.int64))
            order = np.argsort(codes, kind="stable")
            boosted = codes[:, None] | (1 << np.arange(num_domains))
            rows = np.append(order, num_combos)[
                np.searchsorted(codes[order], boosted)
            ]
            hit = (np.append(codes, -1)[rows] == boosted) & ~configs
            superset[hit] = rows[hit]
        slacks = np.full((len(vdd_values), num_combos), -np.inf)
        infeasible = np.zeros((len(vdd_values), num_combos + 1), dtype=bool)
        popcount = configs.sum(axis=1)
        for level in range(num_domains, -1, -1):
            members = np.flatnonzero(popcount == level)
            pruned = infeasible[:, superset[members]].any(axis=2)
            infeasible[:, members] = pruned
            sent = [members[~rung] for rung in pruned]
            if not any(len(rows) for rows in sent):
                continue
            ladder = self.lattice_engine.analyze_ladder(
                self.design.constraint,
                vdd_values,
                configs=[configs[rows] for rows in sent],
                case=case,
            )
            for rung, (rows, result) in enumerate(zip(sent, ladder)):
                slacks[rung, rows] = result.worst_slack_ps
                infeasible[rung, rows] = ~result.feasible
        return list(slacks)

    def evaluate_cells(
        self,
        bitwidths: Sequence[int],
        vdd_values: Sequence[float],
        settings: ExplorationSettings,
        configs: np.ndarray,
    ) -> List[KnobCellResult]:
        """Evaluate every *configs* row at every (bitwidth, VDD) point.

        One case analysis and one activity simulation for all
        *bitwidths* (each bitwidth is a lane of one compiled pass), then
        one lattice search per bitwidth, stacking the VDD ladder.
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
    """
    by_knob = {(cell.bits, cell.vdd): cell for cell in cells}
    best: Dict[int, OperatingPoint] = {}
    best_per_knob: Dict[Tuple[int, float], OperatingPoint] = {}
    feasible_counts: Dict[Tuple[int, float], int] = {}
    evaluated = 0
    feasible_total = 0
    for bits in settings.bitwidths:
        for vdd in settings.vdd_values:
            cell = by_knob.get((bits, vdd))
            if cell is None:
                raise ValueError(
                    f"missing knob cell ({bits} bits, {vdd} V) in merge"
                )
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
