"""Multi-Vth exploration: {RBB, NoBB, FBB} per domain.

The paper restricts itself to two Vth assignments per domain -- SVT (NoBB)
and LVT (FBB) -- but notes the methodology "can however be applied to more
than two Vth values" (Section III).  This module implements that extension
with three states: reverse back bias is useless for speed but slashes the
leakage of domains whose logic a given accuracy mode has deactivated.

The exploration cost grows from 2^NMAX to 3^NMAX configurations per
(bitwidth, VDD) point; the two-state exploration's lattice STA kernel
sweeps them in slices of :data:`LATTICE_CHUNK` under explicit per-cell
delay factors, so a 3x3 grid (3^9 = 19 683 configs) stays tractable and
NoBB/FBB-only configurations get exactly their two-state slack.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import ExplorationSettings
from repro.core.flow import ImplementedDesign
from repro.power.analysis import PowerAnalyzer
from repro.sim.activity import measure_activity
from repro.sta.caseanalysis import CaseAnalysis, dvas_case
from repro.sta.lattice import LatticeStaEngine, all_state_configs
from repro.techlib.library import Corner

#: State order used throughout: index 0 = RBB, 1 = NoBB, 2 = FBB.
STATE_NAMES = ("RBB", "NoBB", "FBB")

#: Configurations per lattice pass; bounds the (nets, combos) arrival
#: matrix (a booth16 3x3 knob point ran ~2x faster at 256 than at 2048).
LATTICE_CHUNK = 256


@dataclass(frozen=True)
class TriStatePoint:
    """Winner of one accuracy mode in the three-state exploration."""

    active_bits: int
    vdd: float
    states: Tuple[int, ...]
    total_power_w: float
    dynamic_power_w: float
    leakage_power_w: float
    worst_slack_ps: float

    def describe(self) -> str:
        code = "".join("RNF"[s] for s in self.states)
        return (
            f"{self.active_bits:2d} bits @ {self.vdd:.1f} V, "
            f"Vth[{code}]: {self.total_power_w * 1e3:.3f} mW "
            f"(slack {self.worst_slack_ps:+.0f} ps)"
        )

    def count_state(self, state: int) -> int:
        return sum(1 for s in self.states if s == state)


@dataclass
class TriStateResult:
    """Full result of a three-state exploration."""

    design_name: str
    settings: ExplorationSettings
    num_domains: int
    best_per_bitwidth: Dict[int, TriStatePoint]
    points_evaluated: int
    points_feasible: int
    runtime_s: float

    @property
    def filtered_fraction(self) -> float:
        if self.points_evaluated == 0:
            return 0.0
        return 1.0 - self.points_feasible / self.points_evaluated

    def pareto(self) -> List[TriStatePoint]:
        return [self.best_per_bitwidth[b] for b in sorted(self.best_per_bitwidth)]


class TriStateExplorer:
    """Exhaustive three-state (RBB/NoBB/FBB) exploration of one design."""

    def __init__(self, design: ImplementedDesign, max_configs: int = 100_000):
        num_configs = 3**design.num_domains
        if num_configs > max_configs:
            raise ValueError(
                f"3^{design.num_domains} = {num_configs} configurations "
                f"exceed the limit ({max_configs}); use a coarser grid or "
                "raise max_configs"
            )
        self.design = design
        self.library = design.netlist.library
        self.lattice_engine = LatticeStaEngine(
            design.timing_graph(), self.library, design.domains,
            design.num_domains,
        )
        self.power = PowerAnalyzer(design.netlist, design.parasitics)
        fbb = self.library.process.fbb_voltage
        self.state_vbbs = (-fbb, 0.0, fbb)

    def worst_slacks(
        self, configs: np.ndarray, vdd: float, case: Optional[CaseAnalysis]
    ) -> np.ndarray:
        """Worst setup slack of every state configuration at one VDD.

        *configs* holds per-domain indices into :attr:`state_vbbs`.  A
        corner that cannot switch at *vdd* (RBB at 0.6 V) has an
        infinite delay factor, so a configuration with an active path
        through such a domain reads -inf: infeasible.
        """
        design = self.design
        state_factors = np.asarray(
            [
                self.library.delay_factor(Corner(vdd, vbb))
                for vbb in self.state_vbbs
            ]
        )
        worst = np.empty(len(configs))
        for lo in range(0, len(configs), LATTICE_CHUNK):
            block = configs[lo:lo + LATTICE_CHUNK]
            worst[lo:lo + len(block)] = self.lattice_engine.analyze_factors(
                design.constraint,
                state_factors[block[:, design.domains]],
                vdd=vdd,
                case=case,
            ).worst_slack_ps
        return worst

    def run(
        self, settings: ExplorationSettings = ExplorationSettings()
    ) -> TriStateResult:
        start = time.perf_counter()
        design = self.design
        configs = all_state_configs(design.num_domains, 3)
        config_tuples = [tuple(int(x) for x in row) for row in configs]

        best: Dict[int, TriStatePoint] = {}
        evaluated = 0
        feasible_total = 0
        cases = dvas_case(design.netlist, settings.bitwidths)
        activities = measure_activity(
            design.netlist,
            settings.bitwidths,
            cycles=settings.activity_cycles,
            batch=settings.activity_batch,
            seed=settings.seed,
        )
        for bits, case, activity in zip(settings.bitwidths, cases, activities):
            for vdd in settings.vdd_values:
                slack = self.worst_slacks(configs, vdd, case)
                evaluated += len(config_tuples)
                feasible = slack >= 0.0
                count = int(np.count_nonzero(feasible))
                feasible_total += count
                if count == 0:
                    continue
                dynamic = self.power.dynamic.total(
                    activity, vdd, design.fclk_ghz
                )
                leak = self.power.leakage.total_batch_states(
                    vdd, design.domains, configs, self.state_vbbs
                )
                totals = np.where(feasible, dynamic + leak, np.inf)
                winner = int(np.argmin(totals))
                point = TriStatePoint(
                    active_bits=bits,
                    vdd=vdd,
                    states=config_tuples[winner],
                    total_power_w=float(totals[winner]),
                    dynamic_power_w=dynamic,
                    leakage_power_w=float(leak[winner]),
                    worst_slack_ps=float(slack[winner]),
                )
                incumbent = best.get(bits)
                if (
                    incumbent is None
                    or point.total_power_w < incumbent.total_power_w
                ):
                    best[bits] = point

        return TriStateResult(
            design_name=design.netlist.name,
            settings=settings,
            num_domains=design.num_domains,
            best_per_bitwidth=best,
            points_evaluated=evaluated,
            points_feasible=feasible_total,
            runtime_s=time.perf_counter() - start,
        )
