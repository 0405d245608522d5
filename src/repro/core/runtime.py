"""Runtime accuracy control: using the mode table in a live system.

The paper produces, per operator, a table mapping each accuracy mode to its
cheapest knob configuration (per-domain back bias + global VDD), and leaves
the runtime selection to the application.  This module models that runtime:

* :class:`BiasGeneratorModel` -- the paper's Section III hardware sketch
  ("two DC-DC converters (e.g., charge pumps) can be used to generate FBB
  voltages ... and some power switches to selectively connect the Well pins
  of each domain"): switching a domain's well costs the energy to slew its
  well capacitance and takes a settling time, and re-targeting the supply
  rail costs the energy to slew the rail/decap capacitance of the whole
  operator through the regulator.
* :class:`AccuracyController` -- the exploration's mode table with its
  per-mode selection and transition costing, compiled on demand into a
  :class:`repro.serve.table.ModeTable` that
  :func:`repro.serve.scheduler.replay_trace` replays a workload trace
  (phases of required accuracy) against, reporting the
  adaptive-vs-static energy picture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import OperatingPoint
from repro.core.exploration import ExplorationResult
from repro.core.flow import ImplementedDesign


@dataclass(frozen=True)
class BiasGeneratorModel:
    """First-order electrical model of the bias/supply generation hardware.

    ``well_cap_ff_per_um2`` is the junction/wiring capacitance each domain
    presents to its bias rail per unit of domain area; slewing a well from
    bias ``a`` to ``b`` costs ``C_well * (a - b)^2`` through the charge
    pump (efficiency folded in) and takes ``transition_time_ns`` before
    the domain may be timed at the new corner.

    Re-targeting VDD is *not* free either: the operator's supply rail and
    decap present ``rail_cap_ff_per_um2`` per unit of total area, slewed
    through the regulator at ``regulator_efficiency``, settling in
    ``vdd_transition_time_ns``.  Well and rail slews proceed in parallel,
    so a combined transition settles in the slower of the two.
    """

    transition_time_ns: float = 100.0
    well_cap_ff_per_um2: float = 0.08
    pump_efficiency: float = 0.5
    vdd_transition_time_ns: float = 50.0
    rail_cap_ff_per_um2: float = 0.2
    regulator_efficiency: float = 0.9

    def transition_energy_j(
        self, domain_area_um2: float, vbb_from: float, vbb_to: float
    ) -> float:
        if vbb_from == vbb_to:
            return 0.0
        cap_f = domain_area_um2 * self.well_cap_ff_per_um2 * 1e-15
        swing = abs(vbb_from - vbb_to)
        return cap_f * swing**2 / self.pump_efficiency

    def rail_transition_energy_j(
        self, total_area_um2: float, vdd_from: float, vdd_to: float
    ) -> float:
        """Energy to slew the supply rail of the whole operator."""
        if vdd_from == vdd_to:
            return 0.0
        cap_f = total_area_um2 * self.rail_cap_ff_per_um2 * 1e-15
        swing = abs(vdd_from - vdd_to)
        return cap_f * swing**2 / self.regulator_efficiency


def measure_domain_areas(design: ImplementedDesign) -> np.ndarray:
    """Total cell area per Vth domain (the load each well presents)."""
    areas = np.zeros(design.num_domains)
    domains = design.domains
    for cell, domain in zip(design.netlist.cells, domains):
        areas[int(domain)] += cell.area_um2
    return areas


def pairwise_transition_cost(
    old: OperatingPoint,
    new: OperatingPoint,
    domain_areas: Sequence[float],
    generator: BiasGeneratorModel,
    fbb_voltage: float,
) -> Tuple[float, float]:
    """(energy J, time ns) to move the hardware between two operating points.

    The single costing routine shared by the offline controller and the
    compiled :class:`repro.serve.table.ModeTable` transition matrix --
    keeping both bit-identical is what makes the serve scheduler's greedy
    replay reproduce the closed-form accounting exactly.
    """
    state_vbb = {False: 0.0, True: fbb_voltage}
    energy = 0.0
    settle_ns = 0.0
    if old.bb_config != new.bb_config:
        for domain, (before, after) in enumerate(
            zip(old.bb_config, new.bb_config)
        ):
            energy += generator.transition_energy_j(
                float(domain_areas[domain]),
                state_vbb[before],
                state_vbb[after],
            )
        settle_ns = generator.transition_time_ns
    if old.vdd != new.vdd:
        total_area = float(sum(domain_areas))
        energy += generator.rail_transition_energy_j(
            total_area, old.vdd, new.vdd
        )
        settle_ns = max(settle_ns, generator.vdd_transition_time_ns)
    return (energy, settle_ns)


class WorkloadPhase(NamedTuple):
    """A stretch of execution with a fixed accuracy requirement.

    A plain ``(required_bits, cycles)`` pair, so a list of phases, a
    list of pairs and a ``(N, 2)`` integer array are the same workload
    to :func:`repro.serve.scheduler.replay_trace`.
    """

    required_bits: int
    cycles: int


@dataclass
class RuntimeReport:
    """Outcome of replaying a workload through the serve scheduler."""

    phases: int
    total_cycles: int
    compute_energy_j: float
    transition_energy_j: float
    transition_time_ns: float
    mode_switches: int
    static_energy_j: float

    @property
    def total_energy_j(self) -> float:
        return self.compute_energy_j + self.transition_energy_j

    @property
    def transition_overhead(self) -> float:
        total = self.total_energy_j
        return self.transition_energy_j / total if total > 0.0 else 0.0

    @property
    def adaptive_saving(self) -> float:
        """Energy saved vs running every phase at maximum accuracy."""
        if self.static_energy_j <= 0.0:
            return 0.0
        return 1.0 - self.total_energy_j / self.static_energy_j

    def summary(self) -> str:
        return (
            f"{self.phases} phases / {self.total_cycles} cycles: "
            f"{self.total_energy_j * 1e9:.2f} nJ adaptive vs "
            f"{self.static_energy_j * 1e9:.2f} nJ static "
            f"({self.adaptive_saving * 100:.1f}% saved; "
            f"{self.mode_switches} mode switches costing "
            f"{self.transition_overhead * 100:.2f}% of energy)"
        )


class AccuracyController:
    """Drives one implemented operator from its exploration mode table."""

    def __init__(
        self,
        design: ImplementedDesign,
        exploration: ExplorationResult,
        generator: BiasGeneratorModel = BiasGeneratorModel(),
    ):
        if not exploration.best_per_bitwidth:
            raise ValueError("exploration found no feasible operating points")
        self.design = design
        self.exploration = exploration
        self.generator = generator
        self.mode_table: Dict[int, OperatingPoint] = dict(
            exploration.best_per_bitwidth
        )
        self._domain_areas = measure_domain_areas(design)
        self._fbb_voltage = design.netlist.library.process.fbb_voltage
        self._compiled_table = None

    # -- mode selection ------------------------------------------------------

    def mode_for(self, required_bits: int) -> OperatingPoint:
        """Cheapest mode offering at least *required_bits* of accuracy."""
        candidates = [
            point
            for bits, point in self.mode_table.items()
            if bits >= required_bits
        ]
        if not candidates:
            raise ValueError(
                f"no feasible mode provides {required_bits} bits "
                f"(table covers up to {max(self.mode_table)})"
            )
        return min(candidates, key=lambda p: p.total_power_w)

    def transition_cost(
        self, old: Optional[OperatingPoint], new: OperatingPoint
    ) -> Tuple[float, float]:
        """(energy J, time ns) to move the hardware between two modes.

        A ``None`` *old* models power-on into the first mode: the rails
        are assumed pre-charged, so it costs nothing.  A VDD-only change
        (identical back-bias assignment at a different supply) pays the
        rail slew -- it is *not* free.
        """
        if old is None:
            return (0.0, 0.0)
        return pairwise_transition_cost(
            old, new, self._domain_areas, self.generator, self._fbb_voltage
        )

    def compiled(self):
        """The exploration compiled as a serve-layer ModeTable (cached)."""
        if self._compiled_table is None:
            from repro.serve.table import compile_mode_table

            self._compiled_table = compile_mode_table(
                self.design, self.exploration, self.generator
            )
        return self._compiled_table
