"""Multi-operator composition: one die, many independent accuracy modes.

The paper's second headline advantage (Section I): the Vth knob "permits to
independently configure the bitwidth of different units in the same die
without the need of inserting level shifters".  With plain DVAS, operators
at different accuracies want different supplies, and in MOS "voltage
domains must be separated inserting level shifters, which introduce
significant power overheads" (Section II-B, citing Hu et al. [18]).

This module composes several implemented operators into a system point and
compares the two strategies:

* **Back-bias sharing** (the proposed method): a single system supply, each
  operator trimmed per-domain via BB.  No level shifters.
* **Voltage islands** (multi-VDD DVAS): each operator at its individually
  optimal supply, paying a level shifter on every I/O bit of every
  operator whose island differs from the system voltage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.core.config import OperatingPoint
from repro.core.exploration import ExplorationResult
from repro.core.flow import ImplementedDesign

try:  # typing-only import; avoids a cycle at runtime
    from typing import Protocol

    class DvasLike(Protocol):
        best_per_bitwidth: Dict[int, OperatingPoint]
except ImportError:  # pragma: no cover
    DvasLike = object


@dataclass(frozen=True)
class LevelShifterModel:
    """Electrical cost of one level shifter (per crossing signal bit).

    Dual-rail level shifters burn static current and add switching
    capacitance; defaults are typical of 28nm standard-cell shifters.
    """

    energy_cap_ff: float = 3.0
    leakage_nw: float = 25.0
    toggle_rate: float = 0.25

    def power_w(self, bits: int, vdd_high: float, fclk_ghz: float) -> float:
        """Total shifter power for *bits* crossing signals."""
        if bits <= 0:
            return 0.0
        dynamic = (
            0.5
            * self.toggle_rate
            * self.energy_cap_ff
            * 1e-15
            * vdd_high**2
            * fclk_ghz
            * 1e9
            * bits
        )
        static = self.leakage_nw * 1e-9 * bits
        return dynamic + static


@dataclass
class OperatorSlot:
    """One operator instance in the system with its accuracy requirement.

    *exploration* is the proposed method's result (shared-supply strategy);
    *dvas_exploration*, when given, is the all-FBB DVAS result used as the
    voltage-island baseline (the strategy that actually needs per-operator
    supplies).  Without it, the island baseline falls back to the proposed
    exploration, which makes the comparison conservative (islands also get
    BB trimming).
    """

    name: str
    design: ImplementedDesign
    exploration: ExplorationResult
    required_bits: int
    dvas_exploration: Optional["DvasLike"] = None

    @property
    def io_bits(self) -> int:
        """Signals crossing the operator boundary (all data ports)."""
        netlist = self.design.netlist
        total = sum(b.width for b in netlist.input_buses.values())
        total += sum(b.width for b in netlist.output_buses.values())
        return total


@dataclass
class SystemPoint:
    """One composed system configuration."""

    strategy: str
    operator_points: Dict[str, OperatingPoint]
    operator_power_w: float
    shifter_power_w: float
    shared_vdd: Optional[float]

    @property
    def total_power_w(self) -> float:
        return self.operator_power_w + self.shifter_power_w

    def describe(self) -> str:
        vdd = f" @ shared {self.shared_vdd:.1f} V" if self.shared_vdd else ""
        shifters = (
            f" + {self.shifter_power_w * 1e3:.3f} mW level shifters"
            if self.shifter_power_w > 0.0
            else ""
        )
        return (
            f"{self.strategy}{vdd}: "
            f"{self.operator_power_w * 1e3:.3f} mW operators{shifters} "
            f"= {self.total_power_w * 1e3:.3f} mW"
        )


class SocComposer:
    """Evaluates system-level strategies over a set of operator slots."""

    def __init__(
        self,
        slots: Sequence[OperatorSlot],
        system_vdd: float = 1.0,
        shifters: LevelShifterModel = LevelShifterModel(),
    ):
        if not slots:
            raise ValueError("need at least one operator")
        names = [slot.name for slot in slots]
        if len(set(names)) != len(names):
            raise ValueError("operator names must be unique")
        self.slots = list(slots)
        self.system_vdd = system_vdd
        self.shifters = shifters

    # -- strategies --------------------------------------------------------

    def shared_supply_point(self) -> SystemPoint:
        """Proposed: one supply for all operators, per-domain BB trimming.

        Chooses the shared VDD (from the first slot's explored grid) that
        minimizes total power while every operator has a feasible
        configuration at its required accuracy.
        """
        vdd_values = self.slots[0].exploration.settings.vdd_values
        best: Optional[SystemPoint] = None
        for vdd in vdd_values:
            points: Dict[str, OperatingPoint] = {}
            feasible = True
            for slot in self.slots:
                point = slot.exploration.best_at(slot.required_bits, vdd)
                if point is None:
                    feasible = False
                    break
                points[slot.name] = point
            if not feasible:
                continue
            total = sum(p.total_power_w for p in points.values())
            candidate = SystemPoint(
                strategy="shared supply + per-domain BB",
                operator_points=points,
                operator_power_w=total,
                shifter_power_w=0.0,
                shared_vdd=vdd,
            )
            if best is None or candidate.total_power_w < best.total_power_w:
                best = candidate
        if best is None:
            raise ValueError(
                "no shared supply satisfies every operator's accuracy"
            )
        return best

    def voltage_island_point(self) -> SystemPoint:
        """Baseline: per-operator VDD islands with level-shifted I/O.

        Each operator runs at its individually optimal point; operators
        whose island voltage differs from the system supply pay a level
        shifter on every I/O bit.
        """
        points: Dict[str, OperatingPoint] = {}
        shifter_power = 0.0
        for slot in self.slots:
            table = (
                slot.dvas_exploration.best_per_bitwidth
                if slot.dvas_exploration is not None
                else slot.exploration.best_per_bitwidth
            )
            point = table.get(slot.required_bits)
            if point is None:
                raise ValueError(
                    f"operator {slot.name!r} has no feasible mode at "
                    f"{slot.required_bits} bits"
                )
            points[slot.name] = point
            if abs(point.vdd - self.system_vdd) > 1e-9:
                shifter_power += self.shifters.power_w(
                    slot.io_bits,
                    max(point.vdd, self.system_vdd),
                    slot.design.fclk_ghz,
                )
        return SystemPoint(
            strategy="per-operator voltage islands + level shifters",
            operator_points=points,
            operator_power_w=sum(p.total_power_w for p in points.values()),
            shifter_power_w=shifter_power,
            shared_vdd=None,
        )

    def compare(self) -> Tuple[SystemPoint, SystemPoint, float]:
        """(shared-supply point, island point, fractional saving)."""
        shared = self.shared_supply_point()
        islands = self.voltage_island_point()
        saving = 1.0 - shared.total_power_w / islands.total_power_w
        return shared, islands, saving
