"""Compiled, versioned mode-table artifact for the serving subsystem.

Exploration produces an :class:`~repro.core.exploration.ExplorationResult`;
serving wants something leaner and self-contained: the per-bitwidth
operating points, the physical metadata the bias hardware model needs
(per-domain well areas, FBB voltage, clock), and -- precomputed between
every pair of modes -- the transition energy/settling cost, including
VDD-rail re-targeting.  A :class:`ModeTable` freezes all of that into a
JSON-serializable artifact loadable without re-running the flow, so a
server process never imports the implementation stack.

The transition matrix is computed with the *same* routine the offline
:class:`~repro.core.runtime.AccuracyController` costs transitions with
(:func:`repro.core.runtime.pairwise_transition_cost`), which is what makes
the serve scheduler's greedy replay bit-identical to the closed-form
accounting.

A table may also carry per-mode **slack margins**
(:class:`ModeMargin`) computed offline by Monte-Carlo timing
(:func:`compile_margins` over
:class:`repro.sta.variation.MonteCarloTiming`): the n-sigma worst-case
slack of each mode at its exploration corner.  The serve-side margin
guard (:mod:`repro.serve.guard`) compares them against runtime margin
erosion and falls back to a safer mode before timing is violated.
Tables without margins serve too; the guard simply has nothing to check
and disables itself with a warning.

A table may additionally embed a **frozen learned
mode-selection policy** (:class:`LearnedPolicySpec`): the bucketized
decision tensor a fitted-Q trainer (:mod:`repro.serve.learned`) produced
offline from a workload-trace suite.  The spec is pure data -- bucket
edges, EWMA constants and mode-key decisions -- so loading it never
imports the training stack, and its accuracy-invariant safety is
re-validated structurally on every load.
"""

from __future__ import annotations

import json

import numpy as np

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.core.config import OperatingPoint
from repro.core.exploration import ExplorationResult
from repro.core.flow import ImplementedDesign
from repro.core.runtime import (
    BiasGeneratorModel,
    measure_domain_areas,
    pairwise_transition_cost,
)
from repro.serve.errors import ServeError

#: Schema of the serialized artifact.  Bump on any layout change; loaders
#: reject a mismatch rather than guess.  Schema 2 added the optional
#: per-mode margin block; schema 3 the optional frozen learned-policy
#: block.
MODE_TABLE_SCHEMA = 3

#: The ``kind`` every serialized mode table carries.
MODE_TABLE_KIND = "repro-mode-table"

#: Artifact-parse instrumentation.  ``json`` counts full-table dict
#: parses (:meth:`ModeTable.from_dict`), ``shared`` counts zero-copy
#: shared-memory attaches (:meth:`SharedModeTable.attach`).  The fleet
#: differential suite reads these per worker process to prove that
#: workers map the one exported segment instead of re-parsing JSON.
PARSE_COUNTERS: Dict[str, int] = {"json": 0, "shared": 0}


def parse_counters() -> Dict[str, int]:
    """Snapshot of this process's table-parse instrumentation."""
    return dict(PARSE_COUNTERS)


@dataclass(frozen=True)
class ModeMargin:
    """Sign-off slack margin of one compiled mode under Vth variation.

    ``guarded_slack_ps`` is the (1 - target_yield) quantile of the
    Monte-Carlo worst-slack distribution: the slack the n-sigma-worst
    fabricated instance still has.  The margin guard serves a mode only
    while runtime erosion has not consumed that slack.
    """

    guarded_slack_ps: float
    mean_slack_ps: float
    sigma_slack_ps: float
    timing_yield: float
    target_yield: float
    samples: int

    def __post_init__(self):
        if not 0.0 < self.target_yield < 1.0:
            raise ValueError("target_yield must be in (0, 1)")
        if not 0.0 <= self.timing_yield <= 1.0:
            raise ValueError("timing_yield must be in [0, 1]")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")

    def to_dict(self) -> Dict:
        return {
            "guarded_slack_ps": self.guarded_slack_ps,
            "mean_slack_ps": self.mean_slack_ps,
            "sigma_slack_ps": self.sigma_slack_ps,
            "timing_yield": self.timing_yield,
            "target_yield": self.target_yield,
            "samples": self.samples,
        }

    @staticmethod
    def from_dict(data: Dict) -> "ModeMargin":
        return ModeMargin(
            guarded_slack_ps=float(data["guarded_slack_ps"]),
            mean_slack_ps=float(data["mean_slack_ps"]),
            sigma_slack_ps=float(data["sigma_slack_ps"]),
            timing_yield=float(data["timing_yield"]),
            target_yield=float(data["target_yield"]),
            samples=int(data["samples"]),
        )


@dataclass(frozen=True)
class LearnedPolicySpec:
    """A frozen fitted-Q mode-selection policy, embedded in the artifact.

    The policy is a pure lookup: the serving context's current mode and
    its demand-level, demand-volatility and pool-occupancy features
    (bucketized against the recorded edges) index
    ``decisions[mode][level][vol][occ][bits]``, which names the mode key
    to serve.  ``mode_states`` records the mode keys the leading axis is
    indexed by -- the table's compiled mode order, re-checked on load --
    and the final extra row stands for the power-on state (no current
    mode).  The EWMA smoothing constants the features
    were *trained* with travel in the spec; the serve-side policy
    refuses to run if they differ from the constants the scheduler folds
    with, so trained and served features can never drift apart.

    ``decisions`` is indexed by the raw requested bits (0..max_bits); the
    trainer guarantees -- and :meth:`validate_for` re-checks on load --
    that every entry names a compiled mode offering at least the indexed
    bits, which is what makes the accuracy invariant hold by
    construction for the frozen policy.
    """

    level_edges: Tuple[float, ...]
    volatility_edges: Tuple[float, ...]
    occupancy_edges: Tuple[float, ...]
    mode_states: Tuple[int, ...]
    demand_alpha: float
    volatility_alpha: float
    max_bits: int
    decisions: Tuple[
        Tuple[Tuple[Tuple[Tuple[int, ...], ...], ...], ...], ...
    ]
    training: Dict[str, Any] = field(default_factory=dict, compare=False)

    def __post_init__(self):
        for label, edges in (
            ("level_edges", self.level_edges),
            ("volatility_edges", self.volatility_edges),
            ("occupancy_edges", self.occupancy_edges),
        ):
            if list(edges) != sorted(edges):
                raise ValueError(f"{label} must be ascending, got {edges}")
        if self.max_bits <= 0:
            raise ValueError("max_bits must be positive")
        if not self.mode_states:
            raise ValueError("mode_states must name at least one mode")
        shape = (
            len(self.mode_states) + 1,
            len(self.level_edges) + 1,
            len(self.volatility_edges) + 1,
            len(self.occupancy_edges) + 1,
            self.max_bits + 1,
        )
        if len(self.decisions) != shape[0] or any(
            len(cube) != shape[1]
            or any(
                len(plane) != shape[2]
                or any(
                    len(row) != shape[3]
                    or any(len(cell) != shape[4] for cell in row)
                    for row in plane
                )
                for plane in cube
            )
            for cube in self.decisions
        ):
            raise ValueError(
                f"decisions tensor must have shape {shape} "
                "(mode states + power-on row, one bucket more than each "
                "edge list, bits 0..max_bits)"
            )

    @property
    def num_states(self) -> int:
        return (
            (len(self.mode_states) + 1)
            * (len(self.level_edges) + 1)
            * (len(self.volatility_edges) + 1)
            * (len(self.occupancy_edges) + 1)
            * (self.max_bits + 1)
        )

    def validate_for(self, modes: Mapping[int, "OperatingPoint"]) -> None:
        """Check mode-state alignment and that every decision covers."""
        if tuple(modes) != self.mode_states:
            raise ValueError(
                f"learned policy was trained over mode states "
                f"{self.mode_states} but the table compiles "
                f"{tuple(modes)}; retrain the policy"
            )
        for cube in self.decisions:
            for plane in cube:
                for row in plane:
                    for cell in row:
                        for bits, key in enumerate(cell):
                            point = modes.get(key)
                            if point is None:
                                raise ValueError(
                                    f"learned policy decides unknown "
                                    f"mode {key} for {bits} bits"
                                )
                            if point.active_bits < bits:
                                raise ValueError(
                                    f"learned policy violates the "
                                    f"accuracy invariant: mode {key} "
                                    f"({point.active_bits} bits) decided "
                                    f"for {bits}-bit requests"
                                )

    def to_dict(self) -> Dict:
        return {
            "level_edges": list(self.level_edges),
            "volatility_edges": list(self.volatility_edges),
            "occupancy_edges": list(self.occupancy_edges),
            "mode_states": list(self.mode_states),
            "demand_alpha": self.demand_alpha,
            "volatility_alpha": self.volatility_alpha,
            "max_bits": self.max_bits,
            "decisions": [
                [
                    [[list(cell) for cell in row] for row in plane]
                    for plane in cube
                ]
                for cube in self.decisions
            ],
            "training": dict(self.training),
        }

    @staticmethod
    def from_dict(data: Dict) -> "LearnedPolicySpec":
        return LearnedPolicySpec(
            level_edges=tuple(float(e) for e in data["level_edges"]),
            volatility_edges=tuple(
                float(e) for e in data["volatility_edges"]
            ),
            occupancy_edges=tuple(
                float(e) for e in data["occupancy_edges"]
            ),
            mode_states=tuple(int(k) for k in data["mode_states"]),
            demand_alpha=float(data["demand_alpha"]),
            volatility_alpha=float(data["volatility_alpha"]),
            max_bits=int(data["max_bits"]),
            decisions=tuple(
                tuple(
                    tuple(
                        tuple(tuple(int(k) for k in cell) for cell in row)
                        for row in plane
                    )
                    for plane in cube
                )
                for cube in data["decisions"]
            ),
            training=dict(data.get("training", {})),
        )


@dataclass(frozen=True)
class TransitionCost:
    """Cost of moving the hardware between two compiled modes."""

    energy_j: float
    settle_ns: float

    @property
    def is_free(self) -> bool:
        return self.energy_j == 0.0 and self.settle_ns == 0.0


@dataclass(frozen=True)
class ModeTable:
    """A compiled accuracy-mode table for one operator.

    ``modes`` preserves the exploration's per-bitwidth insertion order so
    power ties in :meth:`mode_key_for` break exactly as the legacy
    controller breaks them.  ``transitions`` covers every ordered pair of
    mode keys (diagonal included, always free).
    """

    design_name: str
    fclk_ghz: float
    num_domains: int
    domain_areas_um2: Tuple[float, ...]
    fbb_voltage: float
    generator: BiasGeneratorModel
    modes: Mapping[int, OperatingPoint]
    transitions: Mapping[Tuple[int, int], TransitionCost] = field(repr=False)
    #: Optional per-mode n-sigma slack margins.  ``None`` means
    #: "compiled without margins": the table serves, the guard disables.
    margins: Optional[Mapping[int, ModeMargin]] = None
    #: Optional frozen learned mode-selection policy.
    #: ``None`` means "no policy trained": ``--policy learned`` refuses.
    learned: Optional[LearnedPolicySpec] = None

    def __post_init__(self):
        if not self.modes:
            raise ValueError("mode table has no modes")
        for bits, point in self.modes.items():
            if point.active_bits != bits:
                raise ValueError(
                    f"mode key {bits} maps to a {point.active_bits}-bit point"
                )
        for a in self.modes:
            for b in self.modes:
                if (a, b) not in self.transitions:
                    raise ValueError(
                        f"transition matrix is missing the ({a}, {b}) pair"
                    )
        if self.margins is not None and set(self.margins) != set(self.modes):
            raise ValueError(
                "margin block must cover exactly the compiled modes "
                f"(modes {sorted(self.modes)}, margins "
                f"{sorted(self.margins)})"
            )
        if self.learned is not None:
            if self.learned.max_bits != max(self.modes):
                raise ValueError(
                    f"learned policy covers bits up to "
                    f"{self.learned.max_bits} but the table serves up to "
                    f"{max(self.modes)}"
                )
            self.learned.validate_for(self.modes)

    # -- queries -------------------------------------------------------------

    @property
    def bitwidths(self) -> List[int]:
        return sorted(self.modes)

    @property
    def max_bits(self) -> int:
        return max(self.modes)

    @property
    def static_mode(self) -> OperatingPoint:
        """The always-sufficient fallback: the maximum-accuracy mode."""
        return self.modes[self.max_bits]

    @property
    def total_area_um2(self) -> float:
        return float(sum(self.domain_areas_um2))

    @property
    def has_margins(self) -> bool:
        return self.margins is not None

    @property
    def has_learned_policy(self) -> bool:
        return self.learned is not None

    def with_learned(self, spec: Optional[LearnedPolicySpec]) -> "ModeTable":
        """A copy of this table with the learned-policy block replaced."""
        import dataclasses

        return dataclasses.replace(self, learned=spec)

    def margin_for(self, bits: int) -> ModeMargin:
        if self.margins is None:
            raise ServeError(
                "table was compiled without margins; re-run "
                "`repro compile-table --margins`"
            )
        return self.margins[bits]

    def mode_key_for(self, required_bits: int) -> int:
        """Key of the cheapest mode with at least *required_bits* bits.

        Mirrors ``AccuracyController.mode_for`` (candidate order and
        tie-break included) so the greedy policy is the paper baseline.
        """
        candidates = [
            (bits, point)
            for bits, point in self.modes.items()
            if bits >= required_bits
        ]
        if not candidates:
            raise ValueError(
                f"no feasible mode provides {required_bits} bits "
                f"(table covers up to {self.max_bits})"
            )
        return min(candidates, key=lambda bp: bp[1].total_power_w)[0]

    def mode_for(self, required_bits: int) -> OperatingPoint:
        return self.modes[self.mode_key_for(required_bits)]

    def transition_between(
        self, from_bits: Optional[int], to_bits: int
    ) -> TransitionCost:
        """Cost from one mode key to another; power-on (None) is free."""
        if from_bits is None or from_bits == to_bits:
            return TransitionCost(0.0, 0.0)
        return self.transitions[(from_bits, to_bits)]

    def describe(self) -> str:
        costly = sum(
            1 for (a, b), c in self.transitions.items() if a != b and not c.is_free
        )
        margins = (
            "margin-guarded" if self.has_margins else "no margins"
        )
        learned = (
            f", learned policy ({self.learned.num_states} states)"
            if self.has_learned_policy
            else ""
        )
        return (
            f"{self.design_name}: {len(self.modes)} modes "
            f"({min(self.modes)}..{self.max_bits} bits), "
            f"{self.num_domains} domains over {self.total_area_um2:.0f} um^2, "
            f"fclk {self.fclk_ghz:.2f} GHz, "
            f"{costly} costed transitions, {margins}{learned}"
        )

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict:
        return {
            "schema": MODE_TABLE_SCHEMA,
            "kind": MODE_TABLE_KIND,
            "design_name": self.design_name,
            "fclk_ghz": self.fclk_ghz,
            "num_domains": self.num_domains,
            "domain_areas_um2": list(self.domain_areas_um2),
            "fbb_voltage": self.fbb_voltage,
            "generator": {
                "transition_time_ns": self.generator.transition_time_ns,
                "well_cap_ff_per_um2": self.generator.well_cap_ff_per_um2,
                "pump_efficiency": self.generator.pump_efficiency,
                "vdd_transition_time_ns": self.generator.vdd_transition_time_ns,
                "rail_cap_ff_per_um2": self.generator.rail_cap_ff_per_um2,
                "regulator_efficiency": self.generator.regulator_efficiency,
            },
            "modes": {
                str(bits): point.to_dict()
                for bits, point in self.modes.items()
            },
            "transitions": [
                {
                    "from": a,
                    "to": b,
                    "energy_j": cost.energy_j,
                    "settle_ns": cost.settle_ns,
                }
                for (a, b), cost in self.transitions.items()
            ],
            "margins": (
                {
                    str(bits): margin.to_dict()
                    for bits, margin in self.margins.items()
                }
                if self.margins is not None
                else None
            ),
            "learned": (
                self.learned.to_dict() if self.learned is not None else None
            ),
        }

    @staticmethod
    def from_dict(payload: Dict) -> "ModeTable":
        """Parse a serialized table; every defect raises :class:`ServeError`.

        Accepts only a ``repro-mode-table`` document of the current
        schema.  Another artifact (an exploration result, say) is named
        as such; a truncated or corrupt payload -- missing keys, wrong
        types, inconsistent matrix -- surfaces as one clear
        :class:`ServeError`, never a raw ``KeyError``/``TypeError`` from
        the middle of the parse.
        """
        PARSE_COUNTERS["json"] += 1
        if not isinstance(payload, dict):
            raise ServeError(
                f"mode-table payload must be a JSON object, "
                f"got {type(payload).__name__}"
            )
        kind = payload.get("kind")
        if kind != MODE_TABLE_KIND:
            raise ServeError(
                f"not a mode table (kind={kind!r}, expected "
                f"{MODE_TABLE_KIND!r}); build one with `repro compile-table`, "
                "adding --exploration FILE to reuse a saved exploration"
            )
        schema = payload.get("schema")
        if schema != MODE_TABLE_SCHEMA:
            raise ServeError(
                f"unsupported mode-table schema {schema!r} (this build reads "
                f"schema {MODE_TABLE_SCHEMA}); re-run `repro compile-table`"
            )
        try:
            generator = BiasGeneratorModel(**payload["generator"])
            modes = {
                int(bits): OperatingPoint.from_dict(point)
                for bits, point in payload["modes"].items()
            }
            transitions = {
                (int(e["from"]), int(e["to"])): TransitionCost(
                    energy_j=float(e["energy_j"]),
                    settle_ns=float(e["settle_ns"]),
                )
                for e in payload["transitions"]
            }
            raw_margins = payload.get("margins")
            margins = (
                {
                    int(bits): ModeMargin.from_dict(margin)
                    for bits, margin in raw_margins.items()
                }
                if raw_margins is not None
                else None
            )
            raw_learned = payload.get("learned")
            learned = (
                LearnedPolicySpec.from_dict(raw_learned)
                if raw_learned is not None
                else None
            )
            return ModeTable(
                design_name=payload["design_name"],
                fclk_ghz=float(payload["fclk_ghz"]),
                num_domains=int(payload["num_domains"]),
                domain_areas_um2=tuple(
                    float(a) for a in payload["domain_areas_um2"]
                ),
                fbb_voltage=float(payload["fbb_voltage"]),
                generator=generator,
                modes=modes,
                transitions=transitions,
                margins=margins,
                learned=learned,
            )
        except ServeError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ServeError(
                f"corrupt or truncated mode-table payload: {exc!r}; "
                "re-run `repro compile-table` to regenerate the artifact"
            ) from exc

    # -- shared memory -------------------------------------------------------

    def to_shared(self, name: Optional[str] = None) -> "SharedModeTable":
        """Export this table into a shared-memory segment, once.

        The dense transition/margin matrices (and everything else the
        runtime needs) are laid out as fixed-offset binary blocks in one
        ``multiprocessing.shared_memory`` segment; fleet workers attach
        with :meth:`from_shared` and map them zero-copy instead of
        re-parsing the JSON artifact per process.  The returned
        :class:`SharedModeTable` owns the segment: ``close()`` it when
        this process is done and ``unlink()`` it at fleet shutdown.
        """
        return SharedModeTable.create(self, name=name)

    @staticmethod
    def from_shared(name: str) -> "SharedModeTable":
        """Attach the segment exported by :meth:`to_shared` (zero JSON).

        Round-trips bit-identically: every float travels as its binary
        ``float64`` self, so ``from_shared(h.name).table == table``.
        """
        return SharedModeTable.attach(name)


def compile_transitions(
    modes: Mapping[int, OperatingPoint],
    domain_areas_um2: Tuple[float, ...],
    generator: BiasGeneratorModel,
    fbb_voltage: float,
) -> Dict[Tuple[int, int], TransitionCost]:
    """Precompute the full pairwise transition-cost matrix."""
    transitions: Dict[Tuple[int, int], TransitionCost] = {}
    for a, point_a in modes.items():
        for b, point_b in modes.items():
            if a == b:
                transitions[(a, b)] = TransitionCost(0.0, 0.0)
                continue
            energy, settle = pairwise_transition_cost(
                point_a, point_b, domain_areas_um2, generator, fbb_voltage
            )
            transitions[(a, b)] = TransitionCost(energy, settle)
    return transitions


def compile_margins(
    design: ImplementedDesign,
    modes: Mapping[int, OperatingPoint],
    samples: int = 48,
    target_yield: float = 0.9987,
    sigma_vth: float = 0.012,
    seed: int = 1234,
) -> Dict[int, ModeMargin]:
    """Monte-Carlo n-sigma slack margins for every compiled mode.

    Each mode is re-timed *at its own exploration corner* (VDD, per-cell
    FBB from its domain assignment, LSBs case-disabled) under sampled
    local Vth variation; the guarded slack is the ``1 - target_yield``
    quantile of the worst-slack distribution.  Each mode gets an
    independent, bits-derived RNG stream so the result is invariant to
    iteration order.
    """
    from repro.sta.caseanalysis import dvas_case
    from repro.sta.variation import MonteCarloTiming

    if samples < 2:
        raise ValueError("need at least two samples per mode")
    graph = design.timing_graph()
    library = design.netlist.library
    domains = design.domains
    margins: Dict[int, ModeMargin] = {}
    cases = dvas_case(design.netlist, list(modes))
    for (bits, point), case in zip(modes.items(), cases):
        bb = np.asarray(point.bb_config, dtype=bool)
        fbb_cells = bb[domains]
        mc = MonteCarloTiming(
            graph, library, sigma_vth=sigma_vth, seed=seed + bits
        )
        report = mc.analyze_yield(
            design.constraint,
            point.vdd,
            fbb_cells,
            case=case,
            samples=samples,
        )
        guarded = float(
            np.quantile(report.worst_slack_samples_ps, 1.0 - target_yield)
        )
        margins[bits] = ModeMargin(
            guarded_slack_ps=guarded,
            mean_slack_ps=report.mean_slack_ps,
            sigma_slack_ps=report.sigma_slack_ps,
            timing_yield=report.timing_yield,
            target_yield=target_yield,
            samples=samples,
        )
    return margins


def compile_mode_table(
    design: ImplementedDesign,
    exploration: ExplorationResult,
    generator: BiasGeneratorModel = BiasGeneratorModel(),
    with_margins: bool = False,
    margin_samples: int = 48,
    margin_target_yield: float = 0.9987,
    margin_sigma_vth: float = 0.012,
    margin_seed: int = 1234,
) -> ModeTable:
    """Freeze an exploration + implementation into a serving artifact.

    ``with_margins`` additionally runs :func:`compile_margins` and bakes
    per-mode n-sigma slack margins into the artifact, enabling the
    runtime margin guard.
    """
    if not exploration.best_per_bitwidth:
        raise ValueError("exploration found no feasible operating points")
    modes = dict(exploration.best_per_bitwidth)
    domain_areas = tuple(float(a) for a in measure_domain_areas(design))
    fbb = design.netlist.library.process.fbb_voltage
    margins = (
        compile_margins(
            design,
            modes,
            samples=margin_samples,
            target_yield=margin_target_yield,
            sigma_vth=margin_sigma_vth,
            seed=margin_seed,
        )
        if with_margins
        else None
    )
    return ModeTable(
        design_name=exploration.design_name,
        fclk_ghz=design.fclk_ghz,
        num_domains=design.num_domains,
        domain_areas_um2=domain_areas,
        fbb_voltage=fbb,
        generator=generator,
        modes=modes,
        transitions=compile_transitions(modes, domain_areas, generator, fbb),
        margins=margins,
    )


# -- shared-memory export ----------------------------------------------------

#: First 8 bytes of every shared-memory table segment.
SHARED_TABLE_MAGIC = b"RPROSHM\x00"


def _align8(offset: int) -> int:
    return (offset + 7) & ~7


class _SharedLayout:
    """Byte offsets of every block in a shared-memory table segment.

    Fixed header (magic, schema, attach refcount, dimensions, scalars,
    design name) followed by 8-byte-aligned dense blocks: mode keys,
    per-mode operating-point fields, the per-mode/per-domain FBB matrix,
    domain areas, the two transition matrices, (margined tables) the
    per-mode margin matrix and (schema-3 tables with a trained policy)
    the learned-policy spec as a UTF-8 JSON block.  Everything numeric
    is little-endian ``int64``/``float64``, so attached views are
    bit-identical to the exported arrays.
    """

    N_DIMS = 7
    N_SCALARS = 8
    MODE_FIELDS = 5  # vdd, total/dynamic/leakage power, worst slack
    MARGIN_FIELDS = 6  # guarded/mean/sigma slack, 2 yields, samples

    def __init__(
        self,
        n_modes: int,
        num_domains: int,
        n_areas: int,
        bb_width: int,
        has_margins: bool,
        name_len: int,
        learned_len: int = 0,
    ):
        self.n_modes = n_modes
        self.num_domains = num_domains
        self.n_areas = n_areas
        self.bb_width = bb_width
        self.has_margins = has_margins
        self.name_len = name_len
        self.learned_len = learned_len
        self.magic = 0
        self.schema = 8
        self.refcount = 16
        self.dims = 24
        self.scalars = self.dims + 8 * self.N_DIMS
        self.name = self.scalars + 8 * self.N_SCALARS
        offset = _align8(self.name + name_len)
        self.mode_keys = offset
        offset += 8 * n_modes
        self.mode_fields = offset
        offset += 8 * n_modes * self.MODE_FIELDS
        self.bb_matrix = offset
        offset = _align8(offset + n_modes * bb_width)
        self.areas = offset
        offset += 8 * n_areas
        self.trans_energy = offset
        offset += 8 * n_modes * n_modes
        self.trans_settle = offset
        offset += 8 * n_modes * n_modes
        self.margins = offset
        if has_margins:
            offset += 8 * n_modes * self.MARGIN_FIELDS
        self.learned = offset
        offset += learned_len
        # Whole-buffer int64 views require 8-byte total size; the
        # learned JSON block is the only variable-byte-length tail.
        self.size = _align8(offset)


class SharedModeTable:
    """A :class:`ModeTable` living in a shared-memory segment.

    One process (the fleet router) calls :meth:`create` /
    :meth:`ModeTable.to_shared` once; every worker calls :meth:`attach` /
    :meth:`ModeTable.from_shared` with the segment ``name`` and maps the
    same physical pages -- no JSON artifact parse, no per-process copy of
    the dense matrices.  ``table`` materializes a regular
    :class:`ModeTable` from the mapped blocks (bit-identical floats);
    ``transition_energy_matrix`` & co. expose the raw zero-copy views for
    consumers that want the arrays themselves.

    Lifecycle: every attach bumps the in-segment refcount
    (diagnostic, not a lock), ``close()`` drops this process's mapping,
    and ``unlink()`` -- owner-side, at fleet shutdown -- removes the
    segment from the OS.  Attach-side resource-tracker registrations are
    released so a worker exiting (or crashing) never tears down a
    segment its peers still map; if the *owner* crashes, its resource
    tracker removes the segment at process-family shutdown, so crash
    injection cannot leak segments either.
    """

    def __init__(self, shm, owner: bool):
        self._shm = shm
        self._owner = owner
        self._closed = False
        self._table: Optional[ModeTable] = None
        self._layout = self._read_layout()

    # -- construction --------------------------------------------------------

    @classmethod
    def create(
        cls, table: ModeTable, name: Optional[str] = None
    ) -> "SharedModeTable":
        from multiprocessing import shared_memory

        mode_keys = list(table.modes)
        bb_widths = {len(p.bb_config) for p in table.modes.values()}
        if len(bb_widths) != 1:
            raise ServeError(
                "cannot export a table with inconsistent bb_config "
                f"widths {sorted(bb_widths)}"
            )
        bb_width = bb_widths.pop()
        encoded_name = table.design_name.encode("utf-8")
        encoded_learned = (
            json.dumps(table.learned.to_dict(), sort_keys=True).encode(
                "utf-8"
            )
            if table.learned is not None
            else b""
        )
        layout = _SharedLayout(
            n_modes=len(mode_keys),
            num_domains=table.num_domains,
            n_areas=len(table.domain_areas_um2),
            bb_width=bb_width,
            has_margins=table.has_margins,
            name_len=len(encoded_name),
            learned_len=len(encoded_learned),
        )
        shm = shared_memory.SharedMemory(
            create=True, size=layout.size, name=name
        )
        buf = shm.buf
        buf[0:8] = SHARED_TABLE_MAGIC
        ints = np.frombuffer(buf, dtype="<i8")

        def put_ints(offset, values):
            start = offset // 8
            ints[start : start + len(values)] = values

        def put_floats(offset, values):
            np.frombuffer(buf, dtype="<f8", count=len(values), offset=offset)[
                :
            ] = values

        put_ints(layout.schema, [MODE_TABLE_SCHEMA])
        put_ints(layout.refcount, [1])
        put_ints(
            layout.dims,
            [
                layout.n_modes,
                layout.num_domains,
                layout.n_areas,
                layout.bb_width,
                int(layout.has_margins),
                layout.name_len,
                layout.learned_len,
            ],
        )
        generator = table.generator
        put_floats(
            layout.scalars,
            [
                table.fclk_ghz,
                table.fbb_voltage,
                generator.transition_time_ns,
                generator.well_cap_ff_per_um2,
                generator.pump_efficiency,
                generator.vdd_transition_time_ns,
                generator.rail_cap_ff_per_um2,
                generator.regulator_efficiency,
            ],
        )
        buf[layout.name : layout.name + layout.name_len] = encoded_name
        put_ints(layout.mode_keys, mode_keys)
        fields = np.frombuffer(
            buf,
            dtype="<f8",
            count=layout.n_modes * layout.MODE_FIELDS,
            offset=layout.mode_fields,
        ).reshape(layout.n_modes, layout.MODE_FIELDS)
        bb = np.frombuffer(
            buf,
            dtype=np.uint8,
            count=layout.n_modes * layout.bb_width,
            offset=layout.bb_matrix,
        ).reshape(layout.n_modes, layout.bb_width)
        for row, bits in enumerate(mode_keys):
            point = table.modes[bits]
            fields[row] = [
                point.vdd,
                point.total_power_w,
                point.dynamic_power_w,
                point.leakage_power_w,
                point.worst_slack_ps,
            ]
            bb[row] = [1 if flag else 0 for flag in point.bb_config]
        put_floats(layout.areas, list(table.domain_areas_um2))
        energy = np.frombuffer(
            buf,
            dtype="<f8",
            count=layout.n_modes**2,
            offset=layout.trans_energy,
        ).reshape(layout.n_modes, layout.n_modes)
        settle = np.frombuffer(
            buf,
            dtype="<f8",
            count=layout.n_modes**2,
            offset=layout.trans_settle,
        ).reshape(layout.n_modes, layout.n_modes)
        for i, a in enumerate(mode_keys):
            for j, b in enumerate(mode_keys):
                cost = table.transitions[(a, b)]
                energy[i, j] = cost.energy_j
                settle[i, j] = cost.settle_ns
        if table.has_margins:
            margins = np.frombuffer(
                buf,
                dtype="<f8",
                count=layout.n_modes * layout.MARGIN_FIELDS,
                offset=layout.margins,
            ).reshape(layout.n_modes, layout.MARGIN_FIELDS)
            for row, bits in enumerate(mode_keys):
                margin = table.margins[bits]
                margins[row] = [
                    margin.guarded_slack_ps,
                    margin.mean_slack_ps,
                    margin.sigma_slack_ps,
                    margin.timing_yield,
                    margin.target_yield,
                    float(margin.samples),
                ]
        if encoded_learned:
            buf[layout.learned : layout.learned + layout.learned_len] = (
                encoded_learned
            )
        del ints, fields, bb, energy, settle  # release exported views
        handle = cls(shm, owner=True)
        handle._table = table
        return handle

    @classmethod
    def attach(cls, name: str) -> "SharedModeTable":
        from multiprocessing import resource_tracker, shared_memory

        # Python < 3.13 registers attach-only mappings with the resource
        # tracker exactly like created ones, so an attaching process
        # exiting would unlink the segment out from under its peers (or,
        # in a forked fleet, unbalance the creator's registration).
        # Only the creator owns the registration: suppress it for the
        # duration of the attach.
        original_register = resource_tracker.register

        def attach_register(name_, rtype):  # pragma: no cover - trivial
            if rtype != "shared_memory":
                original_register(name_, rtype)

        resource_tracker.register = attach_register
        try:
            shm = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            raise ServeError(
                f"no shared mode-table segment named {name!r}; the "
                "exporting process is gone or already unlinked it"
            ) from None
        finally:
            resource_tracker.register = original_register
        if bytes(shm.buf[0:8]) != SHARED_TABLE_MAGIC:
            shm.close()
            raise ServeError(
                f"segment {name!r} is not a shared mode table "
                "(bad magic)"
            )
        schema = int(np.frombuffer(shm.buf, "<i8", count=1, offset=8)[0])
        # The binary layout is exactly the current schema's: segments are
        # created and attached within one process family, never archived,
        # so unlike the JSON artifact there is no back-compat window.
        if schema != MODE_TABLE_SCHEMA:
            shm.close()
            raise ServeError(
                f"unsupported shared mode-table schema {schema!r} (this "
                f"build maps schema {MODE_TABLE_SCHEMA} segments)"
            )
        handle = cls(shm, owner=False)
        handle._bump_refcount(+1)
        PARSE_COUNTERS["shared"] += 1
        return handle

    # -- segment bookkeeping -------------------------------------------------

    def _read_layout(self) -> _SharedLayout:
        dims = np.frombuffer(
            self._shm.buf, "<i8", count=_SharedLayout.N_DIMS, offset=24
        )
        return _SharedLayout(
            n_modes=int(dims[0]),
            num_domains=int(dims[1]),
            n_areas=int(dims[2]),
            bb_width=int(dims[3]),
            has_margins=bool(dims[4]),
            name_len=int(dims[5]),
            learned_len=int(dims[6]),
        )

    def _bump_refcount(self, delta: int) -> int:
        view = np.frombuffer(
            self._shm.buf, "<i8", count=1, offset=self._layout.refcount
        )
        # Diagnostic count, not a lock: attach/close are serialized by
        # the router's lifecycle, not by concurrent writers.
        value = int(view[0]) + delta
        view[0] = value
        del view
        return value

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def size_bytes(self) -> int:
        return self._layout.size

    @property
    def attach_count(self) -> int:
        """Current in-segment refcount (creator counts as 1)."""
        return int(
            np.frombuffer(
                self._shm.buf, "<i8", count=1, offset=self._layout.refcount
            )[0]
        )

    def close(self) -> None:
        """Drop this process's mapping (decrements the refcount once)."""
        if self._closed:
            return
        self._bump_refcount(-1)
        self._closed = True
        self._table = None
        self._shm.close()

    def unlink(self) -> None:
        """Remove the segment from the OS (owner-side, at shutdown)."""
        if not self._closed:
            self.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def __enter__(self) -> "SharedModeTable":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._owner:
            self.unlink()
        else:
            self.close()

    # -- zero-copy views -----------------------------------------------------

    def _float_view(self, offset: int, count: int) -> np.ndarray:
        if self._closed:
            raise ServeError("shared mode table is closed")
        return np.frombuffer(
            self._shm.buf, dtype="<f8", count=count, offset=offset
        )

    @property
    def mode_keys(self) -> np.ndarray:
        layout = self._layout
        return np.frombuffer(
            self._shm.buf,
            "<i8",
            count=layout.n_modes,
            offset=layout.mode_keys,
        )

    @property
    def transition_energy_matrix(self) -> np.ndarray:
        """Dense (n_modes, n_modes) energy matrix mapped zero-copy."""
        layout = self._layout
        return self._float_view(
            layout.trans_energy, layout.n_modes**2
        ).reshape(layout.n_modes, layout.n_modes)

    @property
    def transition_settle_matrix(self) -> np.ndarray:
        """Dense (n_modes, n_modes) settle matrix mapped zero-copy."""
        layout = self._layout
        return self._float_view(
            layout.trans_settle, layout.n_modes**2
        ).reshape(layout.n_modes, layout.n_modes)

    @property
    def margin_matrix(self) -> Optional[np.ndarray]:
        """Dense (n_modes, 6) margin matrix, or ``None`` (no margins)."""
        layout = self._layout
        if not layout.has_margins:
            return None
        return self._float_view(
            layout.margins, layout.n_modes * layout.MARGIN_FIELDS
        ).reshape(layout.n_modes, layout.MARGIN_FIELDS)

    # -- materialization -----------------------------------------------------

    @property
    def table(self) -> ModeTable:
        """The :class:`ModeTable`, rebuilt from the mapped blocks.

        Floats cross as binary ``float64``, so the result compares
        ``==`` to the exported table; mode insertion order is preserved
        so power tie-breaks replay identically.
        """
        if self._table is None:
            self._table = self._materialize()
        return self._table

    def _materialize(self) -> ModeTable:
        if self._closed:
            raise ServeError("shared mode table is closed")
        layout = self._layout
        buf = self._shm.buf
        scalars = self._float_view(layout.scalars, layout.N_SCALARS)
        design_name = bytes(
            buf[layout.name : layout.name + layout.name_len]
        ).decode("utf-8")
        keys = [int(k) for k in self.mode_keys]
        fields = self._float_view(
            layout.mode_fields, layout.n_modes * layout.MODE_FIELDS
        ).reshape(layout.n_modes, layout.MODE_FIELDS)
        bb = np.frombuffer(
            buf,
            dtype=np.uint8,
            count=layout.n_modes * layout.bb_width,
            offset=layout.bb_matrix,
        ).reshape(layout.n_modes, layout.bb_width)
        modes = {
            bits: OperatingPoint(
                active_bits=bits,
                vdd=float(fields[row, 0]),
                bb_config=tuple(bool(f) for f in bb[row]),
                total_power_w=float(fields[row, 1]),
                dynamic_power_w=float(fields[row, 2]),
                leakage_power_w=float(fields[row, 3]),
                worst_slack_ps=float(fields[row, 4]),
            )
            for row, bits in enumerate(keys)
        }
        energy = self.transition_energy_matrix
        settle = self.transition_settle_matrix
        transitions = {
            (a, b): TransitionCost(
                energy_j=float(energy[i, j]), settle_ns=float(settle[i, j])
            )
            for i, a in enumerate(keys)
            for j, b in enumerate(keys)
        }
        margins = None
        margin_rows = self.margin_matrix
        if margin_rows is not None:
            margins = {
                bits: ModeMargin(
                    guarded_slack_ps=float(margin_rows[row, 0]),
                    mean_slack_ps=float(margin_rows[row, 1]),
                    sigma_slack_ps=float(margin_rows[row, 2]),
                    timing_yield=float(margin_rows[row, 3]),
                    target_yield=float(margin_rows[row, 4]),
                    samples=int(margin_rows[row, 5]),
                )
                for row, bits in enumerate(keys)
            }
        areas = tuple(
            float(a) for a in self._float_view(layout.areas, layout.n_areas)
        )
        learned = None
        if layout.learned_len:
            learned_payload = bytes(
                buf[layout.learned : layout.learned + layout.learned_len]
            ).decode("utf-8")
            # Decoding the embedded spec is not a table re-parse: the
            # ``json`` counter tracks full-artifact ModeTable.from_dict
            # calls the shared segment exists to avoid.
            learned = LearnedPolicySpec.from_dict(json.loads(learned_payload))
        return ModeTable(
            design_name=design_name,
            fclk_ghz=float(scalars[0]),
            num_domains=layout.num_domains,
            domain_areas_um2=areas,
            fbb_voltage=float(scalars[1]),
            generator=BiasGeneratorModel(
                transition_time_ns=float(scalars[2]),
                well_cap_ff_per_um2=float(scalars[3]),
                pump_efficiency=float(scalars[4]),
                vdd_transition_time_ns=float(scalars[5]),
                rail_cap_ff_per_um2=float(scalars[6]),
                regulator_efficiency=float(scalars[7]),
            ),
            modes=modes,
            transitions=transitions,
            margins=margins,
            learned=learned,
        )
