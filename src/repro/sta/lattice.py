"""Whole-lattice batched STA: many BB combinations in one tensor pass.

The exploration phase classifies all 2^NMAX back-bias assignments of a
domain-partitioned design per (bitwidth, VDD) knob point as timing
feasible or not (the paper reports ~75 % rejected).  The timing graph is
the *same* for every assignment -- only per-cell delay factors
``f(VDD, Vth[domain])`` change -- so any set of assignments can share one
levelized sweep: arrival times become a ``(combos, nets)`` matrix
with the BB combination stacked on a leading axis, the per-arc
delay broadcasts as a ``(combos, arcs-in-level)`` block, and the
infeasibility filter collapses to one masked reduction per knob point.
The explorer does not send the whole lattice: boosting a domain never
lowers a slack (:meth:`LatticeStaEngine.bias_monotone` checks the
premise), so it walks the lattice top-down and sends only the
assignments whose immediate supersets are all feasible.

The kernel computes in float64 with exactly the scalar engine's
operations (same multiplies, same exact max/min reductions, same
POS_INF masking), so its per-combo WNS, feasibility mask and
critical-endpoint ids are **bit-identical** to looping
:meth:`repro.sta.engine.StaEngine.analyze` over the combinations -- the
differential and hypothesis suites hold it to that.
:meth:`LatticeStaEngine.analyze_factors` takes arbitrary per-(combo,
cell) delay factors, which is how the multi-Vth extension
(:mod:`repro.core.tristate`) sweeps {RBB, NoBB, FBB} assignments.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.sta.caseanalysis import CaseAnalysis, UNKNOWN
from repro.sta.constraints import ClockConstraint
from repro.sta.engine import NEG_INF, POS_INF
from repro.sta.graph import TimingGraph
from repro.sta.sweep import LevelizedSchedule, schedule_for
from repro.techlib.library import Library

#: Bump when the lattice kernel's numerics or result schema change; the
#: shard-cache fingerprint embeds it so stale entries miss instead of
#: being served to a differently-shaped run.
LATTICE_SCHEMA = 1


def all_state_configs(num_domains: int, num_states: int) -> np.ndarray:
    """All num_states^num_domains assignment vectors, shape (K, domains).

    Entry (k, d) is the state index of domain *d* in configuration *k*;
    row 0 assigns state 0 everywhere, the last row the top state.  Used by
    the multi-Vth extension (e.g. {RBB, NoBB, FBB} -> num_states = 3).
    """
    if num_domains < 0:
        raise ValueError("num_domains must be non-negative")
    if num_states < 1:
        raise ValueError("need at least one state")
    count = num_states**num_domains
    codes = np.arange(count, dtype=np.int64)
    configs = np.empty((count, num_domains), dtype=np.int64)
    for domain in range(num_domains):
        configs[:, domain] = codes % num_states
        codes = codes // num_states
    return configs


def all_bb_configs(num_domains: int) -> np.ndarray:
    """All 2^num_domains FBB assignment vectors, shape (K, num_domains).

    Row k is the binary expansion of k: domain d is FBB iff bit d of k is
    set.  Row 0 is therefore all-NoBB and row K-1 all-FBB.
    """
    if num_domains < 0:
        raise ValueError("num_domains must be non-negative")
    count = 1 << num_domains
    codes = np.arange(count, dtype=np.int64)
    bits = np.arange(num_domains, dtype=np.int64)
    return ((codes[:, None] >> bits) & 1).astype(bool)


# -- lattice-layout sweep kernels -------------------------------------------


@dataclass
class _PaddedLevel:
    """One level of a sweep, compiled for rectangular segment reduction.

    ``ufunc.reduceat`` over ragged segments is the right tool for the
    scalar sweep's 1-D arrays but is slow on 2-D lattice blocks, so the
    lattice precompiles each level into a *padded* index matrix:
    segment *s*'s j-th arc sits at ``arc_pad[s * fanin + j]``, with
    short segments padded by repeating their last arc.  ``max``/``min``
    are exact and idempotent, so the duplicates and the changed
    reduction order cannot move a single bit relative to the ragged
    left-fold.

    ``endpoint_pad`` is ``arc_from`` of ``arc_pad`` -- the gather side
    precomputed once.  Both are flat ``(segments * fanin,)`` arrays so
    the sweep can add into one preallocated 2-D scratch block.
    """

    arc_pad: np.ndarray
    endpoint_pad: np.ndarray
    segments: int
    fanin: int
    nets: np.ndarray


def _pad_levels(levels, endpoint_of: np.ndarray):
    compiled = []
    for level in levels:
        arcs = level.arcs
        starts = level.starts
        ends = np.append(starts[1:], len(arcs))
        fanin = int((ends - starts).max()) if len(starts) else 0
        offsets = np.minimum(
            np.arange(fanin)[None, :], (ends - starts - 1)[:, None]
        )
        arc_pad = arcs[starts[:, None] + offsets].reshape(-1)
        compiled.append(
            _PaddedLevel(
                arc_pad=arc_pad,
                endpoint_pad=endpoint_of[arc_pad],
                segments=len(starts),
                fanin=fanin,
                nets=level.nets,
            )
        )
    return compiled


def lattice_sweep_forward(
    levels,
    arc_delay: np.ndarray,
    arrival: np.ndarray,
    scratch: Optional[np.ndarray] = None,
) -> None:
    """Levelized arrival propagation over a ``(nets, combos)`` matrix.

    The batched twin of :func:`repro.sta.sweep.sweep_forward`: *levels*
    is the padded compilation of ``schedule.forward`` (see
    :class:`_PaddedLevel`), *arc_delay* the precomputed ``(arcs,
    combos)`` delay matrix.  Each level gathers whole C-contiguous combo
    rows into a ``(segments, fanin, combos)`` block and max-reduces the
    middle axis.  ``max`` is exact, so each combo's column computes the
    very bits the scalar sweep would.  *scratch* optionally provides the
    flat candidate buffer (at least ``max(segments * fanin) * combos``
    elements), sparing one large allocation per level.
    """
    combos = arrival.shape[1]
    for level in levels:
        slots = level.segments * level.fanin
        if scratch is not None:
            candidate = scratch[: slots * combos].reshape(slots, combos)
            np.add(
                arrival[level.endpoint_pad],
                arc_delay[level.arc_pad],
                out=candidate,
            )
        else:
            candidate = arrival[level.endpoint_pad] + arc_delay[level.arc_pad]
        best = candidate.reshape(
            level.segments, level.fanin, combos
        ).max(axis=1)
        np.maximum(arrival[level.nets], best, out=best)
        arrival[level.nets] = best


# -- results ----------------------------------------------------------------


@dataclass
class LatticeTimingResult:
    """One knob point's full BB lattice, from a single tensor pass.

    ``configs`` is the evaluated (combos, num_domains) assignment matrix;
    every other array is indexed by the same leading combo axis.
    ``critical_endpoint_net[k]`` is the net id of combo *k*'s worst-slack
    active endpoint (first one in endpoint order on ties, matching
    ``np.argmin``), or -1 when the case analysis deactivated every
    endpoint.  ``arrival_ps`` is the ``(combos, nets)`` matrix, retained
    only when the engine was asked to keep it (it is the memory-heavy
    part of the pass).
    """

    constraint: ClockConstraint
    vdd: float
    configs: np.ndarray
    worst_slack_ps: np.ndarray
    critical_endpoint_net: np.ndarray
    arrival_ps: Optional[np.ndarray] = None

    @property
    def feasible(self) -> np.ndarray:
        """Boolean feasibility mask over the combo axis (WNS >= 0)."""
        return self.worst_slack_ps >= 0.0

    @property
    def num_feasible(self) -> int:
        return int(np.count_nonzero(self.feasible))

    @property
    def filtered_fraction(self) -> float:
        """Fraction of combinations the STA filter rejected."""
        if len(self.configs) == 0:
            return 0.0
        return 1.0 - self.num_feasible / len(self.configs)


class LatticeStaEngine:
    """Sweeps the whole BB lattice of a partitioned design in one pass."""

    def __init__(
        self,
        graph: TimingGraph,
        library: Library,
        domains: np.ndarray,
        num_domains: int,
    ):
        domains = np.asarray(domains, dtype=np.int64)
        if domains.shape != (graph.num_cells,):
            raise ValueError(
                f"domains shape {domains.shape} != ({graph.num_cells},)"
            )
        if num_domains < 0:
            raise ValueError("num_domains must be >= 0")
        if num_domains == 0:
            if len(domains) and domains.max() >= 0 and np.any(domains != 0):
                raise ValueError("domain ids out of range for 0 domains")
        elif len(domains) and domains.max() >= num_domains:
            raise ValueError("domain ids out of range")
        self.graph = graph
        self.library = library
        self.domains = domains
        self.num_domains = num_domains
        # Padded forward-level compilations per levelized schedule.
        # Case-filtered schedules live on their CaseAnalysis, so the
        # entries are weak: a case's padded levels die with the case.
        self._padded_cache = weakref.WeakKeyDictionary()
        # One reusable work buffer per role, grown to the largest pass and
        # viewed as a prefix per call: repeated passes would otherwise
        # mmap/munmap multi-MB temporaries, and the lattice search sends
        # a different lane count almost every pass.
        self._scratch = {
            role: np.empty(0)
            for role in ("cell_factors", "arc_delay", "candidate")
        }
        # Graph-fixed launch/endpoint index plumbing.
        self._launch_clip = np.maximum(graph.launch_cell, 0)
        self._launch_external = (graph.launch_cell < 0)[:, None]
        self._endpoint_clip = np.maximum(graph.endpoint_cell, 0)
        self._endpoint_external = (graph.endpoint_cell < 0)[:, None]
        self._delays_nonnegative = all(
            bool(np.all(delays >= 0.0))
            for delays in (
                graph.arc_delay_ps,
                graph.launch_delay_ps,
                graph.endpoint_setup_ps,
            )
        )

    def _padded_levels(self, schedule: LevelizedSchedule):
        """Padded forward levels of *schedule*, memoized."""
        levels = self._padded_cache.get(schedule)
        if levels is None:
            levels = _pad_levels(schedule.forward, self.graph.arc_from)
            self._padded_cache[schedule] = levels
        return levels

    def _scratch_view(self, role: str, rows: int, lanes: int) -> np.ndarray:
        """A ``(rows, lanes)`` prefix of the *role* buffer, grown on demand."""
        size = rows * lanes
        buffer = self._scratch[role]
        if buffer.size < size:
            buffer = self._scratch[role] = np.empty(size)
        return buffer[:size].reshape(rows, lanes)

    # -- corner factors -----------------------------------------------------

    def bias_monotone(self, vdds) -> bool:
        """Whether boosting a domain to FBB never lowers a slack at *vdds*.

        Holds when the graph's base arc, launch and setup delays are all
        non-negative and, at every rung, both delay factors are finite
        and the FBB factor is no larger than the NoBB one (a NaN factor
        fails).  Every delay is then a non-negative base times a factor
        no larger, and rounded ``*``, ``+``, ``-``, ``max`` and ``min``
        are all monotone, so a superset's worst slack is at least its
        subset's, bit for bit.  An infinite factor is refused because
        ``0 * inf`` is NaN, which the endpoint mask reads as inactive.
        """
        if not self._delays_nonnegative:
            return False
        for vdd in vdds:
            f_nobb = self.library.delay_factor(self.library.nobb_corner(vdd))
            f_fbb = self.library.delay_factor(self.library.fbb_corner(vdd))
            if not (np.isfinite(f_nobb) and np.isfinite(f_fbb)
                    and f_fbb <= f_nobb):
                return False
        return True

    def factors_for(self, vdd: float, configs: np.ndarray) -> np.ndarray:
        """Per-(combo, cell) float64 delay factors of a config matrix.

        Row *k* equals ``StaEngine.cell_delay_factors(vdd, fbb_cells)``
        for combination *k* exactly (same ``np.where`` on the same
        scalars), which is the root of the engine's bit-identity.
        """
        configs = np.asarray(configs, dtype=bool)
        f_nobb = self.library.delay_factor(self.library.nobb_corner(vdd))
        f_fbb = self.library.delay_factor(self.library.fbb_corner(vdd))
        if self.num_domains == 0:
            # NMAX = 0: no bias domains, every cell at NoBB in every combo.
            return np.full(
                (configs.shape[0], self.graph.num_cells), f_nobb, dtype=float
            )
        cell_fbb = configs[:, self.domains]
        return np.where(cell_fbb, float(f_fbb), float(f_nobb))

    # -- analysis -----------------------------------------------------------

    def analyze(
        self,
        constraint: ClockConstraint,
        vdd: float,
        configs: Optional[np.ndarray] = None,
        case: Optional[CaseAnalysis] = None,
        keep_arrays: bool = False,
    ) -> LatticeTimingResult:
        """Evaluate every BB combination in *configs* in one tensor pass.

        *configs* is a (combos, num_domains) boolean matrix, True = FBB
        (default: the full 2^NMAX lattice).  ``keep_arrays`` retains the
        arrival matrix on the result.
        """
        if configs is None:
            configs = all_bb_configs(self.num_domains)
        configs = np.asarray(configs, dtype=bool)
        if configs.ndim != 2 or configs.shape[1] != self.num_domains:
            raise ValueError(
                f"configs shape {configs.shape} incompatible with "
                f"{self.num_domains} domains"
            )
        return self.analyze_factors(
            constraint,
            self.factors_for(vdd, configs),
            vdd=vdd,
            configs=configs,
            case=case,
            keep_arrays=keep_arrays,
        )

    def analyze_factors(
        self,
        constraint: ClockConstraint,
        factors: np.ndarray,
        vdd: float = float("nan"),
        configs: Optional[np.ndarray] = None,
        case: Optional[CaseAnalysis] = None,
        keep_arrays: bool = False,
    ) -> LatticeTimingResult:
        """Lattice sweep under explicit per-(combo, cell) delay factors.

        The generalized entry point: *factors* may encode any per-domain
        Vth deltas (multi-state bias, Monte-Carlo variation, the property
        suite's random lattices), not just the binary {NoBB, FBB} corner
        pair.  Shape (combos, num_cells), float64.
        """
        graph = self.graph
        factors = np.asarray(factors, dtype=float)
        if factors.ndim != 2 or factors.shape[1] != graph.num_cells:
            raise ValueError(
                f"factors shape {factors.shape} != (combos, {graph.num_cells})"
            )
        num_combos = factors.shape[0]
        if configs is None:
            configs = np.zeros((num_combos, self.num_domains), dtype=bool)
        schedule = schedule_for(graph, case)
        forward_levels = self._padded_levels(schedule)
        slots = max(
            (lvl.segments * lvl.fanin for lvl in forward_levels), default=0
        )
        period = constraint.effective_period_ps
        # Flat: each level views its own (slots, combos) prefix.
        candidate = self._scratch_view("candidate", slots, num_combos).ravel()

        # All internal matrices are nets-major (nets, combos): one net's
        # combo row is then C-contiguous, so the per-level arc gathers
        # are whole-row copies rather than strided column picks.  The
        # public result arrays stay combo-major.
        cell_factors = self._scratch_view(
            "cell_factors", graph.num_cells, num_combos
        )
        np.copyto(cell_factors, factors.transpose())
        # (arcs, combos): the same float64 product the scalar engine
        # forms as arc_delay_ps * factors[arc_cell], per combo --
        # computed once here instead of once per level.
        arc_delay = self._scratch_view(
            "arc_delay", len(graph.arc_cell), num_combos
        )
        np.multiply(
            graph.arc_delay_ps[:, None],
            cell_factors[graph.arc_cell],
            out=arc_delay,
        )

        # Launch seeding, broadcast over the combo axis.  External
        # launches (primary inputs) are unscaled by the local corner.
        launch_factor = cell_factors[self._launch_clip]
        np.copyto(launch_factor, 1.0, where=self._launch_external)
        launch_arrival = graph.launch_delay_ps[:, None] * launch_factor

        arrival = np.full((graph.num_nets, num_combos), NEG_INF)
        if case is None:
            arrival[graph.launch_nets] = launch_arrival
        else:
            live = case.values[graph.launch_nets] == UNKNOWN
            arrival[graph.launch_nets[live]] = launch_arrival[live]

        lattice_sweep_forward(forward_levels, arc_delay, arrival, candidate)

        # Endpoint bookkeeping: (endpoints, combos) blocks throughout.
        endpoint_factor = cell_factors[self._endpoint_clip]
        np.copyto(endpoint_factor, 1.0, where=self._endpoint_external)
        endpoint_required = (
            period - graph.endpoint_setup_ps[:, None] * endpoint_factor
        )
        endpoint_arrival = arrival[graph.endpoint_nets]
        endpoint_slack = endpoint_required - endpoint_arrival

        if case is None:
            endpoint_active = endpoint_arrival > NEG_INF / 2
        else:
            endpoint_active = (
                case.active_endpoint_mask(graph.endpoint_nets)[:, None]
                & (endpoint_arrival > NEG_INF / 2)
            )

        masked_slack = np.where(endpoint_active, endpoint_slack, POS_INF)
        if masked_slack.shape[0]:
            worst = masked_slack.min(axis=0)
            critical = np.argmin(masked_slack, axis=0)
            critical_net = np.where(
                endpoint_active.any(axis=0),
                graph.endpoint_nets[critical],
                -1,
            ).astype(np.int64)
            # A combo whose every endpoint is inactive has no finite
            # slack; report the scalar engine's "unconstrained" sentinel.
            worst = np.where(endpoint_active.any(axis=0), worst, POS_INF)
        else:
            worst = np.full(num_combos, POS_INF)
            critical_net = np.full(num_combos, -1, dtype=np.int64)

        return LatticeTimingResult(
            constraint=constraint,
            vdd=vdd,
            configs=configs,
            worst_slack_ps=worst,
            critical_endpoint_net=critical_net,
            arrival_ps=arrival.transpose() if keep_arrays else None,
        )

    def analyze_ladder(
        self,
        constraint: ClockConstraint,
        vdds,
        configs: Optional[Sequence[np.ndarray]] = None,
        case: Optional[CaseAnalysis] = None,
    ) -> list:
        """Sweep a (VDD, BB combination) ladder in one pass.

        *configs* holds one (combos, num_domains) boolean matrix per rung
        of *vdds*, and rungs may differ in what and how much they carry
        (default: the full 2^NMAX lattice on every rung).  VDD only
        enters the analysis through the per-cell delay factors, so every
        rung's combinations stack on one leading axis: one ``(lanes,
        nets)`` sweep replaces one pass per rung, amortizing the
        per-level kernel overhead across the ladder.  The combo axis is
        pure batch, so each lane is bit-identical to its standalone
        :meth:`analyze` -- the differential wall holds it to that.

        Returns one :class:`LatticeTimingResult` per VDD, in order, over
        that rung's configurations.
        """
        vdds = list(vdds)
        if configs is None:
            configs = [all_bb_configs(self.num_domains)] * len(vdds)
        configs = [np.asarray(rung, dtype=bool) for rung in configs]
        if len(configs) != len(vdds):
            raise ValueError(
                f"{len(configs)} config matrices for {len(vdds)} VDD rungs"
            )
        bounds = np.cumsum([0] + [len(rung) for rung in configs])
        if bounds[-1]:
            factors = np.concatenate(
                [self.factors_for(v, rung) for v, rung in zip(vdds, configs)]
            )
            stacked = self.analyze_factors(constraint, factors, case=case)
            worst = stacked.worst_slack_ps
            critical = stacked.critical_endpoint_net
        else:
            worst = np.empty(0)
            critical = np.empty(0, dtype=np.int64)
        return [
            LatticeTimingResult(
                constraint=constraint,
                vdd=vdd,
                configs=rung,
                worst_slack_ps=worst[lo:hi],
                critical_endpoint_net=critical[lo:hi],
            )
            for vdd, rung, lo, hi in zip(vdds, configs, bounds, bounds[1:])
        ]
