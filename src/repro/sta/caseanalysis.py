"""Case analysis: constant propagation of gated inputs through the netlist.

Zeroing input LSBs (the DVAS accuracy knob) makes part of the logic
constant; timing paths through constant nets are *deactivated* (set (1) of
Fig. 2) and stop constraining the clock.  This module computes, for given
accuracy modes, the constant value of every net.

Propagation is three-valued (0 / 1 / unknown) and runs *through* flip-flops
to a fixpoint: every flip-flop starts at its reset state (0) and is marked
unknown as soon as its next-state value ever differs -- i.e. a register is
considered constant only when its value is inductively invariant, which is
sound for timing (a net we call unknown merely stays pessimistically
active).  This sequential propagation is what lets the FIR's delay line
and accumulator LSBs deactivate under input gating.

The netlist is compiled once per call into the (topological level,
template) groups of :func:`repro.sim.packed.compile_groups`, with one
three-valued lookup table per template (``3^k`` entries for ``k`` inputs,
derived from the template's truth table).  Net codes live in a
``(nets, lanes)`` matrix with one lane per forced map -- per accuracy
mode for :func:`dvas_case` -- so one sweep evaluates a whole group of
cells for every mode with a gather, a table lookup and a scatter.  The
flip-flop fixpoint repeats the sweep until no lane changes; a lane that
has converged stays unchanged under further sweeps, so each lane records
its own sweep count.  The per-cell reference walker this replaced lives
in ``tests/oracles/caseanalysis.py`` and the differential suite holds the
lanes to it, values and sweep counts alike.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.netlist.netlist import Netlist
from repro.sim.packed import compile_groups

#: Net constant codes.
ZERO = np.uint8(0)
ONE = np.uint8(1)
UNKNOWN = np.uint8(2)


@dataclass
class CaseAnalysis:
    """Result of constant propagation on one netlist.

    ``values[i]`` is 0, 1 or :data:`UNKNOWN` for net index *i*.
    """

    netlist: Netlist
    values: np.ndarray
    forced: Dict[int, bool]
    sweeps: int
    #: The netlist's arcs grouped for the sensitization lookup; the lanes
    #: of one :class:`CaseLanes` share one.
    arc_layout: Optional["_ArcLayout"] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        if self.arc_layout is None:
            self.arc_layout = _ArcLayout(self.netlist)
        self._arc_mask_cache: Dict[int, np.ndarray] = {}
        # Case-filtered sweep schedules per timing graph, memoized here
        # (not on the graph) so a short-lived case doesn't pin schedule
        # memory on a long-lived graph.  See repro.sta.sweep.schedule_for.
        self._schedule_cache: Dict[int, object] = {}

    @property
    def constant_mask(self) -> np.ndarray:
        """Boolean mask of nets with a known constant value."""
        return self.values != UNKNOWN

    def constant_fraction(self) -> float:
        return float(np.count_nonzero(self.constant_mask) / len(self.values))

    def active_arc_mask(self, graph) -> np.ndarray:
        """Arcs that still propagate transitions, per timing-graph arc.

        An arc (input pin -> output pin) is active iff both its nets are
        non-constant *and* the input can still control the output given the
        cell's constant side inputs (path sensitization).  The second
        condition is what deactivates, e.g., the select chain of a
        carry-select adder once the low blocks' carries become constant.
        """
        cached = self._arc_mask_cache.get(id(graph))
        if cached is not None and cached[0] is graph:
            return cached[1]
        values = self.values
        mask = (values[graph.arc_from] == UNKNOWN) & (
            values[graph.arc_to] == UNKNOWN
        )
        # Refine with per-cell sensitization, one template at a time.
        groups = self.arc_layout.groups
        if sum(arcs.size for _, arcs, _ in groups) != len(mask):
            raise ValueError("timing graph does not match the netlist")
        for inputs, arcs, table in groups:
            codes = values[inputs].astype(np.intp)
            index = codes[0]
            for pin in range(1, len(codes)):
                index = index + codes[pin] * 3**pin
            mask[arcs] &= table[index]
        # Pin the graph in the entry: a dead graph's id can be recycled by
        # a new graph, which must not be served the stale mask.
        self._arc_mask_cache[id(graph)] = (graph, mask)
        return mask

    def active_endpoint_mask(self, endpoint_nets: np.ndarray) -> np.ndarray:
        """Endpoints that still capture transitions."""
        return self.values[endpoint_nets] == UNKNOWN


def _truth_table(template) -> Tuple[np.ndarray, np.ndarray]:
    """``(minterms, outputs)`` of *template* over all boolean inputs.

    Minterm rows come in ``itertools.product`` order, so pin 0 is the
    most significant bit of a row's index.
    """
    num_in = len(template.inputs)
    minterms = np.asarray(
        list(itertools.product((False, True), repeat=num_in)), dtype=bool
    ).reshape(2**num_in, num_in)
    truth = np.asarray(
        [
            [bool(np.asarray(o)) for o in template.evaluate(*row)]
            for row in minterms.tolist()
        ],
        dtype=bool,
    ).reshape(2**num_in, len(template.outputs))
    return minterms, truth


def _consistent(minterms: np.ndarray, index: int) -> np.ndarray:
    """Minterms agreeing with the known pins of three-valued row *index*."""
    consistent = np.ones(len(minterms), dtype=bool)
    for pin in range(minterms.shape[1]):
        code = (index // 3**pin) % 3
        if code != UNKNOWN:
            consistent &= minterms[:, pin] == bool(code)
    return consistent


def _sensitization_table(template) -> np.ndarray:
    """``(3^k, outputs * k)`` arc sensitization of *template*.

    Rows are indexed like :func:`_three_valued_table`; column
    ``out * k + pin`` is True when input *pin* can still flip output
    *out* under the row's input codes -- some boolean input vector
    consistent with the known inputs changes the output when only *pin*
    flips.  A known pin never can.  The all-unknown row is all True:
    with no constant side input there is nothing to refine.
    """
    minterms, truth = _truth_table(template)
    num_in = minterms.shape[1]
    # flips[r, pin, out]: flipping *pin* of minterm r changes *out*.
    flipped = np.arange(len(minterms))[:, None] ^ (
        1 << (num_in - 1 - np.arange(num_in))
    )
    flips = truth[:, None, :] != truth[flipped]
    table = np.ones((3**num_in, truth.shape[1] * num_in), dtype=bool)
    for index in range(3**num_in - 1):  # the last row is all-unknown
        unknown = np.asarray(
            [(index // 3**pin) % 3 == UNKNOWN for pin in range(num_in)]
        )
        live = flips[_consistent(minterms, index)].any(axis=0)
        table[index] = (live & unknown[:, None]).transpose().reshape(-1)
    return table


class _ArcLayout:
    """A netlist's combinational arcs, grouped by template on first use.

    Arc ordinals follow :func:`repro.sta.graph.compile_timing_graph`:
    cells in netlist order, sequential cells skipped, each cell's arcs
    contiguous, output-major and input-minor.
    """

    def __init__(self, netlist: Netlist):
        self.netlist = netlist

    @functools.cached_property
    def groups(self) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per template: ``(k, cells)`` input nets, ``(cells, outputs *
        k)`` arc ordinals and the :func:`_sensitization_table`."""
        members: Dict[str, tuple] = {}
        cursor = 0
        for cell in self.netlist.cells:
            if cell.is_sequential:
                continue
            nets = [net.index for net in cell.input_nets]
            members.setdefault(cell.template.name, (cell.template, []))[
                1
            ].append((nets, cursor))
            cursor += len(nets) * len(cell.output_nets)
        groups = []
        for template, cells in members.values():
            table = _sensitization_table(template)
            if table.shape[1]:  # tie cells have no arcs
                inputs = np.asarray([nets for nets, _ in cells], dtype=np.intp)
                starts = np.asarray([start for _, start in cells])
                arcs = starts[:, None] + np.arange(table.shape[1])
                groups.append((inputs.transpose().copy(), arcs, table))
        return groups


def _three_valued_table(template) -> np.ndarray:
    """``(3^k, outputs)`` output codes of *template* on three-valued inputs.

    Row ``sum(codes[pin] * 3**pin)`` holds the outputs for input codes
    ``codes``: :data:`ONE` or :data:`ZERO` when every boolean input
    vector consistent with the known inputs agrees, else
    :data:`UNKNOWN` -- an OR over the consistent minterms of the truth
    table, i.e. exactly the enumeration of the unknown inputs.
    """
    minterms, truth = _truth_table(template)
    table = np.empty((3 ** minterms.shape[1], truth.shape[1]), dtype=np.uint8)
    for index in range(len(table)):
        consistent = _consistent(minterms, index)
        can_be_one = truth[consistent].any(axis=0)
        can_be_zero = (~truth[consistent]).any(axis=0)
        table[index] = np.where(
            can_be_one & can_be_zero, UNKNOWN, np.where(can_be_one, ONE, ZERO)
        )
    return table


class _CaseProgram:
    """One netlist compiled for lane-parallel three-valued sweeps."""

    def __init__(self, netlist: Netlist):
        self.num_nets = len(netlist.nets)
        groups = compile_groups(
            netlist.topological_cells(), self.num_nets, transparent=False
        )
        tables: Dict[str, np.ndarray] = {}
        #: Per group: (input rows, pins, cells, per-output (rows, table)).
        self.groups = []
        for group in groups:
            table = tables.get(group.op_name)
            if table is None:
                table = tables[group.op_name] = _three_valued_table(
                    group.template
                )
            self.groups.append(
                (
                    group.in_flat,
                    group.num_in,
                    group.size,
                    [
                        (rows, np.ascontiguousarray(table[:, pin]))
                        for pin, rows in enumerate(group.out_cols)
                    ],
                )
            )
        sequential = netlist.sequential_cells
        self.ff_q = np.asarray(
            [ff.output_nets[0].index for ff in sequential], dtype=np.intp
        )
        self.ff_d = np.asarray(
            [ff.input_nets[0].index for ff in sequential], dtype=np.intp
        )
        # The fixpoint visits flip-flops in netlist order, so a register
        # whose D is the Q of an *earlier* register sees that Q's update
        # from the same visit.  Rank such chains: rank r holds the
        # registers fed by a rank r-1 register's Q, and ranks update in
        # order, each as one vectorized step.
        position = {int(q): i for i, q in enumerate(self.ff_q)}
        rank = np.zeros(len(sequential), dtype=np.int64)
        for i, d in enumerate(self.ff_d):
            j = position.get(int(d))
            if j is not None and j < i:
                rank[i] = rank[j] + 1
        self.ff_ranks = [
            np.nonzero(rank == r)[0]
            for r in range(int(rank.max()) + 1 if len(rank) else 0)
        ]
        self.clock_index = (
            netlist.clock_net.index if netlist.clock_net is not None else None
        )

    def run(
        self, forced_lanes: Sequence[Mapping[int, bool]], max_sweeps: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fixpoint codes ``(nets, lanes)`` and per-lane sweep counts."""
        lanes = len(forced_lanes)
        values = np.full((self.num_nets, lanes), UNKNOWN, dtype=np.uint8)
        forced = np.zeros((self.num_nets, lanes), dtype=bool)
        for lane, lane_forced in enumerate(forced_lanes):
            for net_index, value in lane_forced.items():
                values[net_index, lane] = ONE if value else ZERO
                forced[net_index, lane] = True
        if self.clock_index is not None:
            # The clock is a timing signal, not a logic value; for case
            # analysis it is irrelevant (no combinational cell reads it).
            values[self.clock_index] = UNKNOWN
        # Reset state: every flip-flop output starts at 0 unless forced.
        forced_q = forced[self.ff_q]
        values[self.ff_q] = np.where(forced_q, values[self.ff_q], ZERO)
        # Registers that may still turn unknown: neither forced nor
        # already marked (a marked register stays unknown for good).
        open_q = ~forced_q
        # Forced nets keep their value even when a cell drives them.
        forced_row = forced.any(axis=1)
        groups = [
            (
                in_flat,
                num_in,
                size,
                [
                    (rows, table,
                     forced[rows] if forced_row[rows].any() else None)
                    for rows, table in outputs
                ],
            )
            for in_flat, num_in, size, outputs in self.groups
        ]

        sweeps = np.zeros(lanes, dtype=np.int64)
        active = np.ones(lanes, dtype=bool)
        count = 0
        while active.any():
            count += 1
            if count > max_sweeps:
                raise RuntimeError(
                    f"case analysis did not converge in {max_sweeps} sweeps"
                )
            for in_flat, num_in, size, outputs in groups:
                if num_in:
                    codes = values.take(in_flat, axis=0).reshape(
                        num_in, size, lanes
                    )
                    index = codes[0]
                    for pin in range(1, num_in):
                        index = index + codes[pin] * np.uint8(3**pin)
                else:  # tie cell: one table row
                    index = np.zeros((size, lanes), dtype=np.uint8)
                for rows, table, keep in outputs:
                    out = table[index]
                    if keep is not None:
                        out = np.where(keep, values[rows], out)
                    values[rows] = out
            changed = np.zeros(lanes, dtype=bool)
            for members in self.ff_ranks:
                q_rows = self.ff_q[members]
                q_codes = values[q_rows]
                d_codes = values[self.ff_d[members]]
                flips = open_q[members] & (d_codes != q_codes)
                if flips.any():
                    # Next state differs from the assumed invariant.
                    values[q_rows] = np.where(flips, UNKNOWN, q_codes)
                    open_q[members] &= ~flips
                    changed |= flips.any(axis=0)
            sweeps[active & ~changed] = count
            active &= changed
        return values, sweeps


class CaseLanes:
    """Case analyses of several forced maps, computed as lanes of one pass.

    ``values[:, k]`` holds lane *k*'s net codes and ``sweeps[k]`` the
    fixpoint sweeps it took.  Indexing builds lane *k*'s
    :class:`CaseAnalysis` afresh, so a caller walking the lanes holds one
    analysis -- and the timing schedules memoized on it -- at a time.
    The lanes share one arc layout, so the netlist is grouped for the
    sensitization lookup once per call, not once per lane.
    """

    def __init__(
        self,
        netlist: Netlist,
        values: np.ndarray,
        sweeps: np.ndarray,
        forced: Sequence[Mapping[int, bool]],
    ):
        self.netlist = netlist
        self.values = values
        self.sweeps = sweeps
        self.forced = [dict(lane) for lane in forced]
        self.arc_layout = _ArcLayout(netlist)

    def __len__(self) -> int:
        return len(self.forced)

    def __iter__(self) -> Iterator[CaseAnalysis]:
        return (self[lane] for lane in range(len(self)))

    def __getitem__(self, lane: int) -> CaseAnalysis:
        if not -len(self) <= lane < len(self):
            raise IndexError(f"lane {lane} out of range")
        return CaseAnalysis(
            netlist=self.netlist,
            values=np.ascontiguousarray(self.values[:, lane]),
            forced=dict(self.forced[lane]),
            sweeps=int(self.sweeps[lane]),
            arc_layout=self.arc_layout,
        )


def propagate_lanes(
    netlist: Netlist,
    forced_lanes: Sequence[Mapping[int, bool]],
    max_sweeps: int = 64,
) -> CaseLanes:
    """Propagate each forced map (net index -> bool) to its fixpoint.

    Unforced primary inputs are unknown; flip-flops start at 0 and turn
    unknown (stickily) when their D value ever disagrees with their
    current value.  Raises :class:`RuntimeError` if a lane reaches no
    fixpoint within *max_sweeps* sweeps (cannot happen on a finite
    monotone lattice unless the netlist is malformed).
    """
    values, sweeps = _CaseProgram(netlist).run(forced_lanes, max_sweeps)
    return CaseLanes(netlist, values, sweeps, forced_lanes)


def propagate_constants(
    netlist: Netlist,
    forced: Mapping[int, bool],
    max_sweeps: int = 64,
) -> CaseAnalysis:
    """Propagate one forced map to a fixpoint: one lane of
    :func:`propagate_lanes`."""
    return propagate_lanes(netlist, [forced], max_sweeps)[0]


def dvas_case(
    netlist: Netlist,
    bitwidths: Sequence[int],
    buses: Optional[Mapping[str, int]] = None,
) -> CaseLanes:
    """Case analysis for DVAS accuracy modes, one lane per bitwidth.

    Lane *k* forces the lowest ``width - bitwidths[k]`` bits of every
    input bus to zero.  *buses* optionally overrides the active width
    per bus name (e.g. to gate only data inputs) in every lane; by
    default every input bus is gated to the lane's bitwidth.
    """
    forced_lanes: List[Dict[int, bool]] = []
    for active_bits in bitwidths:
        forced: Dict[int, bool] = {}
        for name, bus in netlist.input_buses.items():
            active = (
                buses.get(name, active_bits) if buses is not None
                else active_bits
            )
            active = min(active, bus.width)
            if active < 0:
                raise ValueError(f"negative active width for bus {name!r}")
            for net in bus.nets[: bus.width - active]:
                forced[net.index] = False
        forced_lanes.append(forced)
    return propagate_lanes(netlist, forced_lanes)
