"""Compiled bit-packed logic simulation (the fast engine).

The interpreted path in :mod:`repro.sim.simulator` walks the netlist one
cell at a time, evaluating each gate on a ``(batch,)`` boolean array --
cheap per gate, but the per-cell Python dispatch dominates once activity
extraction multiplies simulations by accuracy modes.  This module
compiles the netlist once into flat numpy index arrays grouped by
(topological level, cell template) and packs the stimulus batch into
uint64 bitplanes, 64 stimuli per machine word: one vectorized bitwise
expression then evaluates *every* cell of one type at one level across
the whole batch.

Bitplane layout: net values live in a ``(num_nets, words)`` uint64
matrix with ``words = ceil(batch / 64)``; stimulus lane *k* is bit
``k % 64`` of word ``k // 64`` (little-endian bit order, matching
``np.packbits(..., bitorder="little")``).  Lanes past the batch -- the
padding of the last word -- carry garbage (e.g. TIEHI sets them all);
they are masked out of popcounts and never unpacked.

Cells at the same topological level cannot depend on each other (a
cell's level is ``max(input levels) + 1``), so each (level, template)
group is one gather / bitwise-op / scatter on whole rows of the value
matrix.  Boolean algebra on packed words is exact, which is what makes
the packed engine bit-identical to the interpreted one -- a property the
differential suite checks on random netlists.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.netlist.cell import CellInst
from repro.netlist.netlist import Netlist
from repro.sim.vectors import bits_to_int, int_to_bits
from repro.techlib.cells import CellTemplate

#: Stimulus lanes per machine word.
WORD_BITS = 64

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


class PackedCompileError(ValueError):
    """The netlist (or platform) cannot use the packed engine."""


def _packed_fa(a, b, ci):
    axb = a ^ b
    return (axb ^ ci, (a & b) | (ci & axb))


#: Bitwise evaluation per combinational cell template, operating on
#: ``(cells_in_group, words)`` uint64 matrices.  Input order matches the
#: template's pin order; tie cells (no inputs) are constant fills handled
#: by :data:`_TIE_VALUES`.
_PACKED_OPS: Dict[str, Callable[..., Tuple[np.ndarray, ...]]] = {
    "INV": lambda a: (~a,),
    "BUF": lambda a: (a,),
    "NAND2": lambda a, b: (~(a & b),),
    "NAND3": lambda a, b, c: (~(a & b & c),),
    "NOR2": lambda a, b: (~(a | b),),
    "NOR3": lambda a, b, c: (~(a | b | c),),
    "AND2": lambda a, b: (a & b,),
    "AND3": lambda a, b, c: (a & b & c,),
    "OR2": lambda a, b: (a | b,),
    "OR3": lambda a, b, c: (a | b | c,),
    "XOR2": lambda a, b: (a ^ b,),
    "XNOR2": lambda a, b: (~(a ^ b),),
    "AOI21": lambda a, b, c: (~((a & b) | c),),
    "OAI21": lambda a, b, c: (~((a | b) & c),),
    "MUX2": lambda a, b, s: ((a & ~s) | (b & s),),
    "HA": lambda a, b: (a ^ b, a & b),
    "FA": _packed_fa,
}

#: Constant word value per tie template.
_TIE_VALUES: Dict[str, np.uint64] = {
    "TIELO": np.uint64(0),
    "TIEHI": _ALL_ONES,
}


if hasattr(np, "bitwise_count"):

    def popcount_rows(words: np.ndarray) -> np.ndarray:
        """Total set bits per row of a ``(rows, words)`` uint64 matrix."""
        return np.bitwise_count(words).sum(axis=1, dtype=np.int64)

else:  # pragma: no cover - numpy < 2.0
    _POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

    def popcount_rows(words: np.ndarray) -> np.ndarray:
        """Total set bits per row of a ``(rows, words)`` uint64 matrix."""
        as_bytes = np.ascontiguousarray(words).view(np.uint8)
        return _POP8[as_bytes].sum(axis=1, dtype=np.int64)


def words_for(batch: int) -> int:
    """Number of uint64 words holding *batch* lanes."""
    return -(-batch // WORD_BITS)


def pack_lanes(bits: np.ndarray) -> np.ndarray:
    """Pack a ``(rows, batch)`` boolean matrix into uint64 lane words.

    Returns ``(rows, words)``; padding lanes of the last word are zero.
    """
    bits = np.asarray(bits, dtype=bool)
    rows, batch = bits.shape
    width = words_for(batch) * WORD_BITS
    if batch != width:
        padded = np.zeros((rows, width), dtype=bool)
        padded[:, :batch] = bits
        bits = padded
    packed = np.packbits(bits, axis=1, bitorder="little")
    return np.ascontiguousarray(packed).view(np.uint64)


def unpack_lanes(words: np.ndarray, batch: int) -> np.ndarray:
    """Inverse of :func:`pack_lanes`: ``(rows, words)`` -> ``(rows, batch)``."""
    as_bytes = np.ascontiguousarray(words).view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=1, count=batch, bitorder="little")
    return bits.astype(bool)


def lane_mask(batch: int) -> np.ndarray:
    """``(words,)`` uint64 mask with only the first *batch* lanes set."""
    mask = np.full(words_for(batch), _ALL_ONES, dtype=np.uint64)
    tail = batch % WORD_BITS
    if tail:
        mask[-1] = np.uint64((1 << tail) - 1)
    return mask


@dataclass(frozen=True)
class CellGroup:
    """The cells of one template at one topological level, as index rows.

    Cells at one level cannot read each other's outputs, so a group is
    evaluated as one gather of ``in_flat`` (pin-major: the rows of pin
    0 of every member, then pin 1, ...), one vectorized op and one
    scatter per output pin into ``out_cols``.  ``template`` is the
    template of the group's first member; ``op_name`` is the template
    name all members share, or ``"BUF"`` for flip-flops made transparent
    (Q = D), which may then share a group with buffers.
    """

    op_name: str
    template: CellTemplate
    in_flat: np.ndarray
    num_in: int
    size: int
    out_cols: Tuple[np.ndarray, ...]


def compile_groups(
    order: Sequence[CellInst], num_nets: int, transparent: bool
) -> List[CellGroup]:
    """Group an evaluation *order* by (topological level, template).

    The level is recomputed from the order (not the netlist) so
    TRANSPARENT mode, where flip-flops join the order as D->Q wires,
    levelizes too.  Groups come back in ascending level order, which is
    a valid evaluation order.  Raises :class:`PackedCompileError` for a
    flip-flop in a non-transparent order.
    """
    net_level = [0] * num_nets
    grouped: Dict[
        Tuple[int, str], Tuple[CellTemplate, List[Tuple[List[int], List[int]]]]
    ] = {}
    for cell in order:
        if cell.is_sequential:
            if not transparent:
                raise PackedCompileError(
                    "sequential cell in a CYCLE-mode combinational order"
                )
            op_name = "BUF"  # transparent DFF: Q = D
            in_idx = [cell.input_nets[0].index]
            out_idx = [cell.output_nets[0].index]
        else:
            op_name = cell.template.name
            in_idx = [net.index for net in cell.input_nets]
            out_idx = [net.index for net in cell.output_nets]
        level = max((net_level[index] for index in in_idx), default=0)
        for index in out_idx:
            net_level[index] = level + 1
        grouped.setdefault((level, op_name), (cell.template, []))[1].append(
            (in_idx, out_idx)
        )

    # All input rows of a group are gathered with a single pre-raveled
    # ``take`` (an order of magnitude cheaper than one fancy index per
    # pin) and reshaped to (pins, cells_in_group, lanes).
    groups: List[CellGroup] = []
    for level, op_name in sorted(grouped):
        template, members = grouped[(level, op_name)]
        num_in = len(members[0][0])
        groups.append(
            CellGroup(
                op_name=op_name,
                template=template,
                in_flat=np.asarray(
                    [m[0][pin] for pin in range(num_in) for m in members],
                    dtype=np.intp,
                ),
                num_in=num_in,
                size=len(members),
                out_cols=tuple(
                    np.asarray([m[1][pin] for m in members], dtype=np.intp)
                    for pin in range(len(members[0][1]))
                ),
            )
        )
    return groups


class PackedEngine:
    """One netlist compiled to level/template-grouped bitplane operations.

    The compile step happens once per :class:`~repro.sim.simulator.LogicSimulator`;
    evaluation then touches no Python-level per-cell state.  Construction
    raises :class:`PackedCompileError` when a cell template has no packed
    op or the host is big-endian (the uint64 view of packed bytes assumes
    little-endian lane order).
    """

    def __init__(
        self,
        netlist: Netlist,
        order: Sequence[CellInst],
        transparent: bool,
    ):
        if sys.byteorder != "little":  # pragma: no cover - exotic host
            raise PackedCompileError(
                "packed engine requires a little-endian host"
            )
        self.netlist = netlist
        self.num_nets = len(netlist.nets)
        self.transparent = transparent
        self.clock_index = (
            netlist.clock_net.index if netlist.clock_net is not None else None
        )

        # Each group becomes one gather / bitwise op / scatter.
        self._groups: List[tuple] = []
        for group in compile_groups(order, self.num_nets, transparent):
            if group.op_name in _TIE_VALUES:
                self._groups.append(
                    (None, _TIE_VALUES[group.op_name], None, 0, 0,
                     group.out_cols)
                )
            elif group.op_name in _PACKED_OPS:
                self._groups.append(
                    (
                        _PACKED_OPS[group.op_name],
                        None,
                        group.in_flat,
                        group.num_in,
                        group.size,
                        group.out_cols,
                    )
                )
            else:
                raise PackedCompileError(
                    f"no packed op for cell template {group.op_name!r}"
                )

        # Flip-flop state rows for CYCLE mode.
        sequential = netlist.sequential_cells
        self.ff_q = np.asarray(
            [cell.output_nets[0].index for cell in sequential], dtype=np.intp
        )
        self.ff_d = np.asarray(
            [cell.input_nets[0].index for cell in sequential], dtype=np.intp
        )

        # Port-bus net rows, precomputed for apply/collect.
        self._bus_rows = {
            name: np.asarray([net.index for net in bus.nets], dtype=np.intp)
            for name, bus in netlist.input_buses.items()
        }
        self._out_bus_rows = {
            name: np.asarray([net.index for net in bus.nets], dtype=np.intp)
            for name, bus in netlist.output_buses.items()
        }

    # -- evaluation ---------------------------------------------------------

    def new_values(self, batch: int) -> np.ndarray:
        """A zeroed ``(num_nets, words)`` value matrix for *batch* lanes."""
        return np.zeros((self.num_nets, words_for(batch)), dtype=np.uint64)

    def evaluate(self, values: np.ndarray) -> None:
        """Evaluate every compiled group in level order, in place."""
        words = values.shape[1]
        for op, fill, in_flat, num_in, group_size, out_cols in self._groups:
            if op is None:
                for col in out_cols:
                    values[col] = fill
                continue
            gathered = values.take(in_flat, axis=0).reshape(
                num_in, group_size, words
            )
            outputs = op(*gathered)
            for col, out in zip(out_cols, outputs):
                values[col] = out

    def apply_inputs(
        self,
        values: np.ndarray,
        inputs: Mapping[str, np.ndarray],
        batch: int,
    ) -> None:
        """Pack integer bus stimulus into the value matrix."""
        for bus_name, stim_words in inputs.items():
            bus = self.netlist.input_buses[bus_name]
            bit_matrix = int_to_bits(np.asarray(stim_words), bus.width)
            if bit_matrix.shape[0] != batch:
                raise ValueError(
                    f"bus {bus_name!r}: batch {bit_matrix.shape[0]} != {batch}"
                )
            values[self._bus_rows[bus_name]] = pack_lanes(bit_matrix.T)

    def prepack_cycles(
        self,
        per_cycle_inputs: Sequence[Mapping[str, np.ndarray]],
        batch: int,
    ) -> Optional[List[Tuple[np.ndarray, np.ndarray]]]:
        """Pack a whole stimulus schedule into per-bus bitplane stacks.

        Returns ``[(bus_net_rows, planes)]`` in bus-name order, with
        ``planes`` of shape ``(cycles, width, words)`` -- one ``packbits``
        per bus instead of one per (bus, cycle), which is what makes the
        streaming toggle loop cheap.  Returns ``None`` when the bus set
        varies between cycles (the per-cycle apply path handles that
        general case).
        """
        if not per_cycle_inputs:
            return None
        names = set(per_cycle_inputs[0])
        if any(set(cycle) != names for cycle in per_cycle_inputs[1:]):
            return None
        cycles = len(per_cycle_inputs)
        plan: List[Tuple[np.ndarray, np.ndarray]] = []
        for name in sorted(names):
            bus = self.netlist.input_buses[name]
            stim = [np.asarray(cycle[name]) for cycle in per_cycle_inputs]
            for cycle_stim in stim:
                if len(cycle_stim) != batch:
                    raise ValueError(
                        f"bus {name!r}: batch {len(cycle_stim)} != {batch}"
                    )
            bits = int_to_bits(np.concatenate(stim), bus.width)
            per_net = (
                bits.reshape(cycles, batch, bus.width)
                .transpose(0, 2, 1)
                .reshape(cycles * bus.width, batch)
            )
            planes = pack_lanes(per_net).reshape(cycles, bus.width, -1)
            plan.append((self._bus_rows[name], planes))
        return plan

    def collect_outputs(
        self, values: np.ndarray, batch: int, signed: Optional[bool]
    ) -> Dict[str, np.ndarray]:
        """Unpack output buses back to integers (bus signedness by default)."""
        result = {}
        for name, bus in self.netlist.output_buses.items():
            bits = unpack_lanes(values[self._out_bus_rows[name]], batch)
            bus_signed = bus.signed if signed is None else signed
            result[name] = bits_to_int(bits.T, signed=bus_signed)
        return result
