"""Levelized two-valued logic simulator, vectorized over a stimulus batch.

Two evaluation modes:

* ``TRANSPARENT`` -- flip-flops behave as wires (Q = D combinationally).
  Valid only for feed-forward pipelines (an error is raised if making DFFs
  transparent creates a loop); lets a whole pipeline be verified with a
  single evaluation per stimulus.
* ``CYCLE`` -- true cycle-accurate simulation: flip-flops hold state,
  inputs are applied per cycle, state advances on the (implicit) clock
  edge.  Required for the FIR (accumulator/counter/delay-line feedback).

Evaluation runs on the compiled bit-packed engine of
:mod:`repro.sim.packed`: uint64 bitplanes, 64 stimuli per word, one
vectorized bitwise op per (level, cell-template) group.  When the
netlist uses a template without a packed op, or the host is big-endian,
:class:`PackedEngine` raises :class:`PackedCompileError` and the
simulator falls back to an interpreted loop (one Python-level
evaluation per cell on ``(batch,)`` boolean arrays).  Boolean algebra
is exact, so both give the same bits.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.netlist.cell import CellInst
from repro.netlist.netlist import Netlist
from repro.sim.packed import (
    PackedCompileError,
    PackedEngine,
    lane_mask,
    popcount_rows,
    unpack_lanes,
    words_for,
)
from repro.sim.vectors import bits_to_int, int_to_bits

class SimulationMode(enum.Enum):
    TRANSPARENT = "transparent"
    CYCLE = "cycle"


class LogicSimulator:
    """Compiles a netlist once, then evaluates stimulus batches."""

    def __init__(
        self,
        netlist: Netlist,
        mode: SimulationMode = SimulationMode.CYCLE,
    ):
        self.netlist = netlist
        self.mode = mode
        self._order = self._compile_order()
        try:
            self._packed: Optional[PackedEngine] = PackedEngine(
                netlist, self._order, mode is SimulationMode.TRANSPARENT
            )
        except PackedCompileError:
            self._packed = None
        #: The engine actually in use ("packed" or "interpreted").
        self.engine = "packed" if self._packed is not None else "interpreted"

    # -- compilation -------------------------------------------------------

    def _compile_order(self) -> List[CellInst]:
        """Topological order; in TRANSPARENT mode DFFs join the order."""
        if self.mode is SimulationMode.CYCLE:
            return self.netlist.topological_cells()
        # Transparent: Kahn over all cells, DFF acting as a D->Q wire.
        in_degree: Dict[int, int] = {}
        ready: List[CellInst] = []
        for cell in self.netlist.cells:
            degree = 0
            data_inputs = self._data_inputs(cell)
            for net in data_inputs:
                if net.driver is not None:
                    degree += 1
            in_degree[cell.index] = degree
            if degree == 0:
                ready.append(cell)
        order: List[CellInst] = []
        cursor = 0
        while cursor < len(ready):
            cell = ready[cursor]
            cursor += 1
            order.append(cell)
            for net in cell.output_nets:
                for sink in net.sinks:
                    consumer = sink.cell
                    if consumer.is_sequential and sink.pin_name == "CK":
                        continue
                    in_degree[consumer.index] -= 1
                    if in_degree[consumer.index] == 0:
                        ready.append(consumer)
        if len(order) != len(self.netlist.cells):
            raise ValueError(
                "netlist has sequential feedback; TRANSPARENT mode is only "
                "valid for feed-forward pipelines -- use CYCLE mode"
            )
        return order

    @staticmethod
    def _data_inputs(cell: CellInst):
        """Input nets that carry data (the clock pin is not a dependency)."""
        if not cell.is_sequential:
            return cell.input_nets
        return [
            net
            for pin, net in zip(cell.template.inputs, cell.input_nets)
            if pin != "CK"
        ]

    # -- evaluation ---------------------------------------------------------

    def _evaluate_combinational(
        self, values: Dict[int, np.ndarray], batch: int
    ) -> None:
        """Evaluate all cells in order, updating *values* keyed by net index.

        In CYCLE mode, flip-flop outputs must be preloaded into *values*
        before calling.  Scalar results (tie cells) are broadcast to the
        batch shape so every net value has shape (batch,).
        """
        for cell in self._order:
            if cell.is_sequential:
                if self.mode is SimulationMode.TRANSPARENT:
                    d_net = cell.input_nets[0]
                    values[cell.output_nets[0].index] = values[d_net.index]
                continue
            inputs = [values[net.index] for net in cell.input_nets]
            outputs = cell.template.evaluate(*inputs)
            for net, out in zip(cell.output_nets, outputs):
                out = np.asarray(out, dtype=bool)
                if out.ndim == 0:
                    out = np.broadcast_to(out, (batch,))
                values[net.index] = out

    def _apply_inputs(
        self,
        values: Dict[int, np.ndarray],
        inputs: Mapping[str, np.ndarray],
        batch: int,
    ) -> None:
        for bus_name, words in inputs.items():
            bus = self.netlist.input_buses[bus_name]
            bit_matrix = int_to_bits(np.asarray(words), bus.width)
            if bit_matrix.shape[0] != batch:
                raise ValueError(
                    f"bus {bus_name!r}: batch {bit_matrix.shape[0]} != {batch}"
                )
            for position, net in enumerate(bus.nets):
                values[net.index] = bit_matrix[:, position]

    def _collect_outputs(
        self, values: Dict[int, np.ndarray], signed: Optional[bool]
    ) -> Dict[str, np.ndarray]:
        """Pack output buses to integers; *signed* None uses each bus's own
        declared signedness."""
        result = {}
        for bus_name, bus in self.netlist.output_buses.items():
            bits = np.stack([values[net.index] for net in bus.nets], axis=1)
            bus_signed = bus.signed if signed is None else signed
            result[bus_name] = bits_to_int(bits, signed=bus_signed)
        return result

    def run_combinational(
        self,
        inputs: Mapping[str, np.ndarray],
        signed: Optional[bool] = None,
    ) -> Dict[str, np.ndarray]:
        """Single evaluation of a feed-forward netlist (TRANSPARENT mode).

        *inputs* maps bus name to an integer array; returns bus name ->
        integer array for every output bus.
        """
        if self.mode is not SimulationMode.TRANSPARENT:
            raise ValueError("run_combinational requires TRANSPARENT mode")
        batch = len(next(iter(inputs.values())))
        missing = set(self.netlist.input_buses) - set(inputs)
        if missing:
            raise ValueError(f"missing stimulus for input buses: {sorted(missing)}")
        if self._packed is not None:
            packed = self._packed
            plane = packed.new_values(batch)
            packed.apply_inputs(plane, inputs, batch)
            packed.evaluate(plane)
            return packed.collect_outputs(plane, batch, signed)
        values: Dict[int, np.ndarray] = {}
        self._apply_inputs(values, inputs, batch)
        self._evaluate_combinational(values, batch)
        return self._collect_outputs(values, signed)

    def run_cycles(
        self,
        per_cycle_inputs: Sequence[Mapping[str, np.ndarray]],
        signed: Optional[bool] = None,
        collect_net_values: bool = False,
    ) -> "CycleTrace":
        """Cycle-accurate simulation.

        *per_cycle_inputs* is one input mapping per clock cycle; each maps
        every input bus to a (batch,) integer array.  Flip-flops start at
        zero.  Output buses are sampled combinationally at the end of each
        cycle (i.e. after the values launched by the previous edge have
        propagated).

        With *collect_net_values*, the trace also stores the boolean value
        of every net at every cycle (needed for activity extraction).
        """
        if self.mode is not SimulationMode.CYCLE:
            raise ValueError("run_cycles requires CYCLE mode")
        if not per_cycle_inputs:
            raise ValueError("need at least one cycle of stimulus")
        batch = self._infer_batch(per_cycle_inputs)
        if self._packed is not None:
            return self._run_cycles_packed(
                per_cycle_inputs, batch, signed, collect_net_values
            )
        zeros = np.zeros(batch, dtype=bool)

        state: Dict[int, np.ndarray] = {
            ff.output_nets[0].index: zeros.copy()
            for ff in self.netlist.sequential_cells
        }
        outputs_per_cycle: List[Dict[str, np.ndarray]] = []
        net_values_per_cycle: List[np.ndarray] = []

        for cycle_inputs in per_cycle_inputs:
            values: Dict[int, np.ndarray] = dict(state)
            self._apply_inputs(values, cycle_inputs, batch)
            if self.netlist.clock_net is not None:
                values[self.netlist.clock_net.index] = zeros
            self._evaluate_combinational(values, batch)
            outputs_per_cycle.append(self._collect_outputs(values, signed))
            if collect_net_values:
                stacked = np.stack(
                    [values[i] for i in range(len(self.netlist.nets))]
                )
                net_values_per_cycle.append(stacked)
            # Clock edge: capture every DFF's D input.
            state = {
                ff.output_nets[0].index: values[ff.input_nets[0].index]
                for ff in self.netlist.sequential_cells
            }
        return CycleTrace(self.netlist, outputs_per_cycle, net_values_per_cycle)

    @staticmethod
    def _infer_batch(
        per_cycle_inputs: Sequence[Mapping[str, np.ndarray]],
    ) -> int:
        """Batch size from the first non-empty cycle input (else 1:
        autonomous netlists without input buses run batch-of-one)."""
        for cycle_inputs in per_cycle_inputs:
            if cycle_inputs:
                return len(next(iter(cycle_inputs.values())))
        return 1

    def _run_cycles_packed(
        self,
        per_cycle_inputs: Sequence[Mapping[str, np.ndarray]],
        batch: int,
        signed: Optional[bool],
        collect_net_values: bool,
    ) -> "CycleTrace":
        """Cycle loop on uint64 bitplanes; same trace as the dict loop."""
        packed = self._packed
        values = packed.new_values(batch)
        state = np.zeros((len(packed.ff_q), values.shape[1]), dtype=np.uint64)
        has_state = len(packed.ff_q) > 0
        outputs_per_cycle: List[Dict[str, np.ndarray]] = []
        net_values_per_cycle: List[np.ndarray] = []
        for cycle_inputs in per_cycle_inputs:
            if has_state:
                values[packed.ff_q] = state
            packed.apply_inputs(values, cycle_inputs, batch)
            if packed.clock_index is not None:
                values[packed.clock_index] = 0
            packed.evaluate(values)
            outputs_per_cycle.append(
                packed.collect_outputs(values, batch, signed)
            )
            if collect_net_values:
                net_values_per_cycle.append(unpack_lanes(values, batch))
            if has_state:
                state = values[packed.ff_d]
        return CycleTrace(self.netlist, outputs_per_cycle, net_values_per_cycle)

    def toggle_rates(
        self,
        per_cycle_inputs: Sequence[Mapping[str, np.ndarray]],
        warmup_cycles: int = 0,
    ) -> np.ndarray:
        """Per-net average toggles per cycle, after *warmup_cycles* of
        reset transient.  The clock net is fixed at 2 transitions/cycle.

        One lane group of :meth:`toggle_rates_grouped`.
        """
        return self.toggle_rates_grouped([per_cycle_inputs], warmup_cycles)[0]

    def toggle_rates_grouped(
        self,
        schedules: Sequence[Sequence[Mapping[str, np.ndarray]]],
        warmup_cycles: int = 0,
    ) -> np.ndarray:
        """Toggle rates of independent stimulus schedules, ``(groups, nets)``.

        Every schedule is a per-cycle input sequence; all must share one
        cycle count and one batch.  On the packed engine each schedule
        is a word-aligned lane group of one cycle loop: consecutive
        post-warmup bitplane frames are XORed and popcounted into
        per-(net, group) counters, so no per-cycle net-value matrix is
        ever materialized.  The interpreted fallback runs each schedule
        through the ``collect_net_values`` path.  Both produce
        bit-identical rates, and a group's rates do not depend on the
        other groups: integer toggle counts over the same
        ``(kept_cycles - 1) * batch`` transitions.
        """
        if self.mode is not SimulationMode.CYCLE:
            raise ValueError("toggle_rates requires CYCLE mode")
        if not schedules:
            return np.empty((0, len(self.netlist.nets)))
        cycles = len(schedules[0])
        if cycles == 0:
            raise ValueError("need at least one cycle of stimulus")
        if cycles - warmup_cycles < 2:
            raise ValueError("need at least two cycles to count toggles")
        batch = self._infer_batch(schedules[0])
        for schedule in schedules[1:]:
            if len(schedule) != cycles or self._infer_batch(schedule) != batch:
                raise ValueError(
                    "lane groups must share one cycle count and one batch"
                )
        if self._packed is None:
            return np.stack(
                [self._toggle_rates_interpreted(s, warmup_cycles)
                 for s in schedules]
            )
        return self._toggle_rates_packed(schedules, batch, warmup_cycles)

    def _toggle_rates_interpreted(
        self,
        per_cycle_inputs: Sequence[Mapping[str, np.ndarray]],
        warmup_cycles: int,
    ) -> np.ndarray:
        trace = self.run_cycles(per_cycle_inputs, collect_net_values=True)
        trace.net_values_per_cycle = trace.net_values_per_cycle[warmup_cycles:]
        return trace.toggle_counts()

    def _toggle_rates_packed(
        self,
        schedules: Sequence[Sequence[Mapping[str, np.ndarray]]],
        batch: int,
        warmup_cycles: int,
    ) -> np.ndarray:
        packed = self._packed
        groups = len(schedules)
        group_words = words_for(batch)
        # Group g owns words [g * group_words, (g + 1) * group_words).
        values = np.zeros(
            (packed.num_nets, groups * group_words), dtype=np.uint64
        )
        state = np.zeros((len(packed.ff_q), values.shape[1]), dtype=np.uint64)
        has_state = len(packed.ff_q) > 0
        # Padding lanes of each group's last word can flip (TIEHI sets
        # them, autonomous feedback evolves them) -- mask them out.
        tail_mask = lane_mask(batch)[-1]
        partial_tail = batch % 64 != 0
        counts = np.zeros((packed.num_nets, groups), dtype=np.int64)
        previous: Optional[np.ndarray] = None
        flips = np.empty_like(values)
        flips_by_group = flips.reshape(packed.num_nets, groups, group_words)
        prepacked = self._prepack_groups(schedules, batch)
        for cycle in range(len(schedules[0])):
            if has_state:
                values[packed.ff_q] = state
            if prepacked is not None:
                for bus_rows, planes in prepacked:
                    values[bus_rows] = planes[cycle]
            else:
                for g, schedule in enumerate(schedules):
                    group = values[:, g * group_words:(g + 1) * group_words]
                    packed.apply_inputs(group, schedule[cycle], batch)
            if packed.clock_index is not None:
                values[packed.clock_index] = 0
            packed.evaluate(values)
            if has_state:
                state = values[packed.ff_d]
            if cycle < warmup_cycles:
                continue
            if previous is None:
                previous = np.empty_like(values)
            else:
                np.bitwise_xor(values, previous, out=flips)
                if partial_tail:
                    flips_by_group[:, :, -1] &= tail_mask
                counts += popcount_rows(
                    flips.reshape(-1, group_words)
                ).reshape(packed.num_nets, groups)
            previous[:, :] = values
        kept = len(schedules[0]) - warmup_cycles
        transitions = (kept - 1) * batch
        rates = counts.transpose().astype(np.float64) / transitions
        if packed.clock_index is not None:
            rates[:, packed.clock_index] = 2.0
        return rates

    def _prepack_groups(
        self,
        schedules: Sequence[Sequence[Mapping[str, np.ndarray]]],
        batch: int,
    ) -> Optional[List[Tuple[np.ndarray, np.ndarray]]]:
        """Every group's prepacked bus planes side by side on the word
        axis, or ``None`` when a schedule's bus set varies (the per-cycle
        apply path then handles it)."""
        plans = [
            self._packed.prepack_cycles(schedule, batch)
            for schedule in schedules
        ]
        if any(plan is None for plan in plans):
            return None
        first = plans[0]
        if any(
            len(plan) != len(first)
            or any(a[0] is not b[0] for a, b in zip(plan, first))
            for plan in plans[1:]
        ):
            return None
        return [
            (rows, np.concatenate([plan[i][1] for plan in plans], axis=2))
            for i, (rows, _) in enumerate(first)
        ]


class CycleTrace:
    """Results of a cycle-accurate run."""

    def __init__(
        self,
        netlist: Netlist,
        outputs_per_cycle: List[Dict[str, np.ndarray]],
        net_values_per_cycle: List[np.ndarray],
    ):
        self.netlist = netlist
        self.outputs_per_cycle = outputs_per_cycle
        self.net_values_per_cycle = net_values_per_cycle

    def output(self, bus: str, cycle: int) -> np.ndarray:
        """Integer value of output *bus* at *cycle*."""
        return self.outputs_per_cycle[cycle][bus]

    @property
    def cycles(self) -> int:
        return len(self.outputs_per_cycle)

    def toggle_counts(self) -> np.ndarray:
        """Average toggles per net per cycle, shape (num_nets,).

        Requires the run to have collected net values.  The clock net is
        assigned the conventional 2 transitions per cycle.
        """
        if not self.net_values_per_cycle:
            raise ValueError("run_cycles(collect_net_values=True) required")
        if len(self.net_values_per_cycle) < 2:
            raise ValueError("need at least two cycles to count toggles")
        # Shape (cycles, num_nets, batch): XOR consecutive cycles, then sum
        # over cycles and batch.
        history = np.stack(self.net_values_per_cycle)
        flips = history[1:] != history[:-1]
        transitions = flips.shape[0] * flips.shape[2]
        rates = flips.sum(axis=(0, 2)).astype(np.float64) / transitions
        if self.netlist.clock_net is not None:
            rates[self.netlist.clock_net.index] = 2.0
        return rates
