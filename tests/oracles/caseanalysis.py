"""The per-cell case-analysis walker as a test oracle.

:func:`repro.sta.caseanalysis.propagate_lanes` evaluates every mode as a
lane of one compiled, table-driven sweep.  The reference here is the
walker it replaced: cells in topological order, each evaluated on its
three-valued input codes by enumerating the unknown inputs through the
template's own ``evaluate``, flip-flops checked one by one in netlist
order.  The differential suite holds the lanes to it, values and sweep
counts alike.  :func:`reference_arc_mask` is the per-cell sensitization
walker that :meth:`CaseAnalysis.active_arc_mask` replaced with one table
lookup per template.
"""

import itertools
from typing import Dict, Mapping, Optional

import numpy as np

from repro.sta.caseanalysis import ONE, UNKNOWN, ZERO, CaseAnalysis

#: Memo of (template name, input codes) -> output codes.
_EVAL_CACHE: Dict[tuple, tuple] = {}


def _evaluate_three_valued(cell, input_codes) -> tuple:
    """Evaluate one cell on 3-valued inputs by enumerating unknowns."""
    key = (cell.template.name, tuple(int(c) for c in input_codes))
    cached = _EVAL_CACHE.get(key)
    if cached is not None:
        return cached
    unknown_positions = [i for i, c in enumerate(input_codes) if c == UNKNOWN]
    base = [bool(c) if c != UNKNOWN else False for c in input_codes]
    outcomes = None
    for combo in itertools.product(
        (False, True), repeat=len(unknown_positions)
    ):
        trial = list(base)
        for position, value in zip(unknown_positions, combo):
            trial[position] = value
        outputs = tuple(
            bool(np.asarray(o)) for o in cell.template.evaluate(*trial)
        )
        if outcomes is None:
            outcomes = [{o} for o in outputs]
        else:
            for seen, o in zip(outcomes, outputs):
                seen.add(o)
    result = tuple(
        (ONE if seen == {True} else ZERO if seen == {False} else UNKNOWN)
        for seen in outcomes
    )
    _EVAL_CACHE[key] = result
    return result


def reference_propagate(
    netlist, forced: Mapping[int, bool], max_sweeps: int = 64
) -> CaseAnalysis:
    """Propagate *forced* net values to a fixpoint, one cell at a time."""
    values = np.full(len(netlist.nets), UNKNOWN, dtype=np.uint8)
    for net_index, value in forced.items():
        values[net_index] = ONE if value else ZERO
    if netlist.clock_net is not None:
        values[netlist.clock_net.index] = UNKNOWN

    sticky_unknown = set()
    for ff in netlist.sequential_cells:
        q_index = ff.output_nets[0].index
        if q_index not in forced:
            values[q_index] = ZERO

    order = netlist.topological_cells()
    sweeps = 0
    while True:
        sweeps += 1
        if sweeps > max_sweeps:
            raise RuntimeError(
                f"case analysis did not converge in {max_sweeps} sweeps"
            )
        for cell in order:
            input_codes = [values[net.index] for net in cell.input_nets]
            outputs = _evaluate_three_valued(cell, input_codes)
            for net, code in zip(cell.output_nets, outputs):
                if net.index not in forced:
                    values[net.index] = code

        changed = False
        for ff in netlist.sequential_cells:
            q_index = ff.output_nets[0].index
            if q_index in forced or q_index in sticky_unknown:
                continue
            d_code = values[ff.input_nets[0].index]
            q_code = values[q_index]
            if d_code == q_code:
                continue
            values[q_index] = UNKNOWN
            sticky_unknown.add(q_index)
            changed = True
        if not changed:
            break

    return CaseAnalysis(
        netlist=netlist, values=values, forced=dict(forced), sweeps=sweeps
    )


def reference_dvas_case(
    netlist, active_bits: int, buses: Optional[Mapping[str, int]] = None
) -> CaseAnalysis:
    """One DVAS mode through the reference walker."""
    forced: Dict[int, bool] = {}
    for name, bus in netlist.input_buses.items():
        active = (
            buses.get(name, active_bits) if buses is not None else active_bits
        )
        active = min(active, bus.width)
        if active < 0:
            raise ValueError(f"negative active width for bus {name!r}")
        for net in bus.nets[: bus.width - active]:
            forced[net.index] = False
    return reference_propagate(netlist, forced)


#: Memo of (template name, input codes) -> sensitization matrix
#: ``matrix[in_pos][out_pos]`` (True when the input can still flip the
#: output under the given constant side inputs).
_SENS_CACHE: Dict[tuple, list] = {}


def _sensitization_matrix(template, input_codes: tuple) -> list:
    """Per-(input, output) controllability under constant side inputs."""
    key = (template.name, input_codes)
    cached = _SENS_CACHE.get(key)
    if cached is not None:
        return cached
    num_in = len(template.inputs)
    num_out = len(template.outputs)
    unknown_positions = [i for i, c in enumerate(input_codes) if c == UNKNOWN]
    matrix = [[False] * num_out for _ in range(num_in)]
    for combo in itertools.product(
        (False, True), repeat=len(unknown_positions)
    ):
        base = [bool(c) if c != UNKNOWN else False for c in input_codes]
        for position, value in zip(unknown_positions, combo):
            base[position] = value
        outputs = tuple(
            bool(np.asarray(o)) for o in template.evaluate(*base)
        )
        for in_pos in unknown_positions:
            flipped = list(base)
            flipped[in_pos] = not flipped[in_pos]
            flipped_out = tuple(
                bool(np.asarray(o)) for o in template.evaluate(*flipped)
            )
            for out_pos in range(num_out):
                if outputs[out_pos] != flipped_out[out_pos]:
                    matrix[in_pos][out_pos] = True
    _SENS_CACHE[key] = matrix
    return matrix


def reference_arc_mask(case: CaseAnalysis, graph) -> np.ndarray:
    """``case.active_arc_mask(graph)``, one cell at a time."""
    values = case.values
    mask = (values[graph.arc_from] == UNKNOWN) & (
        values[graph.arc_to] == UNKNOWN
    )
    arc_cursor = 0
    for cell in case.netlist.cells:
        if cell.is_sequential:
            continue
        num_in = len(cell.input_nets)
        num_out = len(cell.output_nets)
        input_codes = tuple(int(values[n.index]) for n in cell.input_nets)
        if any(c != UNKNOWN for c in input_codes):
            sens = _sensitization_matrix(cell.template, input_codes)
            # Graph arc order per cell: for each output, all inputs.
            for out_pos in range(num_out):
                for in_pos in range(num_in):
                    ordinal = arc_cursor + out_pos * num_in + in_pos
                    if mask[ordinal] and not sens[in_pos][out_pos]:
                        mask[ordinal] = False
        arc_cursor += num_in * num_out
    return mask
