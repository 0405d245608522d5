"""ASCII floorplan renderings: domains, slack, density.

Terminal-friendly views of a placed design, the poor man's layout viewer.
Used by the examples and handy when tuning grid configurations: one glance
shows which domains hold the critical logic a given accuracy mode leaves
active.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.flow import ImplementedDesign
from repro.sta.caseanalysis import dvas_case
from repro.sta.engine import StaEngine

#: Density shading ramp, light to dark.
_RAMP = " .:-=+*#%@"


def _bin_cells(
    design: ImplementedDesign, bins: Tuple[int, int]
) -> Tuple[np.ndarray, np.ndarray]:
    """(row, col) bin index of every cell on the design's floorplan."""
    rows, cols = bins
    plan = design.placement.floorplan
    xs = design.placement.positions[:, 0]
    ys = design.placement.positions[:, 1]
    col = np.clip((xs / plan.width_um * cols).astype(int), 0, cols - 1)
    row = np.clip((ys / plan.height_um * rows).astype(int), 0, rows - 1)
    return row, col


def render_domains(
    design: ImplementedDesign, bins: Tuple[int, int] = (12, 24)
) -> str:
    """Render each bin's majority Vth domain as a digit (top row = top of die)."""
    rows, cols = bins
    row, col = _bin_cells(design, bins)
    domains = design.domains
    grid = np.full((rows, cols), -1, dtype=int)
    for r in range(rows):
        for c in range(cols):
            mask = (row == r) & (col == c)
            if np.any(mask):
                values, counts = np.unique(domains[mask], return_counts=True)
                grid[r, c] = int(values[np.argmax(counts)])
    lines = []
    for r in reversed(range(rows)):
        cells = [
            "." if grid[r, c] < 0 else str(grid[r, c] % 10)
            for c in range(cols)
        ]
        lines.append("|" + "".join(cells) + "|")
    return "\n".join(lines)


def render_density(
    design: ImplementedDesign, bins: Tuple[int, int] = (12, 24)
) -> str:
    """Render placed-cell area density per bin."""
    rows, cols = bins
    row, col = _bin_cells(design, bins)
    areas = np.asarray([cell.area_um2 for cell in design.netlist.cells])
    grid = np.zeros((rows, cols))
    np.add.at(grid, (row, col), areas)
    peak = grid.max() or 1.0
    lines = []
    for r in reversed(range(rows)):
        cells = [
            _RAMP[min(int(grid[r, c] / peak * (len(_RAMP) - 1)),
                      len(_RAMP) - 1)]
            for c in range(cols)
        ]
        lines.append("|" + "".join(cells) + "|")
    return "\n".join(lines)


def render_criticality(
    design: ImplementedDesign,
    active_bits: Optional[int] = None,
    vdd: Optional[float] = None,
    bins: Tuple[int, int] = (12, 24),
    slack_fraction: float = 0.12,
) -> str:
    """Render where the timing-critical cells sit at one accuracy mode.

    ``#`` bins contain critical cells (slack below ``slack_fraction`` of
    the period), ``o`` bins hold only relaxed active logic, ``.`` bins are
    fully deactivated or empty.  This is the picture behind the whole
    methodology: boost the ``#`` regions, relax the rest.
    """
    library = design.netlist.library
    vdd = vdd if vdd is not None else library.process.vdd_nominal
    graph = design.timing_graph()
    engine = StaEngine(graph, library)
    case = (
        dvas_case(design.netlist, [active_bits])[0]
        if active_bits is not None
        else None
    )
    report = engine.analyze(
        design.constraint, vdd, np.ones(graph.num_cells, bool), case=case
    )
    slack = report.cell_slack_ps()
    threshold = design.constraint.period_ps * slack_fraction
    critical = slack < threshold
    active = slack < 1e29  # on some constrained path

    rows, cols = bins
    row, col = _bin_cells(design, bins)
    lines = []
    for r in reversed(range(rows)):
        cells = []
        for c in range(cols):
            mask = (row == r) & (col == c)
            if not np.any(mask):
                cells.append(" ")
            elif np.any(critical[mask]):
                cells.append("#")
            elif np.any(active[mask]):
                cells.append("o")
            else:
                cells.append(".")
        lines.append("|" + "".join(cells) + "|")
    return "\n".join(lines)
