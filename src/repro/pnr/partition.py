"""Alternative Vth-domain construction methods (the paper's future work).

The paper deliberately uses the simplest partitioning -- a regular grid --
and lists "the study of alternative Vth domains construction methods" as
future work.  This module provides the comparison point the ablation
benchmark uses:

* :func:`slack_oracle_domains` clusters cells purely by timing
  criticality at a chosen accuracy mode, ignoring geometry.  It is not
  physically implementable (the resulting "domains" are scattered across
  the die and could not share a well), so it serves as an *upper bound* on
  what a smarter partitioning could achieve.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.flow import ImplementedDesign
from repro.pnr.grid import DomainInsertionResult, GridPartition
from repro.sta.caseanalysis import dvas_case
from repro.sta.engine import StaEngine


def slack_oracle_domains(
    design: ImplementedDesign,
    active_bits: int,
    num_domains: int,
    vdd: Optional[float] = None,
) -> np.ndarray:
    """Assign cells to domains by slack quantile at one accuracy mode.

    Domain 0 holds the most timing-critical cells, the last domain the
    least critical ones; boosting only domain 0 then speeds up exactly the
    paths that need it.  Cells on no constrained path land in the last
    domain.
    """
    if num_domains < 1:
        raise ValueError("need at least one domain")
    library = design.netlist.library
    vdd = vdd if vdd is not None else library.process.vdd_nominal
    graph = design.timing_graph()
    engine = StaEngine(graph, library)
    case = dvas_case(design.netlist, [active_bits])[0]
    report = engine.analyze(
        design.constraint, vdd, np.ones(graph.num_cells, bool), case=case
    )
    slack = report.cell_slack_ps()

    order = np.argsort(slack, kind="stable")
    domains = np.empty(graph.num_cells, dtype=np.int64)
    bucket = max(1, graph.num_cells // num_domains)
    for rank, cell_index in enumerate(order):
        domains[cell_index] = min(rank // bucket, num_domains - 1)
    return domains


def slack_banded_partition(
    design: ImplementedDesign,
    active_bits: int,
    num_domains: int,
    vdd: Optional[float] = None,
    slack_threshold_fraction: float = 0.12,
) -> np.ndarray:
    """Contiguous horizontal bands with slack-aware boundaries.

    Unlike :func:`slack_oracle_domains`, the result is *physically
    implementable*: domains are contiguous y-bands (the same geometry as a
    ``GridPartition(num_domains, 1)``, hence the same guardband overhead),
    but the band boundaries are chosen by dynamic programming to minimize
    the number of cells inside bands that contain timing-critical logic at
    the probe accuracy -- i.e. to concentrate the must-boost cells into as
    small a boosted area as possible.
    """
    if num_domains < 1:
        raise ValueError("need at least one domain")
    library = design.netlist.library
    vdd = vdd if vdd is not None else library.process.vdd_nominal
    graph = design.timing_graph()
    engine = StaEngine(graph, library)
    case = dvas_case(design.netlist, [active_bits])[0]
    report = engine.analyze(
        design.constraint, vdd, np.ones(graph.num_cells, bool), case=case
    )
    slack = report.cell_slack_ps()
    threshold = design.constraint.period_ps * slack_threshold_fraction

    # Bucket cells into placement rows.
    row_height = design.placement.floorplan.row_height_um
    ys = design.placement.positions[:, 1]
    rows = np.floor(ys / row_height).astype(int)
    row_ids = np.unique(rows)
    num_rows = len(row_ids)
    row_of = {row: i for i, row in enumerate(row_ids)}

    row_cells = np.zeros(num_rows, dtype=np.int64)
    row_critical = np.zeros(num_rows, dtype=bool)
    for cell_index in range(graph.num_cells):
        ordinal = row_of[rows[cell_index]]
        row_cells[ordinal] += 1
        if slack[cell_index] < threshold:
            row_critical[ordinal] = True

    if num_domains >= num_rows:
        return np.asarray([row_of[rows[i]] for i in range(graph.num_cells)])

    # DP: cost of one band [i, j) = cells in it if it holds any critical
    # row, else 0.  Minimize total boosted cells over band boundaries.
    prefix_cells = np.concatenate(([0], np.cumsum(row_cells)))
    prefix_crit = np.concatenate(([0], np.cumsum(row_critical.astype(int))))

    def band_cost(i: int, j: int) -> int:
        if prefix_crit[j] - prefix_crit[i] > 0:
            return int(prefix_cells[j] - prefix_cells[i])
        return 0

    INF = 1 << 60
    cost = np.full((num_domains + 1, num_rows + 1), INF, dtype=np.int64)
    parent = np.zeros((num_domains + 1, num_rows + 1), dtype=np.int64)
    cost[0, 0] = 0
    for bands in range(1, num_domains + 1):
        for end in range(bands, num_rows + 1):
            for start in range(bands - 1, end):
                if cost[bands - 1, start] >= INF:
                    continue
                candidate = cost[bands - 1, start] + band_cost(start, end)
                if candidate < cost[bands, end]:
                    cost[bands, end] = candidate
                    parent[bands, end] = start

    # Recover boundaries.
    boundaries = [num_rows]
    position = num_rows
    for bands in range(num_domains, 0, -1):
        position = int(parent[bands, position])
        boundaries.append(position)
    boundaries.reverse()  # [0, b1, ..., num_rows]

    band_of_row = np.zeros(num_rows, dtype=np.int64)
    for band in range(num_domains):
        band_of_row[boundaries[band]:boundaries[band + 1]] = band
    return np.asarray(
        [band_of_row[row_of[rows[i]]] for i in range(graph.num_cells)]
    )


def with_custom_domains(
    design: ImplementedDesign,
    domains: np.ndarray,
    num_domains: int,
) -> ImplementedDesign:
    """A view of *design* re-partitioned into the given cell->domain map.

    Placement, parasitics and sizing are untouched; only the domain
    assignment changes (which is exactly what the ablation wants to vary).
    The synthetic partition is labelled 1 x num_domains and inherits the
    original guardband overhead so power comparisons stay apples-to-apples.
    """
    domains = np.asarray(domains, dtype=np.int64)
    if domains.shape != (len(design.netlist.cells),):
        raise ValueError("domain map must cover every cell")
    if domains.min() < 0 or domains.max() >= num_domains:
        raise ValueError("domain ids out of range")
    base_insertion = design.insertion
    insertion = DomainInsertionResult(
        placement=design.placement,
        partition=GridPartition(1, num_domains),
        domains=domains,
        area_overhead=(
            base_insertion.area_overhead if base_insertion else 0.0
        ),
        guardband_x_um=(
            base_insertion.guardband_x_um if base_insertion else 0.0
        ),
        guardband_y_um=(
            base_insertion.guardband_y_um if base_insertion else 0.0
        ),
    )
    return ImplementedDesign(
        netlist=design.netlist,
        placement=design.placement,
        parasitics=design.parasitics,
        constraint=design.constraint,
        fclk_ghz=design.fclk_ghz,
        insertion=insertion,
    )
