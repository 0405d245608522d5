"""Critical-path extraction and PrimeTime-style path reports.

``report_timing`` walks back from the worst (or a chosen) endpoint through
the arcs that determined its arrival time and renders the familiar
stage-by-stage table: cell, drive, incremental delay, cumulative arrival.
Used interactively to understand *why* a configuration fails timing and by
the flow's debugging utilities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.sta.caseanalysis import CaseAnalysis
from repro.sta.engine import StaEngine, TimingReport


@dataclass(frozen=True)
class PathStage:
    """One hop of a timing path."""

    net_name: str
    cell_name: str
    template: str
    drive: str
    incremental_ps: float
    arrival_ps: float


@dataclass
class TimingPath:
    """A launch-to-endpoint path with its slack."""

    stages: List[PathStage]
    endpoint_net: str
    slack_ps: float
    required_ps: float

    @property
    def arrival_ps(self) -> float:
        return self.stages[-1].arrival_ps

    @property
    def depth(self) -> int:
        """Number of combinational stages traversed."""
        return max(len(self.stages) - 1, 0)

    def format_text(self) -> str:
        lines = [
            f"{'net':34s} {'cell':22s} {'incr':>8s} {'arrival':>9s}",
            "-" * 76,
        ]
        for stage in self.stages:
            cell = (
                f"{stage.cell_name} ({stage.template}/{stage.drive})"
                if stage.cell_name
                else "(launch)"
            )
            lines.append(
                f"{stage.net_name:34s} {cell:22s} "
                f"{stage.incremental_ps:8.1f} {stage.arrival_ps:9.1f}"
            )
        lines.append("-" * 76)
        lines.append(
            f"data arrival {self.arrival_ps:9.1f} ps   "
            f"required {self.required_ps:9.1f} ps   "
            f"slack {self.slack_ps:+9.1f} ps "
            f"({'MET' if self.slack_ps >= 0 else 'VIOLATED'})"
        )
        return "\n".join(lines)


def extract_path(
    engine: StaEngine,
    report: TimingReport,
    vdd: float,
    fbb_cells: np.ndarray,
    endpoint_ordinal: Optional[int] = None,
    case: Optional[CaseAnalysis] = None,
) -> Optional[TimingPath]:
    """Trace the path that set the arrival of one endpoint.

    *endpoint_ordinal* indexes ``graph.endpoint_nets``; by default the
    worst active endpoint is chosen.  Returns ``None`` when no endpoint is
    active (fully gated design).
    """
    graph = engine.graph
    netlist = graph.netlist
    active = report.endpoint_active
    if not np.any(active):
        return None
    if endpoint_ordinal is None:
        slack = np.where(active, report.endpoint_slack_ps, np.inf)
        endpoint_ordinal = int(np.argmin(slack))
    elif not active[endpoint_ordinal]:
        return None

    factors = engine.cell_delay_factors(vdd, np.asarray(fbb_cells, dtype=bool))
    arc_delay = graph.arc_delay_ps * factors[graph.arc_cell]
    if case is None:
        arc_active = np.ones(len(graph.arc_from), dtype=bool)
    else:
        arc_active = case.active_arc_mask(graph)

    arrival = report.arrival_ps
    target = int(graph.endpoint_nets[endpoint_ordinal])
    stages: List[PathStage] = []
    current = target
    guard = 0
    while guard < graph.num_nets:
        guard += 1
        arcs = np.nonzero((graph.arc_to == current) & arc_active)[0]
        if len(arcs) == 0:
            break
        candidates = arrival[graph.arc_from[arcs]] + arc_delay[arcs]
        winner = arcs[int(np.argmax(candidates))]
        if abs(candidates.max() - arrival[current]) > 0.5:
            break  # arrival came from the launch init, not an arc
        cell = netlist.cells[int(graph.arc_cell[winner])]
        stages.append(
            PathStage(
                net_name=netlist.nets[current].name,
                cell_name=cell.name,
                template=cell.template.name,
                drive=cell.drive_name,
                incremental_ps=float(arc_delay[winner]),
                arrival_ps=float(arrival[current]),
            )
        )
        current = int(graph.arc_from[winner])

    stages.append(
        PathStage(
            net_name=netlist.nets[current].name,
            cell_name="",
            template="",
            drive="",
            incremental_ps=0.0,
            arrival_ps=float(arrival[current]),
        )
    )
    stages.reverse()

    required = report.constraint.effective_period_ps
    ep_cell = int(graph.endpoint_cell[endpoint_ordinal])
    if ep_cell >= 0:
        required -= graph.endpoint_setup_ps[endpoint_ordinal] * factors[ep_cell]
    return TimingPath(
        stages=stages,
        endpoint_net=netlist.nets[target].name,
        slack_ps=float(report.endpoint_slack_ps[endpoint_ordinal]),
        required_ps=float(required),
    )


def report_timing(
    engine: StaEngine,
    constraint,
    vdd: float,
    fbb_cells: np.ndarray,
    case: Optional[CaseAnalysis] = None,
    max_paths: int = 1,
) -> List[TimingPath]:
    """Analyze and return the *max_paths* worst paths (PrimeTime style)."""
    report = engine.analyze(
        constraint, vdd, fbb_cells, case=case, compute_required=False
    )
    slack = np.where(
        report.endpoint_active, report.endpoint_slack_ps, np.inf
    )
    order = np.argsort(slack, kind="stable")
    paths = []
    for ordinal in order[:max_paths]:
        if not report.endpoint_active[ordinal]:
            break
        path = extract_path(
            engine, report, vdd, fbb_cells,
            endpoint_ordinal=int(ordinal), case=case,
        )
        if path is not None:
            paths.append(path)
    return paths
