"""STA references for the lattice kernel and the lattice search.

:class:`~repro.sta.lattice.LatticeStaEngine` sweeps many back-bias
combinations in one tensor pass.  The reference it is held to, bit for
bit, is one :meth:`~repro.sta.engine.StaEngine.analyze` call per
combination.  ``ExhaustiveExplorer._ladder_slacks`` searches the lattice
instead of sweeping it; its reference is the exhaustive sweep, one full
lattice pass per bitwidth (:func:`full_ladder_slacks`).
"""

import contextlib
from typing import List, Optional, Sequence

import numpy as np
import pytest

from repro.core.exploration import ExhaustiveExplorer
from repro.sta.caseanalysis import CaseAnalysis
from repro.sta.constraints import ClockConstraint
from repro.sta.engine import StaEngine
from repro.sta.lattice import (
    LatticeStaEngine,
    LatticeTimingResult,
    all_bb_configs,
)


def analyze_pointwise(
    engine: LatticeStaEngine,
    constraint: ClockConstraint,
    vdd: float,
    configs: Optional[np.ndarray] = None,
    case: Optional[CaseAnalysis] = None,
) -> LatticeTimingResult:
    """What ``engine.analyze`` returns, one scalar sweep per combination."""
    if configs is None:
        configs = all_bb_configs(engine.num_domains)
    configs = np.asarray(configs, dtype=bool)
    scalar = StaEngine(engine.graph, engine.library)
    worst = np.empty(len(configs))
    critical = np.empty(len(configs), dtype=np.int64)
    for k, config in enumerate(configs):
        if engine.num_domains == 0:
            fbb_cells = np.zeros(engine.graph.num_cells, dtype=bool)
        else:
            fbb_cells = config[engine.domains]
        report = scalar.analyze(
            constraint, vdd, fbb_cells, case=case, compute_required=False
        )
        worst[k] = report.worst_slack_ps
        critical[k] = report.critical_endpoint_net
    return LatticeTimingResult(
        constraint=constraint,
        vdd=vdd,
        configs=configs,
        worst_slack_ps=worst,
        critical_endpoint_net=critical,
    )


def pointwise_ladder_slacks(
    explorer: ExhaustiveExplorer,
    vdd_values: Sequence[float],
    configs: np.ndarray,
    case,
) -> List[np.ndarray]:
    """Drop-in for ``ExhaustiveExplorer._ladder_slacks``: one pointwise
    loop per VDD rung instead of one stacked lattice pass."""
    return [
        analyze_pointwise(
            explorer.lattice_engine,
            explorer.design.constraint,
            vdd,
            configs=configs,
            case=case,
        ).worst_slack_ps
        for vdd in vdd_values
    ]


def full_ladder_slacks(
    explorer: ExhaustiveExplorer,
    vdd_values: Sequence[float],
    configs: np.ndarray,
    case,
) -> List[np.ndarray]:
    """Drop-in for ``ExhaustiveExplorer._ladder_slacks``: every
    assignment through STA, in one stacked pass over the whole ladder."""
    ladder = explorer.lattice_engine.analyze_ladder(
        explorer.design.constraint,
        vdd_values,
        configs=[configs] * len(vdd_values),
        case=case,
    )
    return [result.worst_slack_ps for result in ladder]


def force_pointwise(monkeypatch) -> None:
    """Route every exploration's feasibility filter through the loop."""
    monkeypatch.setattr(
        ExhaustiveExplorer, "_ladder_slacks", pointwise_ladder_slacks
    )


@contextlib.contextmanager
def pointwise_exploration():
    """Scope in which explorations run the pointwise STA oracle."""
    with pytest.MonkeyPatch.context() as patch:
        force_pointwise(patch)
        yield
