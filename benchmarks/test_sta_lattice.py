"""Perf bench: whole-lattice batched STA vs the pointwise scalar loop.

The optimization phase's STA half evaluates every BB combination of
every (bitwidth, VDD) knob point; the lattice engine exists to make
that a handful of tensor passes instead of thousands of scalar sweeps.
This bench measures the exact work ``evaluate_cells`` dispatches -- one
(VDD ladder x 2^NMAX combos) feasibility scan of a Table 1 multiplier --
under both engines on cold caches, re-checks bit-identity, and asserts
a speedup floor so a regression in the lattice path fails CI rather
than silently slowing exploration down.

The 16-bit Booth multiplier is the acceptance target (the paper's
headline operator): the lattice must beat the pointwise loop by >= 5x.
The 8-bit point guards the small-operator end, where fixed per-pass
overhead amortizes over fewer nets.  Measured ~8.3x (8-bit) and ~6.6x
(16-bit) on an idle machine; floors are deliberately conservative.

A second bench tracks end-to-end ``explore`` wall-clock (activity
simulation included) in the BENCH JSON so exploration-level regressions
stay visible even when the kernel floor holds.
"""

import time

import numpy as np
import pytest

from repro.core.config import ExplorationSettings
from repro.core.exploration import ExhaustiveExplorer
from repro.core.flow import implement_with_domains, select_clock_for
from repro.operators import booth_multiplier
from repro.pnr.grid import GridPartition
from repro.sta.lattice import LatticeStaEngine
from repro.techlib.library import Library
from tests.oracles.sta import analyze_pointwise, pointwise_exploration

from .conftest import SMALL

VDD_LADDER = (1.0, 0.9, 0.8, 0.7, 0.6)

#: Required lattice/pointwise speedup on the full feasibility scan.  The
#: 16-bit floor is the acceptance criterion; 5.0 exactly.
FLOORS = {8: 3.0, 16: 5.0}

WIDTHS = [8] if SMALL else [8, 16]


def _best_of(fn, rounds=3):
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _booth_engine(width, library):
    factory = lambda: booth_multiplier(library, width)
    constraint = select_clock_for(factory, library)
    design = implement_with_domains(
        factory, library, GridPartition(2, 2), constraint=constraint
    )
    engine = LatticeStaEngine(
        design.timing_graph(), library, design.domains, design.num_domains
    )
    return design, engine


@pytest.mark.parametrize("width", WIDTHS)
def test_lattice_sta_speedup(benchmark, library, width):
    design, engine = _booth_engine(width, library)

    def lattice():
        return engine.analyze_ladder(design.constraint, VDD_LADDER)

    def pointwise():
        return [
            analyze_pointwise(engine, design.constraint, vdd)
            for vdd in VDD_LADDER
        ]

    pointwise_time, reference = _best_of(pointwise, rounds=2)
    ladder = benchmark.pedantic(lattice, rounds=7, iterations=1, warmup_rounds=1)
    lattice_time, _ = _best_of(lattice, rounds=5)

    # Equivalence first: speed means nothing if the bits moved.
    for rung, ref in zip(ladder, reference):
        np.testing.assert_array_equal(rung.worst_slack_ps, ref.worst_slack_ps)
        np.testing.assert_array_equal(
            rung.critical_endpoint_net, ref.critical_endpoint_net
        )

    combos = 2 ** design.num_domains
    speedup = pointwise_time / lattice_time
    print(
        f"\nbooth{width} ({combos} combos x {len(VDD_LADDER)} VDDs): "
        f"pointwise {pointwise_time * 1e3:.2f} ms, "
        f"lattice {lattice_time * 1e3:.2f} ms -> {speedup:.1f}x"
    )
    assert speedup > FLOORS[width]


def test_explore_wall_clock_tracked(benchmark, library):
    """End-to-end exploration under the lattice engine, for BENCH JSON.

    The pointwise oracle is swapped into the same explorer's feasibility
    filter for the comparison run.  Activity simulation is shared
    between the two, so the end-to-end
    ratio is far below the kernel's; this bench exists to keep the
    explore wall-clock visible over time, with a loose sanity floor that
    the lattice engine never makes exploration *slower*.
    """
    width = 8 if SMALL else 16
    design, _ = _booth_engine(width, library)
    settings = ExplorationSettings(
        bitwidths=(width // 2, width),
        activity_cycles=16,
        activity_batch=16,
    )

    with pointwise_exploration():
        pointwise_time, reference = _best_of(
            lambda: ExhaustiveExplorer(design).run(settings),
            rounds=1 if SMALL else 2,
        )
    result = benchmark.pedantic(
        lambda: ExhaustiveExplorer(design).run(settings),
        rounds=3,
        iterations=1,
    )
    lattice_time, _ = _best_of(
        lambda: ExhaustiveExplorer(design).run(settings), rounds=2
    )

    assert result.best_per_knob_point == reference.best_per_knob_point
    assert result.feasible_counts == reference.feasible_counts

    ratio = pointwise_time / lattice_time
    print(
        f"\nbooth{width} explore: pointwise {pointwise_time * 1e3:.0f} ms, "
        f"lattice {lattice_time * 1e3:.0f} ms -> {ratio:.2f}x"
    )
    assert ratio > 1.0
