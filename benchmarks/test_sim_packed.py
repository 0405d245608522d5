"""Perf bench: bit-packed activity extraction vs the interpreted engine.

Activity extraction is the simulation-bound half of the exploration
(one cycle-accurate run, each accuracy mode a lane group of it); the
packed engine exists to make it cheap.  This bench measures
``LogicSimulator.toggle_rates`` -- one lane group of the kernel
``measure_activity`` runs -- on the paper's Table 1
operators under both engines, re-checks that the per-net rates are
bit-identical, and asserts a speedup floor so a regression in the packed
path fails CI rather than silently slowing the exploration down.

The floor is deliberately conservative (measured ~12x for the 16-bit
Booth on an idle machine); small operators amortize the compile step
less, so the floor scales down under ``REPRO_BENCH_SMALL``.
"""

import time

import numpy as np

import pytest

from repro.sim.activity import _gated_stimulus
from repro.sim.simulator import LogicSimulator, SimulationMode
from tests.oracles.sim import interpreted_simulator

from .conftest import SMALL, WIDTH

CYCLES = 48
BATCH = 64
WARMUP = 4

#: Required packed/interpreted speedup on toggle extraction per operator.
#: The acceptance target is the full-size Booth (the paper's headline
#: multiplier); the others mostly guard against pathological regressions.
FLOORS = {
    "booth": 3.0 if SMALL else 10.0,
    "butterfly": 3.0 if SMALL else 8.0,
    "fir": 3.0 if SMALL else 8.0,
}


def _toggle_stimulus(netlist):
    """The exact stimulus schedule ``measure_activity`` would generate
    for one mode."""
    rng = np.random.default_rng(2017 + 977 * WIDTH)
    return [
        _gated_stimulus(rng, netlist, WIDTH, BATCH) for _ in range(CYCLES)
    ]


def _best_of(fn, rounds=3):
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


@pytest.mark.parametrize("operator", ["booth", "butterfly", "fir"])
def test_packed_activity_speedup(benchmark, bundles, operator):
    netlist = bundles[operator].factory()
    stimulus = _toggle_stimulus(netlist)

    interpreted = interpreted_simulator(netlist, SimulationMode.CYCLE)
    packed = LogicSimulator(netlist, SimulationMode.CYCLE)
    assert packed.engine == "packed"

    interpreted_time, reference = _best_of(
        lambda: interpreted.toggle_rates(stimulus, warmup_cycles=WARMUP),
        rounds=1 if SMALL else 2,
    )
    rates = benchmark.pedantic(
        lambda: packed.toggle_rates(stimulus, warmup_cycles=WARMUP),
        rounds=5,
        iterations=1,
    )
    packed_time, _ = _best_of(
        lambda: packed.toggle_rates(stimulus, warmup_cycles=WARMUP)
    )

    # Equivalence first: speed means nothing if the rates moved.
    np.testing.assert_array_equal(rates, reference)

    speedup = interpreted_time / packed_time
    print(
        f"\n{operator} ({len(netlist.cells)} cells, {CYCLES} cycles x "
        f"{BATCH} lanes): interpreted {interpreted_time * 1e3:.1f} ms, "
        f"packed {packed_time * 1e3:.1f} ms -> {speedup:.1f}x"
    )
    assert speedup > FLOORS[operator]
