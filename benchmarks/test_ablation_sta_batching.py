"""Ablation: batched STA vs per-configuration STA loop.

The paper's exploration leans on STA being cheap (~0.1 s per run in
PrimeTime).  Our engine goes further: one levelized numpy sweep evaluates
all 2^NMAX back-bias assignments simultaneously.  This bench measures the
speedup of the lattice sweep over the straightforward loop of
single-configuration analyses (both produce bit-identical worst slacks,
which the test also re-checks).
"""

import time

import numpy as np

from repro.sta.caseanalysis import dvas_case
from repro.sta.engine import StaEngine
from repro.sta.lattice import LatticeStaEngine, all_bb_configs


def _best_of(fn, rounds=3):
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_sta_batching_speedup(benchmark, bundles, settings):
    bundle = bundles["booth"]
    design = bundle.domained()
    library = design.netlist.library
    graph = design.timing_graph()
    case = dvas_case(design.netlist, [max(settings.bitwidths) // 2])[0]
    configs = all_bb_configs(design.num_domains)
    vdd = 0.9

    lattice_engine = LatticeStaEngine(
        graph, library, design.domains, design.num_domains
    )

    def batched():
        return lattice_engine.analyze(design.constraint, vdd, case=case)

    benchmark.pedantic(batched, rounds=3, iterations=1)

    single_engine = StaEngine(graph, library)

    def looped():
        return [
            single_engine.analyze(
                design.constraint, vdd, config[design.domains], case=case,
                compute_required=False,
            ).worst_slack_ps
            for config in configs
        ]

    loop_time, loop_slacks = _best_of(looped)
    batch_time, batch_result = _best_of(batched)

    speedup = loop_time / batch_time
    print(
        f"\nper-config loop: {loop_time * 1e3:.1f} ms for "
        f"{len(configs)} configs; lattice sweep: {batch_time * 1e3:.1f} ms "
        f"-> {speedup:.1f}x speedup (best of 3 each)"
    )

    # Equivalence: both engines agree bit for bit on every configuration.
    np.testing.assert_array_equal(batch_result.worst_slack_ps, loop_slacks)
    # The batched sweep must amortize meaningfully.
    assert speedup > 2.0
