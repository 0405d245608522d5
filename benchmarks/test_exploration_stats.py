"""Section III-C: exploration size, STA filter rate, analysis speed.

The paper reports that exhaustive exploration stays feasible because (i)
the design-point count O(2^NMAX * B * NVDD) is only thousands, (ii) about
75% of the points are filtered by a fast STA run, and (iii) the per-point
analyses take fractions of a second.  This bench reproduces those claims
and measures our engine's throughput.
"""

import time

from repro.sta.caseanalysis import dvas_case
from repro.sta.lattice import LatticeStaEngine


def test_exploration_statistics(benchmark, bundles, settings):
    bundle = bundles["booth"]
    design = bundle.domained()

    def run():
        return bundle.proposed()

    result = benchmark.pedantic(run, rounds=1, iterations=1)

    num_configs = 1 << design.num_domains
    expected_points = (
        num_configs * len(settings.bitwidths) * len(settings.vdd_values)
    )
    print(
        f"\ndesign points: {result.points_evaluated} "
        f"(2^{design.num_domains} BB x {len(settings.bitwidths)} bitwidths "
        f"x {len(settings.vdd_values)} VDDs)"
    )
    print(
        f"STA filter removed {result.filtered_fraction * 100:.1f}% "
        "(paper: ~75%)"
    )
    print(f"full exploration wall time: {result.runtime_s:.2f} s")

    assert result.points_evaluated == expected_points
    # "In the order of some thousands" for the paper's parameters.
    assert expected_points >= 1000 or design.num_domains < 6
    # The filter dominates: most points never reach power analysis.
    assert 0.5 < result.filtered_fraction < 0.995

    # Per-point STA cost: the paper quotes ~0.1 s per netlist in
    # PrimeTime; our batched engine amortizes far below that.
    graph = design.timing_graph()
    engine = LatticeStaEngine(
        graph, design.netlist.library, design.domains, design.num_domains
    )
    case = dvas_case(design.netlist, [max(settings.bitwidths) // 2])[0]
    start = time.perf_counter()
    engine.analyze(design.constraint, 0.8, case=case)
    elapsed = time.perf_counter() - start
    per_point_ms = elapsed / num_configs * 1e3
    print(
        f"lattice STA: {elapsed * 1e3:.1f} ms for {num_configs} configs "
        f"({per_point_ms:.3f} ms/config; paper: ~100 ms/config)"
    )
    assert per_point_ms < 100.0
