"""Extension: timing yield of the selected operating points under variation.

The exploration deliberately picks near-zero-slack points (that is where
the power minimum lives), which makes them sensitive to local Vth
variation.  This bench Monte-Carlo-samples the Booth multiplier's winning
configuration at a few accuracies and reports the yield and the clock
margin a sign-off team would add.
"""

import numpy as np

from repro.sta.variation import MonteCarloTiming
from repro.sta.caseanalysis import dvas_case

SIGMA_VTH = 0.012  # 12 mV local sigma, a plausible 28nm FDSOI value
SAMPLES = 60


def test_variation_yield(benchmark, bundles, settings, library):
    bundle = bundles["booth"]
    design = bundle.domained()
    result = bundle.proposed()
    max_bits = max(settings.bitwidths)
    probe_bits = sorted({max_bits, max_bits * 3 // 4, max_bits // 2})

    mc = MonteCarloTiming(
        design.timing_graph(), library, sigma_vth=SIGMA_VTH
    )

    def run():
        reports = {}
        for bits in probe_bits:
            point = result.best_per_bitwidth.get(bits)
            if point is None:
                continue
            fbb_cells = np.asarray(point.bb_config)[design.domains]
            reports[bits] = (
                point,
                mc.analyze_yield(
                    design.constraint,
                    point.vdd,
                    fbb_cells,
                    case=dvas_case(design.netlist, [bits])[0],
                    samples=SAMPLES,
                ),
            )
        return reports

    reports = benchmark.pedantic(run, rounds=1, iterations=1)

    print(
        f"\n--- timing yield of the winning configurations "
        f"(sigma_vth = {SIGMA_VTH * 1e3:.0f} mV, {SAMPLES} samples) ---"
    )
    for bits, (point, report) in sorted(reports.items(), reverse=True):
        print(
            f"{bits:3d} bits @ {point.vdd:.1f} V "
            f"(nominal slack {point.worst_slack_ps:+.0f} ps): "
            f"{report.summary()}"
        )
        margin = report.margin_for_yield(0.99)
        print(f"         margin for 99% yield: +{margin:.1f} ps of clock")

    # Shapes: yield is a probability; generous nominal slack means high
    # yield; and the margin recommendation is consistent with the yield.
    for bits, (point, report) in reports.items():
        assert 0.0 <= report.timing_yield <= 1.0
        if point.worst_slack_ps > 6 * report.sigma_slack_ps:
            assert report.timing_yield == 1.0
        if report.timing_yield == 1.0:
            assert report.margin_for_yield(0.9) == 0.0
