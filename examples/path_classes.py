#!/usr/bin/env python3
"""Fig. 2 in action: how LSB gating reclassifies timing paths.

The paper's Fig. 2 splits an operator's endpoints, under a reduced input
bitwidth, into (1) disabled paths (constant logic), (2) positive-slack
paths and (3) negative-slack paths.  The proposed method must only boost
region(s) containing set (3).

This example sweeps the accuracy knob of a 16x16 Booth multiplier at a
scaled supply and prints the evolution of the three sets, plus the slack
histogram at two representative modes.

Run time: a few seconds.
"""

import numpy as np

from repro import Library, implement_base
from repro.core.flow import select_clock_for
from repro.operators import booth_multiplier
from repro.sta.caseanalysis import dvas_case
from repro.sta.engine import StaEngine
from repro.sta.histogram import slack_histogram

WIDTH = 16
VDD = 0.8  # a scaled supply where the full-width operator violates timing


def main():
    library = Library()

    def factory():
        return booth_multiplier(library, WIDTH)

    constraint = select_clock_for(factory, library)
    design = implement_base(factory, library, constraint=constraint)
    print(design.describe())
    print(
        f"\npath classification at VDD = {VDD} V, clock "
        f"{design.fclk_ghz:.2f} GHz (sets (1)/(2)/(3) of the paper's Fig. 2):"
    )

    engine = StaEngine(design.timing_graph(), library)
    fbb = np.ones(len(design.netlist.cells), bool)
    print(
        f"{'bits':>5s} {'disabled':>9s} {'positive':>9s} {'negative':>9s} "
        f"{'compliant?':>11s}"
    )
    reports = {}
    bitwidths = range(WIDTH, 0, -1)
    for bits, case in zip(bitwidths, dvas_case(design.netlist, bitwidths)):
        report = engine.analyze(design.constraint, VDD, fbb, case=case)
        reports[bits] = report
        counts = report.path_class_counts()
        print(
            f"{bits:5d} {counts['disabled']:9d} {counts['positive_slack']:9d} "
            f"{counts['negative_slack']:9d} "
            f"{'yes' if counts['negative_slack'] == 0 else 'no':>11s}"
        )

    compliant = [
        bits for bits, report in reports.items() if report.feasible
    ]
    if compliant:
        best = max(compliant)
        print(
            f"\nmaximum usable dynamic at {VDD} V: {best} bits -- "
            "this is DVAS's accuracy/voltage trade in one number."
        )
    else:
        print(f"\nno bitwidth is timing-compliant at {VDD} V on this die.")

    for bits in (WIDTH, max(compliant) if compliant else 1):
        print(f"\nendpoint slack histogram at {bits} active bits:")
        span = design.constraint.period_ps / 2
        print(
            slack_histogram(
                reports[bits], num_bins=12, bin_range_ps=(-span, span)
            ).format_text(width=40)
        )


if __name__ == "__main__":
    main()
