#!/usr/bin/env python3
"""Runtime accuracy adaptation: the IoT scenario from the paper's intro.

The paper motivates adequate operators with "mobile and IoT applications
[that] must balance increasing processing demands with limited power
budgets" and "time-varying tolerance to errors".  This example closes the
loop: it builds the mode table for a Booth multiplier, then drives it from
an :class:`AccuracyController`'s compiled table through the serve
scheduler's ``replay_trace`` on a bursty sensing workload --
long low-precision monitoring phases punctuated by short high-precision
bursts -- accounting the energy of every back-bias mode switch (charge
pump slewing the domain wells, as sketched in the paper's Section III).

Run time: a few seconds.
"""

import numpy as np

from repro import (
    ExhaustiveExplorer,
    ExplorationSettings,
    GridPartition,
    Library,
    implement_with_domains,
)
from repro.core.flow import select_clock_for
from repro.core.runtime import (
    AccuracyController,
    BiasGeneratorModel,
    WorkloadPhase,
)
from repro.operators import booth_multiplier
from repro.serve.scheduler import replay_trace

WIDTH = 12


def sensing_workload(rng, phases=40):
    """Mostly coarse monitoring; occasional high-precision analysis bursts."""
    workload = []
    for _ in range(phases):
        roll = rng.uniform()
        if roll < 0.70:
            workload.append(WorkloadPhase(required_bits=2, cycles=80_000))
        elif roll < 0.92:
            workload.append(WorkloadPhase(required_bits=8, cycles=15_000))
        else:
            workload.append(WorkloadPhase(required_bits=WIDTH, cycles=5_000))
    return workload


def main():
    library = Library()

    def factory():
        return booth_multiplier(library, WIDTH)

    constraint = select_clock_for(factory, library)
    design = implement_with_domains(
        factory, library, GridPartition(2, 2), constraint=constraint
    )
    print(design.describe())

    settings = ExplorationSettings(bitwidths=tuple(range(2, WIDTH + 1, 2)))
    exploration = ExhaustiveExplorer(design).run(settings)
    controller = AccuracyController(design, exploration)

    print("\nmode table (cheapest mode per requirement):")
    for bits in settings.bitwidths:
        mode = controller.mode_for(bits)
        bb = "".join("F" if f else "-" for f in mode.bb_config)
        print(
            f"  need {bits:2d} bits -> use {mode.active_bits:2d}-bit mode, "
            f"{mode.total_power_w * 1e3:.3f} mW @ {mode.vdd:.1f} V, BB[{bb}]"
        )

    rng = np.random.default_rng(7)
    workload = sensing_workload(rng)
    report = replay_trace(controller.compiled(), workload)
    print("\nbursty sensing workload:")
    print(" ", report.summary())

    # How sensitive is the saving to mode-switch cost?  Sweep the charge
    # pump model an order of magnitude either way.
    print("\nsensitivity to bias-generator cost:")
    for scale in (0.1, 1.0, 10.0, 100.0):
        generator = BiasGeneratorModel(
            transition_time_ns=100.0 * scale,
            well_cap_ff_per_um2=0.08 * scale,
        )
        sweep_controller = AccuracyController(design, exploration, generator)
        sweep_report = replay_trace(sweep_controller.compiled(), workload)
        print(
            f"  pump cost x{scale:<5g}: saving "
            f"{sweep_report.adaptive_saving * 100:5.1f}%, transition "
            f"overhead {sweep_report.transition_overhead * 100:6.3f}%"
        )


if __name__ == "__main__":
    main()
