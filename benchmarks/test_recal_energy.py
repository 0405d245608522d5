"""Benchmark: energy reclaimed by closed-loop recalibration.

Races the retreat-only margin guard against the recalibrating one on a
recover-after-excursion schedule over a margin-compiled Booth table: one
early temperature excursion erodes every mode's margin past its sign-off
slack, then the die cools.  The retreat-only baseline stays latched in
the expensive static mode for the whole clean tail; the canary-probe
loop re-advances once its healthy streak fills, and the difference --
with the probes' own energy charged to the recalibrating run -- is the
reclaimed energy this PR exists for.

Everything runs in seeded virtual time, so the numbers are bit-stable
across hosts; the >= 10% reclaim floor is a correctness assertion, not a
machine-speed one.  The excursion magnitude is derived from the compiled
margins themselves (1.5x the widest guarded slack), so the demote phase
engages no matter what the margin compiler produced.

Results go to one JSON record (perf-smoke uploads it as
BENCH_recal.json and merges it into BENCH_summary).
"""

import json
import os

from repro.faults.chaos import recovery_schedule, run_chaos
from repro.faults.environment import TEMP_SLOWDOWN_PER_C
from repro.serve.table import compile_mode_table

SMALL = bool(int(os.environ.get("REPRO_BENCH_SMALL", "0")))

REQUESTS = 128 if SMALL else 512
NUM_OPERATORS = 3
SEED = 7
RECLAIM_FLOOR = 0.10
#: 96 requests over 3 operators span ~3e5 ns of virtual time.
HORIZON_NS = 3e5 * (REQUESTS / 96.0)


def excursion_magnitude_c(table) -> float:
    """Degrees C whose peak erosion clears every mode's sign-off slack."""
    period_ps = 1e3 / table.fclk_ghz
    worst_slack = max(m.guarded_slack_ps for m in table.margins.values())
    return 1.5 * worst_slack / (TEMP_SLOWDOWN_PER_C * period_ps)


def test_recal_energy_reclaim(bundles):
    bundle = bundles["booth"]
    table = compile_mode_table(
        bundle.domained(),
        bundle.proposed(),
        with_margins=True,
        margin_samples=8,
    )

    schedule = recovery_schedule(
        HORIZON_NS,
        magnitude=excursion_magnitude_c(table),
        relapse=True,
        seed=1,
    )
    report = run_chaos(
        table,
        schedule,
        num_operators=NUM_OPERATORS,
        requests=REQUESTS,
        seed=SEED,
        recalibrate=True,
    )

    race = report.counts["recal"]
    baseline, recal = race["retreat_only"], race["recalibrating"]
    reclaimed = race["energy_reclaimed_fraction"]
    record = {
        "requests": REQUESTS,
        "horizon_ns": HORIZON_NS,
        "retreat_only_energy_j": baseline["energy_j"],
        "recalibrating_energy_j": recal["energy_j"],
        "probe_energy_j": recal["probe_energy_j"],
        "energy_reclaimed_j": race["energy_reclaimed_j"],
        "energy_reclaimed_fraction": round(reclaimed, 4),
        "recal_epochs": recal["recal_epochs"],
        "recal_demotions": recal["recal_demotions"],
        "recal_readvances": recal["recal_readvances"],
        "margin_fallbacks_baseline": baseline["margin_fallbacks"],
        "margin_fallbacks_recal": recal["margin_fallbacks"],
    }
    print(f"\nrecal_bench {json.dumps(record, sort_keys=True)}")

    output = os.environ.get("REPRO_BENCH_OUTPUT")
    if output:
        with open(output, "w") as handle:
            json.dump({"recal_energy": record}, handle, indent=2)

    # Both runs must hold the accuracy invariant outright...
    assert report.ok, report.describe()
    assert baseline["margin_violations"] == 0
    assert recal["margin_violations"] == 0
    # ...the loop must have actually cycled (demote AND re-advance)...
    assert recal["recal_demotions"] > 0
    assert recal["recal_readvances"] > 0
    # ...and recalibration must pay for its probes at least 10x over.
    assert reclaimed >= RECLAIM_FLOOR, (
        f"reclaimed only {100 * reclaimed:.1f}% "
        f"of the retreat-only baseline (floor {100 * RECLAIM_FLOOR:.0f}%)"
    )
