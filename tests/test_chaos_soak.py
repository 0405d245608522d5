"""Seeded chaos soaks: replay fault schedules, demand the stack holds.

The acceptance bar from the robustness issue: several concurrent
operators served under silicon chaos must never get fewer bits than
requested, never run a guarded mode past its margin unnoticed, and the
scheduler must stay up; the sharded engine must survive crashes and
cache corruption bit-identically.  Every soak here is seeded and
replayable -- a failure reproduces from its seed alone.
"""

import pytest

from repro.core.config import ExplorationSettings
from repro.core.flow import implement_with_domains
from repro.faults import (
    KIND_AGING_VTH,
    KIND_CACHE_CORRUPT,
    KIND_GEN_DROPOUT,
    KIND_STUCK_NOBB,
    KIND_TEMP_DRIFT,
    KIND_TRANSITION_TIMEOUT,
    KIND_VDD_DROOP,
    KIND_WORKER_CRASH,
    FaultEvent,
    FaultSchedule,
)
from repro.faults.chaos import recovery_schedule, run_chaos
from repro.operators import adequate_adder
from repro.pnr.grid import GridPartition
from tests.conftest import build_margined_table

# Request mix of 96 phases over 3 operators at fclk 1 GHz reaches a
# virtual clock of roughly 3e5 ns; the schedules below must span that
# so silicon events actually coincide with live traffic.
SOAK_HORIZON_NS = 3e5

SWEEP_SETTINGS = ExplorationSettings(
    bitwidths=(1, 2, 3, 4),
    activity_cycles=10,
    activity_batch=8,
)


@pytest.fixture(scope="module")
def soak_design(library):
    return implement_with_domains(
        lambda: adequate_adder(library, width=4, name="soak_add"),
        library,
        GridPartition(2, 1),
    )


def hand_built_storm():
    """A dense, fully deterministic schedule covering every fault kind.

    Windows are placed inside the soak's virtual-time span so each
    mechanism is guaranteed to engage -- no reliance on where a seeded
    generator happens to land its events.
    """
    return FaultSchedule(
        [
            FaultEvent(KIND_TEMP_DRIFT, 0.0, 1.2e5, magnitude=35.0),
            FaultEvent(KIND_VDD_DROOP, 4.0e4, 6.0e4, magnitude=0.04),
            FaultEvent(KIND_AGING_VTH, 1.0e5, 5.0e4, magnitude=0.008),
            FaultEvent(KIND_STUCK_NOBB, 1.6e5, 4.0e4),
            FaultEvent(KIND_TRANSITION_TIMEOUT, 2.0e4, 1.5e4),
            FaultEvent(KIND_GEN_DROPOUT, 5.0e4, 8.0e4, target=0),
            FaultEvent(KIND_GEN_DROPOUT, 2.2e5, 5.0e4, target=1),
            FaultEvent(KIND_WORKER_CRASH, 0.0, 1.0, target=1),
            FaultEvent(KIND_CACHE_CORRUPT, 0.0, 1.0, target=0),
            FaultEvent(KIND_CACHE_CORRUPT, 1.0, 1.0, target=1),
        ]
    )


class TestServeSoak:
    def test_hand_built_storm_engages_every_mechanism(self):
        report = run_chaos(
            build_margined_table(), hand_built_storm(), num_operators=3
        )
        serve = report.counts["serve"]
        assert report.ok
        assert serve["stayed_up"]
        assert serve["requests"] == 96
        assert serve["accuracy_violations"] == 0
        assert serve["margin_violations"] == 0
        # The storm is built so each defence demonstrably fired.
        assert serve["margin_fallbacks"] > 0
        assert serve["generator_dropouts"] >= 1
        assert serve["transition_retries"] + serve["transition_failures"] > 0
        assert "serve chaos [PASS]" in report.describe()

    @pytest.mark.parametrize("seed", [3, 7, 11, 2017])
    def test_seeded_soaks_never_underserve(self, seed):
        schedule = FaultSchedule.generate(
            seed, horizon_ns=SOAK_HORIZON_NS, num_generators=2
        )
        report = run_chaos(
            build_margined_table(), schedule, num_operators=3, seed=seed
        )
        serve = report.counts["serve"]
        assert serve["stayed_up"], serve["error"]
        assert serve["accuracy_violations"] == 0
        assert serve["margin_violations"] == 0
        assert report.ok

    def test_thin_margins_force_fallbacks_not_violations(self):
        # Modes 2 and 4 get razor-thin margins: mild heating must evict
        # them.  The guard substitutes covering modes; the audit then
        # proves no un-overridden pick ran unsafe.
        table = build_margined_table({2: 2.0, 4: 2.0})
        schedule = FaultSchedule(
            [FaultEvent(KIND_TEMP_DRIFT, 0.0, SOAK_HORIZON_NS, magnitude=25.0)]
        )
        report = run_chaos(table, schedule, num_operators=3)
        assert report.ok
        assert report.counts["serve"]["margin_fallbacks"] > 0
        assert report.counts["serve"]["margin_violations"] == 0

    def test_operator_count_validated(self):
        with pytest.raises(ValueError, match="operator"):
            run_chaos(
                build_margined_table(), FaultSchedule([]), num_operators=0
            )

    def test_request_count_validated(self):
        with pytest.raises(ValueError, match="request"):
            run_chaos(build_margined_table(), FaultSchedule([]), requests=0)

    def test_report_serializes(self):
        report = run_chaos(
            build_margined_table(), FaultSchedule([]), requests=6
        )
        payload = report.to_dict()
        assert payload["ok"] is True
        assert payload["serve"]["ok"] is True
        assert payload["serve"]["requests"] == 6
        assert report.invariants["serve"] == {
            "stayed_up": True,
            "no_accuracy_violations": True,
            "no_margin_violations": True,
        }


class TestRecalSoak:
    def test_recover_then_relapse_reclaims_energy_without_violations(self):
        """The acceptance soak: one excursion, a clean recovery window,
        then a relapse.  The recalibrating guard must re-advance during
        the recovery (reclaiming >= 10% of the retreat-only baseline's
        energy, canary probes charged) and retreat again into the
        relapse -- with zero accuracy/margin violations on both runs."""
        report = run_chaos(
            build_margined_table(),
            recovery_schedule(SOAK_HORIZON_NS, 60.0, relapse=True, seed=1),
            requests=256,
            seed=7,
            recalibrate=True,
        )
        assert report.ok, report.describe()
        race = report.counts["recal"]
        baseline, recal = race["retreat_only"], race["recalibrating"]
        assert baseline["accuracy_violations"] == 0
        assert baseline["margin_violations"] == 0
        assert recal["accuracy_violations"] == 0
        assert recal["margin_violations"] == 0
        assert recal["recal_readvances"] > 0
        assert recal["recal_demotions"] > 0
        assert race["energy_reclaimed_fraction"] >= 0.10
        assert race["energy_reclaimed_j"] == pytest.approx(
            baseline["energy_j"] - recal["energy_j"]
        )
        assert "recal chaos [PASS]" in report.describe()
        payload = report.to_dict()
        assert payload["recal"]["ok"] is True
        assert payload["recal"]["energy_reclaimed_fraction"] == pytest.approx(
            race["energy_reclaimed_fraction"]
        )

    def test_recalibrating_soak_holds_under_seeded_storm(self):
        """Recalibration under an arbitrary storm (not a friendly
        recovery shape) must still never admit an unsafe mode."""
        schedule = FaultSchedule.generate(
            11, horizon_ns=SOAK_HORIZON_NS, num_generators=2
        )
        report = run_chaos(
            build_margined_table(),
            schedule,
            num_operators=3,
            seed=11,
            recalibrate=True,
        )
        serve = report.counts["serve"]
        assert all(report.invariants["serve"].values()), report.describe()
        assert serve["margin_violations"] == 0
        assert serve["accuracy_violations"] == 0
        assert serve["recal_epochs"] > 0
        assert serve["probe_energy_j"] > 0.0

    def test_run_chaos_recalibrate_nests_the_race_report(self):
        report = run_chaos(
            build_margined_table(),
            recovery_schedule(SOAK_HORIZON_NS, 60.0, seed=2),
            requests=96,
            recalibrate=True,
        )
        assert "recal" in report.counts
        assert report.ok
        payload = report.to_dict()
        assert payload["recal"]["ok"] is True
        # The serve half of the report IS the recalibrating run.
        assert payload["serve"] == payload["recal"]["recalibrating"]
        assert "reclaimed" in report.describe()

    def test_race_that_never_probes_fails_on_its_named_invariant(self):
        """A probe interval past the horizon commits no recal epoch: the
        serve soak still passes, the race fails, and so does the run."""
        report = run_chaos(
            build_margined_table(),
            FaultSchedule([]),
            requests=24,
            recalibrate=True,
            recal_interval_ns=1e9,
        )
        assert all(report.invariants["serve"].values())
        assert report.invariants["recal"] == {
            "retreat_only_ok": True,
            "recalibrating_ok": True,
            "recal_epochs": False,
        }
        assert not report.ok
        payload = report.to_dict()
        assert payload["ok"] is False
        assert payload["serve"]["ok"] is True
        assert payload["recal"]["ok"] is False
        lines = report.describe().splitlines()
        assert lines[1].startswith("serve chaos [PASS]")
        assert lines[2].startswith("recal chaos [FAIL]")
        assert lines[-1] == "chaos run: FAIL"


class TestExplorationSoak:
    def test_crashes_and_corruption_recover_bit_identically(self, soak_design):
        schedule = FaultSchedule.generate(
            7, horizon_ns=1e5, num_shards=len(SWEEP_SETTINGS.bitwidths)
        )
        assert schedule.of_kind(KIND_WORKER_CRASH)
        assert schedule.of_kind(KIND_CACHE_CORRUPT)
        report = run_chaos(
            build_margined_table(),
            schedule,
            design=soak_design,
            settings=SWEEP_SETTINGS,
        )
        exploration = report.counts["exploration"]
        assert exploration["error"] is None
        assert all(report.invariants["exploration"].values())
        assert exploration["bit_identical"]
        assert exploration["shards"] == len(SWEEP_SETTINGS.bitwidths)
        assert exploration["worker_crashes"] >= 1
        assert exploration["pool_respawns"] >= 1
        assert exploration["faults_fired"]
        assert exploration["cache_entries_corrupted"] >= 1
        assert exploration["recovered_after_corruption"]
        assert exploration["cache_invalidations"] >= 1
        assert "exploration chaos [PASS]" in report.describe()


class TestFullChaosRun:
    def test_end_to_end_run_passes_and_serializes(self, soak_design):
        schedule = FaultSchedule.generate(
            7,
            horizon_ns=1e5,
            num_generators=2,
            num_shards=len(SWEEP_SETTINGS.bitwidths),
        )
        report = run_chaos(
            build_margined_table(),
            schedule,
            design=soak_design,
            settings=SWEEP_SETTINGS,
        )
        assert report.ok
        payload = report.to_dict()
        assert payload["ok"] is True
        assert payload["serve"]["ok"] is True
        assert payload["exploration"]["ok"] is True
        # The archived schedule replays the exact run.
        again = FaultSchedule.from_dict(payload["schedule"])
        assert again.to_dict() == payload["schedule"]
        assert "chaos run: PASS" in report.describe()

    def test_exploration_half_requires_settings(self):
        with pytest.raises(ValueError, match="settings"):
            run_chaos(
                build_margined_table(),
                FaultSchedule([]),
                design=object(),
            )

    def test_serve_only_run_skips_exploration(self):
        report = run_chaos(
            build_margined_table(), FaultSchedule([]), requests=12
        )
        assert "exploration" not in report.counts
        assert report.to_dict()["exploration"] is None
        assert report.ok
