"""Workload-trace suite: determinism, artifacts, family structure."""

import json

import numpy as np
import pytest

from repro.traces import (
    TRACE_FAMILIES,
    TRACE_KIND,
    TRACE_SCHEMA,
    TraceError,
    WorkloadTrace,
    generate_suite,
    generate_trace,
    load_trace_file,
)

LEVELS = (2, 4, 6, 8)


class TestDeterminism:
    @pytest.mark.parametrize("family", TRACE_FAMILIES)
    def test_same_seed_same_trace(self, family):
        a = generate_trace(family, seed=42, length=120, bits_levels=LEVELS)
        b = generate_trace(family, seed=42, length=120, bits_levels=LEVELS)
        assert a == b

    @pytest.mark.parametrize("family", TRACE_FAMILIES)
    def test_different_seed_different_trace(self, family):
        a = generate_trace(family, seed=1, length=120, bits_levels=LEVELS)
        b = generate_trace(family, seed=2, length=120, bits_levels=LEVELS)
        assert a.phases != b.phases

    def test_regeneration_from_recorded_provenance(self):
        """family/seed/params in the artifact reproduce the phases."""
        original = generate_trace(
            "bursty", seed=9, length=80, bits_levels=LEVELS, burst_rate=0.2
        )
        params = dict(original.params)
        regenerated = generate_trace(
            original.family,
            seed=original.seed,
            length=params.pop("length"),
            bits_levels=params.pop("bits_levels"),
            mean_cycles=params.pop("mean_cycles"),
            **params,
        )
        assert regenerated.phases == original.phases

    def test_suite_offsets_seeds_per_family(self):
        suite = generate_suite(seed=5, length=40)
        assert set(suite) == set(TRACE_FAMILIES)
        seeds = [suite[family].seed for family in TRACE_FAMILIES]
        assert seeds == [5, 6, 7, 8]


class TestFamilyStructure:
    @pytest.mark.parametrize("family", TRACE_FAMILIES)
    def test_levels_and_length_respected(self, family):
        trace = generate_trace(
            family, seed=3, length=150, bits_levels=LEVELS, mean_cycles=500
        )
        assert len(trace.phases) == 150
        assert {bits for bits, _ in trace.phases} <= set(LEVELS)
        for _, cycles in trace.phases:
            assert 1 <= cycles <= int(1.3 * 500)

    def test_bursty_is_mostly_low_with_high_bursts(self):
        trace = generate_trace("bursty", seed=0, length=400)
        bits = [b for b, _ in trace.phases]
        assert set(bits) <= {LEVELS[0], LEVELS[-1]}
        assert bits.count(LEVELS[0]) > bits.count(LEVELS[-1])

    def test_diurnal_visits_low_and_high(self):
        trace = generate_trace("diurnal", seed=0, length=400)
        bits = {b for b, _ in trace.phases}
        assert LEVELS[0] in bits and LEVELS[-1] in bits

    def test_phase_structured_spikes_from_a_distant_level(self):
        trace = generate_trace("phase_structured", seed=0, length=600)
        bits = [b for b, _ in trace.phases]
        # Active segments run at levels[1], not adjacent to the spike
        # level -- that distance is what makes spike round trips costly.
        assert LEVELS[1] in bits
        assert LEVELS[-1] in bits
        assert LEVELS[0] in bits

    def test_flapping_alternates_in_short_runs(self):
        trace = generate_trace(
            "adversarial_flapping", seed=0, length=600
        )
        bits = [b for b, _ in trace.phases]
        flips = sum(1 for a, b in zip(bits, bits[1:]) if a != b)
        assert flips > len(bits) // 10


class TestArtifact:
    def test_round_trip_is_bit_identical(self, tmp_path):
        trace = generate_trace("diurnal", seed=7, length=60)
        path = tmp_path / "trace.json"
        trace.save(path)
        assert WorkloadTrace.load(path) == trace

    def test_document_shape(self, tmp_path):
        trace = generate_trace("bursty", seed=1, length=10)
        path = tmp_path / "trace.json"
        trace.save(path)
        payload = json.loads(path.read_text())
        assert payload["kind"] == TRACE_KIND
        assert payload["schema"] == TRACE_SCHEMA
        assert payload["family"] == "bursty"
        assert len(payload["phases"]) == 10

    def test_load_trace_file_reads_artifact(self, tmp_path):
        trace = generate_trace("bursty", seed=1, length=10)
        path = tmp_path / "trace.json"
        trace.save(path)
        phases = load_trace_file(path)
        assert phases.dtype == np.int64 and phases.shape == (10, 2)
        assert [tuple(row) for row in phases.tolist()] == trace.to_phases()

    def test_load_trace_file_rejects_garbage(self, tmp_path):
        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{not json")
        with pytest.raises(TraceError, match="not valid JSON"):
            load_trace_file(bad_json)
        bad_kind = tmp_path / "kind.json"
        bad_kind.write_text(json.dumps({"kind": "other", "schema": 1}))
        with pytest.raises(TraceError, match="not a workload trace"):
            load_trace_file(bad_kind)
        old_list = tmp_path / "list.json"
        old_list.write_text(json.dumps([{"bits": 4, "cycles": 100}]))
        with pytest.raises(TraceError, match="must be a JSON object"):
            load_trace_file(old_list)
        scalar = tmp_path / "scalar.json"
        scalar.write_text("3")
        with pytest.raises(TraceError, match="must be a JSON object"):
            load_trace_file(scalar)

    @pytest.mark.parametrize(
        "phases, message",
        [
            ([[4, 100], [0, 5]], "phase bits must be positive, got 0"),
            ([[4, 100], [4, -3]], "phase cycles must be positive, got -3"),
            ([[4, 0], [0, 5]], "phase cycles must be positive, got 0"),
            ([[4, 100], [3]], r"phase 1 is \[3\], not a \[bits, cycles\]"),
            ([[1, 2, 3]], r"phase 0 is \[1, 2, 3\], not a \[bits"),
            ([1, 2], "phase 0 is 1, not a"),
            ([[[1, 2]]], r"phase 0 is \[\[1, 2\]\], not a"),
            ([[4, 100], [2**70, 5]], r"phase 1 is \[1180591620717411303424"),
            ([[4, None]], r"phase 0 is \[4, None\]"),
            ("abc", "phases must be a list"),
            (5, "phases must be a list of .* got 5"),
            ([], "has no phases"),
        ],
    )
    def test_load_trace_file_names_first_bad_phase(
        self, tmp_path, phases, message
    ):
        payload = generate_trace("bursty", seed=1, length=4).to_dict()
        payload["phases"] = phases
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(TraceError, match=message):
            load_trace_file(path)

    def test_from_dict_shares_the_loader_checks(self):
        payload = generate_trace("bursty", seed=1, length=4).to_dict()
        payload["phases"] = [[4, 100], [1, 2, 3]]
        with pytest.raises(TraceError, match="phase 1 is"):
            WorkloadTrace.from_dict(payload)
        payload["phases"] = [["4", 100.0]]
        assert WorkloadTrace.from_dict(payload).phases == ((4, 100),)

    def test_future_schema_rejected(self):
        payload = generate_trace("bursty", seed=1, length=4).to_dict()
        payload["schema"] = TRACE_SCHEMA + 1
        with pytest.raises(TraceError, match="unsupported trace schema"):
            WorkloadTrace.from_dict(payload)


class TestValidation:
    def test_unknown_family(self):
        with pytest.raises(TraceError, match="unknown trace family"):
            generate_trace("tidal", seed=0)

    def test_bad_levels_length_cycles(self):
        with pytest.raises(TraceError, match="bits_levels"):
            generate_trace("bursty", seed=0, bits_levels=())
        with pytest.raises(TraceError, match="bits_levels"):
            generate_trace("bursty", seed=0, bits_levels=(0, 4))
        with pytest.raises(TraceError, match="length"):
            generate_trace("bursty", seed=0, length=0)
        with pytest.raises(TraceError, match="mean_cycles"):
            generate_trace("bursty", seed=0, mean_cycles=0)

    def test_phase_validation(self):
        with pytest.raises(TraceError, match="bits must be positive"):
            WorkloadTrace(family="x", seed=0, phases=((0, 10),))
        with pytest.raises(TraceError, match="cycles must be positive"):
            WorkloadTrace(family="x", seed=0, phases=((4, 0),))
