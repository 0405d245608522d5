"""Property/invariant tests of the content-addressed shard cache.

Three families:

* **key stability** -- the same inputs always produce the same key, no
  matter the dict insertion order, the process, or ``PYTHONHASHSEED``;
* **key sensitivity** -- any mutation of any input (netlist, parasitics,
  constraint, settings, configs, shard slice) changes the key;
* **corruption safety** -- a damaged entry is detected, discarded and
  recomputed, never silently served.
"""

import dataclasses
import json
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import ExplorationSettings
from repro.core.exploration import ExhaustiveExplorer, KnobCellResult
from repro.core.flow import implement_with_domains
from repro.operators import adequate_adder
from repro.parallel.cache import CacheStats, ResultCache
from repro.parallel.fingerprint import (
    canonical_json,
    configs_fingerprint,
    design_fingerprint,
    shard_key,
)
from repro.parallel.shards import Shard, plan_shards
from repro.pnr.grid import GridPartition
from repro.sta.lattice import all_bb_configs

SETTINGS = ExplorationSettings(
    bitwidths=(2, 4), activity_cycles=8, activity_batch=8
)

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Deterministic rebuild recipe shared with the subprocess test.
BUILD_SNIPPET = """
from repro.core.flow import implement_with_domains
from repro.operators import adequate_adder
from repro.pnr.grid import GridPartition
from repro.techlib.library import Library

library = Library()
design = implement_with_domains(
    lambda: adequate_adder(library, width=4, name="keytest"),
    library,
    GridPartition(2, 1),
)
"""


@pytest.fixture(scope="module")
def design(library):
    return implement_with_domains(
        lambda: adequate_adder(library, width=4, name="keytest"),
        library,
        GridPartition(2, 1),
    )


@pytest.fixture(scope="module")
def key_parts(design):
    configs = all_bb_configs(design.num_domains)
    shard = plan_shards(SETTINGS)[0]
    return {
        "design": design_fingerprint(design),
        "configs": configs_fingerprint(configs),
        "shard": shard,
        "raw_configs": configs,
    }


def make_key(parts, settings=SETTINGS, shard=None):
    return shard_key(
        parts["design"],
        settings,
        parts["configs"],
        shard if shard is not None else parts["shard"],
    )


class TestKeyStability:
    def test_canonical_json_ignores_insertion_order(self):
        rng = random.Random(20170314)
        for _ in range(50):
            items = [(f"k{i}", rng.randint(0, 999)) for i in range(8)]
            nested = [("inner", {"x": 1, "y": [3, 2, 1]})]
            shuffled = list(items) + nested
            rng.shuffle(shuffled)
            reference = canonical_json(dict(sorted(items) + nested))
            assert canonical_json(dict(shuffled)) == reference

    def test_key_repeatable_within_process(self, key_parts):
        assert make_key(key_parts) == make_key(key_parts)

    def test_key_stable_across_processes_and_hash_seeds(self, key_parts):
        """A fresh interpreter with a different PYTHONHASHSEED (so str
        hashing, set/dict iteration incidentals all differ) rebuilds the
        same design and derives the same key."""
        script = BUILD_SNIPPET + (
            "from repro.core.config import ExplorationSettings\n"
            "from repro.parallel.fingerprint import ("
            "configs_fingerprint, design_fingerprint, shard_key)\n"
            "from repro.parallel.shards import plan_shards\n"
            "from repro.sta.lattice import all_bb_configs\n"
            "settings = ExplorationSettings("
            "bitwidths=(2, 4), activity_cycles=8, activity_batch=8)\n"
            "print(shard_key(design_fingerprint(design), settings,"
            " configs_fingerprint(all_bb_configs(design.num_domains)),"
            " plan_shards(settings)[0]))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={
                "PYTHONPATH": REPO_SRC,
                "PYTHONHASHSEED": "271828",
                "PATH": "/usr/bin:/bin",
            },
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == make_key(key_parts)

    def test_key_independent_of_shard_index_and_names(self, key_parts, library):
        """Shard index is positional bookkeeping; netlist names are not
        semantic.  Neither may enter the key."""
        shard = key_parts["shard"]
        renumbered = Shard(99, shard.bitwidths, shard.vdd_values)
        assert make_key(key_parts, shard=renumbered) == make_key(key_parts)

        renamed = implement_with_domains(
            lambda: adequate_adder(library, width=4, name="other_name"),
            library,
            GridPartition(2, 1),
        )
        assert design_fingerprint(renamed) == key_parts["design"]

    def test_key_ignores_execution_knobs(self, key_parts):
        for variant in (
            dataclasses.replace(SETTINGS, workers=4),
            dataclasses.replace(SETTINGS, cache=True, cache_dir="/elsewhere"),
        ):
            assert make_key(key_parts, settings=variant) == make_key(key_parts)


class TestKeySensitivity:
    def test_settings_mutations_change_key(self, key_parts):
        baseline = make_key(key_parts)
        for variant in (
            dataclasses.replace(SETTINGS, seed=SETTINGS.seed + 1),
            dataclasses.replace(SETTINGS, activity_cycles=12),
            dataclasses.replace(SETTINGS, activity_batch=12),
        ):
            assert make_key(key_parts, settings=variant) != baseline

    def test_shard_slice_changes_key(self, key_parts):
        baseline = make_key(key_parts)
        shard = key_parts["shard"]
        assert (
            make_key(key_parts, shard=Shard(0, (3,), shard.vdd_values))
            != baseline
        )
        assert (
            make_key(key_parts, shard=Shard(0, shard.bitwidths, (1.0, 0.9)))
            != baseline
        )

    def test_configs_change_key(self, key_parts):
        trimmed = key_parts["raw_configs"][:-1]
        assert configs_fingerprint(trimmed) != key_parts["configs"]

    def test_netlist_mutation_changes_fingerprint(self, design):
        baseline = design_fingerprint(design)
        cell = design.netlist.cells[0]
        original = cell.drive_name
        alternative = next(
            d for d in cell.template.drives if d != original
        )
        cell.set_drive(alternative)
        try:
            assert design_fingerprint(design) != baseline
        finally:
            cell.set_drive(original)
        assert design_fingerprint(design) == baseline

    def test_constraint_and_parasitics_change_fingerprint(self, design):
        baseline = design_fingerprint(design)
        relaxed = dataclasses.replace(
            design,
            constraint=dataclasses.replace(
                design.constraint, period_ps=design.constraint.period_ps * 2
            ),
        )
        assert design_fingerprint(relaxed) != baseline
        rescaled = dataclasses.replace(
            design, parasitics=design.parasitics.scaled(1.01)
        )
        assert design_fingerprint(rescaled) != baseline

    def test_random_field_permutations_never_collide(self, key_parts):
        """Randomized invariant: distinct (settings, shard) inputs map to
        distinct keys -- 200 draws, no collisions."""
        rng = random.Random(977)
        seen = {}
        for _ in range(200):
            settings = dataclasses.replace(
                SETTINGS,
                seed=rng.randint(0, 50),
                activity_cycles=rng.choice((8, 10, 12)),
            )
            shard = Shard(
                0,
                (rng.choice((2, 3, 4)),),
                tuple(sorted(rng.sample((1.0, 0.9, 0.8, 0.7), 2))),
            )
            identity = (
                settings.seed,
                settings.activity_cycles,
                shard.bitwidths,
                shard.vdd_values,
            )
            key = make_key(key_parts, settings=settings, shard=shard)
            if identity in seen:
                assert seen[identity] == key
            else:
                assert key not in seen.values()
                seen[identity] = key


class TestStaEngineKeying:
    """The key embeds the lattice kernel's schema, so entries written by
    a kernel with different numerics miss instead of being served."""

    def test_lattice_schema_version_in_key(self, key_parts, monkeypatch):
        import repro.sta.lattice as lattice_mod

        baseline = make_key(key_parts)
        monkeypatch.setattr(lattice_mod, "LATTICE_SCHEMA", 9999)
        assert make_key(key_parts) != baseline


class TestCorruption:
    def _populated(self, tmp_path, design):
        settings = dataclasses.replace(
            SETTINGS, cache=True, cache_dir=str(tmp_path)
        )
        result = ExhaustiveExplorer(design).run(settings)
        cache = ResultCache(tmp_path)
        entries = cache._entries()
        assert entries, "expected cached shards"
        return settings, result, cache, entries

    def test_truncated_entry_recomputed(self, tmp_path, design):
        settings, reference, cache, entries = self._populated(tmp_path, design)
        entries[0].write_text('{"schema": 1, "key": "')
        rerun = ExhaustiveExplorer(design).run(settings)
        assert rerun.cache_stats.invalidations == 1
        assert rerun.cache_stats.writes == 1
        assert rerun.best_per_bitwidth == reference.best_per_bitwidth

    def test_bitflipped_body_detected_by_checksum(self, tmp_path, design):
        settings, reference, cache, entries = self._populated(tmp_path, design)
        entry = json.loads(entries[0].read_text())
        entry["body"]["cells"][0]["feasible_count"] += 1
        entries[0].write_text(json.dumps(entry))
        stats = CacheStats()
        key = entries[0].stem
        assert cache.load(key, stats) is None
        assert stats.invalidations == 1 and stats.hits == 0
        assert not entries[0].exists(), "corrupt entry must be dropped"
        rerun = ExhaustiveExplorer(design).run(settings)
        assert rerun.best_per_bitwidth == reference.best_per_bitwidth

    def test_entry_under_wrong_key_rejected(self, tmp_path, design):
        _, _, cache, entries = self._populated(tmp_path, design)
        stolen = entries[0].read_text()
        fake_key = "0" * 64
        (tmp_path / f"{fake_key}.json").write_text(stolen)
        assert cache.load(fake_key) is None
        assert cache.stats.invalidations == 1

    def test_stale_schema_rejected(self, tmp_path, design):
        _, _, cache, entries = self._populated(tmp_path, design)
        entry = json.loads(entries[0].read_text())
        entry["schema"] = 0
        entries[0].write_text(json.dumps(entry))
        assert cache.load(entries[0].stem) is None
        assert cache.stats.invalidations == 1

    def test_roundtrip_preserves_cells(self, tmp_path):
        cache = ResultCache(tmp_path)
        cells = [
            KnobCellResult(bits=4, vdd=0.9, evaluated=4, feasible_count=0,
                           best=None),
        ]
        cache.store("k" * 64, cells)
        assert cache.load("k" * 64) == cells
