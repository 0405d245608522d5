"""Differential lock-in of the sharded exploration engine.

The contract under test: no execution knob -- worker count, cache state,
shard boundaries, process hops -- may change a single bit of the
exploration results.  Every case below compares against the legacy
serial sweep (``workers=0``, engine off) on the same design.
"""

import dataclasses
import pickle

import pytest

from repro.core.config import ExplorationSettings
from repro.core.exploration import ExhaustiveExplorer
from repro.core.flow import implement_with_domains
from repro.operators import adequate_adder, booth_multiplier, fir_filter
from repro.operators.fir import FirParameters
from repro.parallel.engine import ParallelExplorer
from repro.pnr.grid import GridPartition

SETTINGS = ExplorationSettings(
    bitwidths=(2, 3, 4, 6),
    activity_cycles=10,
    activity_batch=8,
)

OPERATORS = ["adder", "booth", "fir"]


def assert_identical(reference, result):
    """Bit-identical equality of everything the paper's flow consumes."""
    assert result.best_per_bitwidth == reference.best_per_bitwidth
    assert result.best_per_knob_point == reference.best_per_knob_point
    assert result.feasible_counts == reference.feasible_counts
    assert result.points_evaluated == reference.points_evaluated
    assert result.points_feasible == reference.points_feasible
    assert result.filtered_fraction == reference.filtered_fraction
    assert result.num_domains == reference.num_domains
    assert result.design_name == reference.design_name


@pytest.fixture(scope="module")
def designs(library):
    """Three small domained operators: ripple adder, Booth mult, FIR."""
    built = {}

    def factory(op):
        return {
            "adder": lambda: adequate_adder(library, width=6, name="diff_add"),
            "booth": lambda: booth_multiplier(library, width=6, name="diff_boo"),
            "fir": lambda: fir_filter(
                library, FirParameters(taps=4, width=6), name="diff_fir"
            ),
        }[op]

    for op, grid in (("adder", (2, 1)), ("booth", (2, 2)), ("fir", (2, 1))):
        built[op] = implement_with_domains(
            factory(op), library, GridPartition(*grid)
        )
    return built


@pytest.fixture(scope="module")
def serial_reference(designs):
    return {
        op: ExhaustiveExplorer(design).run(SETTINGS)
        for op, design in designs.items()
    }


@pytest.mark.parametrize("operator", OPERATORS)
@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("cache_mode", ["disabled", "cold", "warm"])
def test_engine_bit_identical(
    operator, workers, cache_mode, designs, serial_reference, tmp_path
):
    settings = dataclasses.replace(
        SETTINGS,
        workers=workers,
        cache=cache_mode != "disabled",
        cache_dir=str(tmp_path) if cache_mode != "disabled" else None,
    )
    explorer = ExhaustiveExplorer(designs[operator])
    result = explorer.run(settings)
    if cache_mode == "warm":
        first = result
        assert first.cache_stats.misses > 0 and first.cache_stats.hits == 0
        result = explorer.run(settings)
        assert result.cache_stats.hits == first.cache_stats.misses
        assert result.cache_stats.misses == 0
    assert_identical(serial_reference[operator], result)
    if cache_mode == "disabled":
        assert result.cache_stats is None


@pytest.mark.parametrize("max_vdds", [1, 2, 3])
def test_shard_boundaries_are_invisible(
    max_vdds, designs, serial_reference
):
    """Splitting the VDD axis across shards must not move any number."""
    engine = ParallelExplorer(designs["adder"])
    result = engine.run(
        dataclasses.replace(SETTINGS, workers=1),
        max_vdds_per_shard=max_vdds,
    )
    assert_identical(serial_reference["adder"], result)


@pytest.mark.parametrize("operator", OPERATORS)
def test_design_survives_process_boundary(
    operator, designs, serial_reference
):
    """Pickling an implemented design (what the pool ships to workers)
    preserves the exploration bit-for-bit."""
    from repro.sim.activity import clear_activity_cache

    design = pickle.loads(pickle.dumps(designs[operator]))
    clear_activity_cache()  # forget rates memoized under the same name
    result = ExhaustiveExplorer(design).run(SETTINGS)
    assert_identical(serial_reference[operator], result)


def test_configs_subset_matches_serial(designs):
    """The DVAS-style restricted config matrix also routes correctly."""
    import numpy as np

    design = designs["booth"]
    configs = np.array(
        [[False] * design.num_domains, [True] * design.num_domains]
    )
    serial = ExhaustiveExplorer(design).run(SETTINGS, configs=configs)
    parallel = ExhaustiveExplorer(design).run(
        dataclasses.replace(SETTINGS, workers=2), configs=configs
    )
    assert_identical(serial, parallel)
    assert serial.points_evaluated == 2 * SETTINGS.num_knob_points
