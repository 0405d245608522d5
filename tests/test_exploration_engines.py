"""Cross-engine lock-in of the exploration flow.

The exploration runs one engine per layer: packed activity simulation
and lattice STA.  Swapping in the reference engines of
:mod:`tests.oracles` -- the interpreted simulator and the
per-combination scalar STA loop -- must not move a single bit of the
results: serially, through the parallel sharded engine, and through
warm and cold persistent caches.
"""

import dataclasses

import pytest

from repro.cli import main
from repro.core.config import ExplorationSettings
from repro.core.exploration import ExhaustiveExplorer
from repro.core.flow import implement_with_domains
from repro.operators import booth_multiplier, fir_filter
from repro.operators.fir import FirParameters
from repro.pnr.grid import GridPartition
from repro.sim.activity import clear_activity_cache
from tests.oracles import require_fork
from tests.oracles.sim import interpreted_engine
from tests.oracles.sta import force_pointwise
from tests.test_parallel_differential import assert_identical

SETTINGS = ExplorationSettings(
    bitwidths=(2, 3, 4, 6),
    activity_cycles=10,
    activity_batch=8,
)

OPERATORS = ["booth", "fir"]


@pytest.fixture(scope="module")
def designs(library):
    built = {}
    factories = {
        "booth": lambda: booth_multiplier(library, width=6, name="eng_boo"),
        "fir": lambda: fir_filter(
            library, FirParameters(taps=4, width=6), name="eng_fir"
        ),
    }
    for op, grid in (("booth", (2, 2)), ("fir", (2, 1))):
        built[op] = implement_with_domains(
            factories[op], library, GridPartition(*grid)
        )
    return built


@pytest.fixture(scope="module")
def interpreted_reference(designs):
    """Serial explorations on the interpreted simulator.

    The activity memo does not key on the engine, so it is cleared
    before and after: neither side may be served the other's reports.
    """
    clear_activity_cache()
    with interpreted_engine():
        reference = {
            op: ExhaustiveExplorer(design).run(SETTINGS)
            for op, design in designs.items()
        }
    clear_activity_cache()
    return reference


def test_sim_engine_validated(capsys):
    """The selector is gone: the flag is an unrecognized argument."""
    with pytest.raises(SystemExit) as exit_info:
        main(
            [
                "explore", "--design", "adder", "--width", "4",
                "--sim-engine", "packed",
            ]
        )
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("operator", OPERATORS)
def test_serial_exploration_engine_invariant(
    operator, designs, interpreted_reference
):
    clear_activity_cache()
    result = ExhaustiveExplorer(designs[operator]).run(SETTINGS)
    assert_identical(interpreted_reference[operator], result)


@pytest.mark.parametrize("operator", OPERATORS)
@pytest.mark.parametrize("cache_mode", ["cold", "warm"])
def test_parallel_sharded_engine_invariant(
    operator, cache_mode, designs, interpreted_reference, tmp_path
):
    """The packed engine through the sharded parallel path, with a cold
    and a warmed persistent cache, agrees with the serial interpreted
    reference bit for bit."""
    clear_activity_cache()
    settings = dataclasses.replace(
        SETTINGS,
        workers=2,
        cache=True,
        cache_dir=str(tmp_path),
    )
    explorer = ExhaustiveExplorer(designs[operator])
    result = explorer.run(settings)
    if cache_mode == "warm":
        first = result
        assert first.cache_stats.misses > 0 and first.cache_stats.hits == 0
        result = explorer.run(settings)
        assert result.cache_stats.hits == first.cache_stats.misses
        assert result.cache_stats.misses == 0
    assert_identical(interpreted_reference[operator], result)


def test_sta_engine_validated(capsys):
    """The selector is gone: the flag is an unrecognized argument."""
    with pytest.raises(SystemExit) as exit_info:
        main(
            [
                "explore", "--design", "adder", "--width", "4",
                "--sta-engine", "pointwise",
            ]
        )
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("operator", OPERATORS)
def test_sta_engine_invariant_through_parallel_path(
    operator, designs, interpreted_reference, tmp_path, monkeypatch
):
    """The pointwise STA oracle, swapped into the sharded parallel path
    with a persistent cache, agrees with the serial reference bit for
    bit."""
    require_fork()
    force_pointwise(monkeypatch)
    settings = dataclasses.replace(
        SETTINGS, workers=2, cache=True, cache_dir=str(tmp_path)
    )
    result = ExhaustiveExplorer(designs[operator]).run(settings)
    assert_identical(interpreted_reference[operator], result)
