"""The reproduction's full-size mode tables and replays, pinned in tier-1.

``repro compile-table`` on the paper's Booth and FIR operators (16 bits,
2x2 back-bias domains, and Booth on the 3x3 grid of the Fig. 6
domain-count axis) runs the whole offline flow: implementation,
case analysis, activity, the lattice STA filter, power ranking and the
transition costs.  ``repro replay`` of the two seed-2017 200k-phase
traces over the Booth 2x2 table runs the online one.  Their outputs must
equal the pins the end-to-end benchmark checks (``bench/expected/``,
read here and never written): discrete values -- bitwidths, BB patterns,
VDDs, counts, cycles, switches -- exactly, floats to a relative 1e-9,
since the leakage model's ``np.exp`` may differ by an ulp between CPUs
and numpy builds.
"""

import json
import math
import random
import re
from pathlib import Path

import pytest

from repro.cli import main

PINS = Path(__file__).resolve().parent.parent / "bench" / "expected"

#: The seed of ``bench/expected/replay_seed2017.json``.
REPLAY_SEED = 2017
REPLAY_PHASES = 200_000

#: A ``repro replay`` summary line, as the benchmark parses it.
SUMMARY = re.compile(
    r"policy (?P<policy>\w+): (?P<phases>\d+) phases / (?P<cycles>\d+) "
    r"cycles: (?P<adaptive>[\d.]+) nJ adaptive vs (?P<static>[\d.]+) nJ "
    r"static \((?P<saved>-?[\d.]+)% saved; (?P<switches>\d+) mode switches "
    r"costing (?P<overhead>[\d.]+)% of energy\)"
)

#: Keys whose float values are discrete choices, compared exactly.
EXACT_FLOAT_KEYS = {"vdd"}


def _assert_matches(observed, pinned, path="table"):
    if isinstance(pinned, dict):
        assert isinstance(observed, dict), path
        assert sorted(observed) == sorted(pinned), path
        for key in pinned:
            _assert_matches(observed[key], pinned[key], f"{path}.{key}")
    elif isinstance(pinned, list):
        assert isinstance(observed, list), path
        assert len(observed) == len(pinned), path
        for index, (got, want) in enumerate(zip(observed, pinned)):
            _assert_matches(got, want, f"{path}[{index}]")
    elif isinstance(pinned, float) and not isinstance(pinned, bool):
        assert isinstance(observed, (int, float)), path
        if path.rsplit(".", 1)[-1] in EXACT_FLOAT_KEYS:
            assert observed == pinned, path
        else:
            assert math.isclose(observed, pinned, rel_tol=1e-9), (
                f"{path}: {observed!r} != {pinned!r}"
            )
    else:
        assert type(observed) is type(pinned), path
        assert observed == pinned, path


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    """``compiled(design, grid)``: the 16-bit table's path, compiled
    once per module so the replay pins reuse the Booth 2x2 table."""
    paths = {}

    def compile_table(design, grid):
        key = f"{design}16_{grid}"
        if key not in paths:
            output = tmp_path_factory.mktemp(key) / "table.json"
            assert main(
                [
                    "compile-table", "--design", design, "--width", "16",
                    "--grid", grid, "--output", str(output),
                ]
            ) == 0
            paths[key] = output
        return paths[key]

    return compile_table


@pytest.mark.parametrize(
    "design, grid", [("booth", "2x2"), ("fir", "2x2"), ("booth", "3x3")]
)
def test_compile_table_matches_pin(design, grid, compiled):
    pinned = json.loads((PINS / "tables.json").read_text())[
        f"{design}16_{grid}"
    ]
    table = json.loads(compiled(design, grid).read_text())
    for key in ("fclk_ghz", "modes", "transitions"):
        _assert_matches(table[key], pinned[key], key)


@pytest.fixture(scope="module")
def replay_workloads(compiled):
    """The benchmark's seed-2017 traces over the Booth 2x2 table's modes,
    built as ``bench/workloads.py`` builds them."""
    import numpy as np

    from repro.io.results import load_mode_table
    from repro.traces import generate_trace

    with open(compiled("booth", "2x2")) as stream:
        table = load_mode_table(stream)
    modes = table.bitwidths
    rng = random.Random(REPLAY_SEED)
    uniform = [
        [rng.choice(modes), rng.randint(5_000, 100_000)]
        for _ in range(REPLAY_PHASES)
    ]
    bursty = generate_trace(
        "bursty",
        seed=REPLAY_SEED,
        length=REPLAY_PHASES,
        bits_levels=modes,
        mean_cycles=2000,
    ).phases
    return table, {
        "replay_uniform": np.array(uniform, dtype=np.int64),
        "replay_bursty": np.array(bursty, dtype=np.int64),
    }


@pytest.mark.parametrize("policy", ["greedy", "lookahead"])
@pytest.mark.parametrize("workload", ["replay_uniform", "replay_bursty"])
def test_replay_matches_pin(workload, policy, replay_workloads):
    from repro.serve.scheduler import replay_trace

    table, phases = replay_workloads
    pinned = json.loads(
        (PINS / f"replay_seed{REPLAY_SEED}.json").read_text()
    )[f"{workload}/{policy}"]
    report = replay_trace(table, phases[workload], policy=policy)
    observed = SUMMARY.fullmatch(f"policy {policy}: {report.summary()}")
    expected = SUMMARY.fullmatch(pinned)
    assert observed and expected, pinned
    for key in ("policy", "phases", "cycles", "switches"):
        assert observed[key] == expected[key], key
    for key in ("adaptive", "static"):
        assert math.isclose(
            float(observed[key]), float(expected[key]), rel_tol=1e-9
        ), f"{key}: {observed[key]} != {expected[key]}"
    # Percentages are printed from the nJ figures: hold them to half a
    # printed unit, so an ulp on a rounding boundary cannot flip them.
    for key, half_unit in (("saved", 0.05), ("overhead", 0.005)):
        assert abs(float(observed[key]) - float(expected[key])) <= half_unit
