"""The reproduction's full-size mode tables, pinned in tier-1.

``repro compile-table`` on the paper's Booth and FIR operators (16 bits,
2x2 back-bias domains, and Booth on the 3x3 grid of the Fig. 6
domain-count axis) runs the whole offline flow: implementation,
case analysis, activity, the lattice STA filter, power ranking and the
transition costs.  Its output must equal the pins the end-to-end
benchmark checks (``bench/expected/tables.json``, read here and never
written): discrete values -- bitwidths, BB patterns, VDDs, counts --
exactly, floats to a relative 1e-9, since the leakage model's ``np.exp``
may differ by an ulp between CPUs and numpy builds.
"""

import json
import math
from pathlib import Path

import pytest

from repro.cli import main

PINS = Path(__file__).resolve().parent.parent / "bench" / "expected"

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


@pytest.mark.parametrize(
    "design, grid", [("booth", "2x2"), ("fir", "2x2"), ("booth", "3x3")]
)
def test_compile_table_matches_pin(design, grid, tmp_path, capsys):
    pinned = json.loads((PINS / "tables.json").read_text())[
        f"{design}16_{grid}"
    ]
    output = tmp_path / "table.json"
    assert main(
        [
            "compile-table", "--design", design, "--width", "16",
            "--grid", grid, "--output", str(output),
        ]
    ) == 0
    capsys.readouterr()
    table = json.loads(output.read_text())
    for key in ("fclk_ghz", "modes", "transitions"):
        _assert_matches(table[key], pinned[key], key)
