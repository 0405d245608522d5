"""``repro chaos`` summaries pinned in tier-1, and the harness kept off
the serving import path.

CI's chaos smoke runs the seeded storm (``repro chaos --design adder
--width 5 --grid 2x2 --seed 7``) and the seeded recalibration soak (the
same design with ``--serve-only --recalibrate --recovery --requests
256``).  Both are seeded end to end, so their ``--summary`` files must
equal the JSON committed in ``tests/golden/``: discrete values exactly,
floats to a relative 1e-9, as ``tests/test_golden_tables.py`` compares.
The one field left out is ``exploration.shard_retries``: it counts the
shards still unfinished when the injected worker crash breaks the
process pool, so it depends on how far the other worker got.

Regenerate the pins with ``PYTHONPATH=src python -m tests.test_chaos_pins``
and explain their diff in CHANGES.md.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from repro.cli import main
from tests.test_golden_tables import _assert_matches

PINS = Path(__file__).resolve().parent / "golden" / "chaos_summaries.json"
SRC = Path(__file__).resolve().parent.parent / "src"

DESIGN = ["--design", "adder", "--width", "5", "--grid", "2x2"]

#: CI's chaos-smoke command lines, by pin name.
RUNS = {
    "storm_seed7": ["--seed", "7"],
    "recal_seed7": [
        "--seed", "7", "--serve-only", "--recalibrate", "--recovery",
        "--requests", "256",
    ],
}


def chaos_summary(name: str, directory: Path) -> dict:
    """Run pin *name* in process; its summary minus the unpinned field."""
    path = directory / f"{name}.json"
    assert main(["chaos", *DESIGN, *RUNS[name], "--summary", str(path)]) == 0
    summary = json.loads(path.read_text())
    if summary["exploration"] is not None:
        del summary["exploration"]["shard_retries"]
    return summary


@pytest.mark.parametrize("name", sorted(RUNS))
def test_chaos_summary_matches_pin(name, tmp_path):
    pinned = json.loads(PINS.read_text())[name]
    _assert_matches(chaos_summary(name, tmp_path), pinned, name)


def test_cli_import_leaves_the_chaos_harness_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    probe = "import sys, repro.cli; print('repro.faults.chaos' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        pins = {name: chaos_summary(name, Path(scratch)) for name in RUNS}
    PINS.parent.mkdir(exist_ok=True)
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"pinned {', '.join(sorted(pins))} in {PINS}")
