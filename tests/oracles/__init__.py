"""Reference engines kept only as test oracles.

Each layer of the production flow runs one engine: packed simulation,
lattice STA and the batched serve kernel.  The slower reference
semantics they are held to live here, importable as ``tests.oracles``
from both ``tests/`` and ``benchmarks/``:

* :mod:`tests.oracles.sim` -- the interpreted simulator, reached by
  making the packed compile fail;
* :mod:`tests.oracles.sta` -- the per-combination scalar STA loop;
* :mod:`tests.oracles.serve` -- the per-request ``submit`` replay and
  frame loops, and the closed-form greedy accounting.

Where a test needs a reference inside a production call path it swaps
it in at one seam with ``monkeypatch``, never through a production
parameter.
"""

import multiprocessing

import pytest


def require_fork() -> None:
    """Skip unless child processes fork: a monkeypatched seam reaches
    worker processes only by being inherited."""
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("worker processes inherit a patched seam only by fork")
