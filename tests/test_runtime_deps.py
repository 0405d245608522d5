"""The installed package needs numpy and nothing else at runtime.

A fresh interpreter blocks ``networkx`` (once a declared dependency) and
imports every module of the package, so a module that still needs a
dropped dependency, or an ``__init__`` that re-exports a deleted module,
fails here rather than in a user's environment.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

_IMPORT_EVERYTHING = """
import importlib, json, pkgutil, sys

sys.modules["networkx"] = None
before = set(sys.modules)
import repro

failed = []
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if info.name == "repro.__main__":  # importing it runs the CLI
        continue
    try:
        importlib.import_module(info.name)
    except Exception as error:
        failed.append(f"{info.name}: {error!r}")
stdlib = getattr(sys, "stdlib_module_names", None)
loaded = None
if stdlib is not None:
    loaded = sorted({
        name.split(".")[0]
        for name in set(sys.modules) - before
        if sys.modules[name] is not None and not name.startswith("__")
    } - set(stdlib))  # "__mp_main__" is multiprocessing's alias of __main__
print(json.dumps({"failed": failed, "loaded": loaded}))
"""


@pytest.fixture(scope="module")
def import_walk():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_EVERYTHING],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_every_module_imports_without_networkx(import_walk):
    assert import_walk["failed"] == []


@pytest.mark.skipif(
    sys.version_info < (3, 10), reason="needs sys.stdlib_module_names"
)
def test_imports_load_no_third_party_module_but_numpy(import_walk):
    assert set(import_walk["loaded"]) <= {"numpy", "repro"}
