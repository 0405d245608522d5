"""Run one ``repro`` command in this fresh process and time it from outside.

Usage::

    python bench/launch.py --result OUT.json [--spawned-at T] [--rep N]
                           [--trace] [--import-only] -- <repro arguments>

The launcher imports ``repro.cli`` from the checkout's ``src/`` and calls
``repro.cli.main(argv)`` exactly as ``python -m repro`` would.  When the
call returns it writes OUT.json: the exit code, the spawn time and the
start and end of ``main`` on the monotonic clock it shares with the
parent (``time.perf_counter``), and the peak RSS.
SIGTERM becomes a KeyboardInterrupt, so ``repro serve`` shuts down
cleanly and still writes its result.

With ``--trace`` the functions named in :data:`HOOKS` are wrapped where
their callers look them up, and every call is kept in memory as a span
``[name, start, end, parent, id, value]``, written to OUT.json at exit.
``id`` is the ``--rep`` number, except under a ``ModeScheduler.submit``
or ``submit_batch`` call, where it is the sequence number of the first
request that call served.  The
launcher adds the root spans ``startup`` (spawn to first line),
``import`` and ``cli`` (the ``main`` call).  Hooks are installed when
their module first executes, so tracing imports nothing the command
would not import anyway.  A hook whose target no longer exists is
reported in ``missing``; the command still runs.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import functools  # noqa: E402
import importlib  # noqa: E402
import importlib.abc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _feasible(args, result):
    return [result.points_feasible, result.points_evaluated]


def _points(args, result):
    return sum(len(rung.worst_slack_ps) for rung in result)


def _batched(args, result):
    return int(bool(result and result[2]))


def _one(args, result):
    return 1


def _frame(args, result):
    return len(args[1])


#: (module, attribute, layer, value-of-call).  Each entry patches the
#: name where the caller looks it up, so ``repro.cli.select_clock_for``
#: and not ``repro.core.flow.select_clock_for``.  The value function sees
#: the call's positional arguments and result and returns the number the
#: span carries (points swept, frame size, ...).
HOOKS = (
    ("repro.cli", "select_clock_for", "core.flow", None),
    ("repro.cli", "implement_with_domains", "core.flow", None),
    ("repro.core.exploration", "ExhaustiveExplorer.__init__",
     "core.exploration", None),
    ("repro.core.exploration", "ExhaustiveExplorer.run",
     "core.exploration", _feasible),
    ("repro.core.exploration", "dvas_case", "sta.caseanalysis", None),
    ("repro.core.exploration", "measure_activity", "sim.activity", None),
    ("repro.sta.lattice", "LatticeStaEngine.analyze_ladder",
     "sta.lattice", _points),
    ("repro.power.analysis", "PowerAnalyzer.total_batch", "power", None),
    ("repro.serve.table", "compile_mode_table", "serve.table", None),
    ("repro.io.results", "save_mode_table", "io", None),
    ("repro.io.results", "load_mode_table", "io", None),
    ("repro.traces", "load_trace_file", "traces", None),
    ("repro.serve.scheduler", "replay_trace", "serve.scheduler", None),
    ("repro.serve.scheduler", "ModeScheduler.submit",
     "serve.scheduler", _one),
    ("repro.serve.scheduler", "ModeScheduler.submit_batch",
     "serve.scheduler", _frame),
    ("repro.serve.scheduler", "GeneratorPool.acquire", "serve.pool",
     _batched),
    ("repro.serve.compiled", "CompiledTable.__init__", "serve.compiled",
     None),
    ("repro.serve.telemetry", "Telemetry.record_phase", "serve.telemetry",
     None),
    ("repro.serve.telemetry", "Telemetry.record_batch", "serve.telemetry",
     None),
)

ROOT_SPANS = ("startup", "import", "cli")
SCHEDULER = "serve.scheduler"


class Tracer:
    """Wraps the hooked functions and keeps their spans in memory."""

    def __init__(self, rep):
        self.names = list(ROOT_SPANS) + [
            f"{module}.{attribute}" for module, attribute, _, _ in HOOKS
        ]
        self.layers = list(ROOT_SPANS) + [layer for _, _, layer, _ in HOOKS]
        self.spans = []
        self.stack = [-1]
        self.rep = rep
        self.requests = 0
        self.installed = set()
        self.missing = {}

    def open(self, name, start):
        self.spans.append(
            [self.names.index(name), start, start, self.stack[-1], self.rep,
             None]
        )
        self.stack.append(len(self.spans) - 1)

    def close(self, end):
        self.spans[self.stack.pop()][2] = end

    def install(self, module_name, module):
        for index, (path, attribute, _, value) in enumerate(HOOKS):
            if path != module_name:
                continue
            *owners, leaf = attribute.split(".")
            owner = module
            try:
                for part in owners:
                    owner = getattr(owner, part)
                target = getattr(owner, leaf)
            except AttributeError as error:
                self.missing[f"{path}.{attribute}"] = str(error)
                continue
            name_index = len(ROOT_SPANS) + index
            setattr(owner, leaf, self._wrap(target, name_index, value))
            self.installed.add(index)

    def _wrap(self, target, name_index, value):
        spans, stack, layers = self.spans, self.stack, self.layers
        clock = time.perf_counter
        # submit / submit_batch: their value is the requests they serve.
        serves = layers[name_index] == SCHEDULER and value is not None
        tracer = self

        @functools.wraps(target)
        def traced(*args, **kwargs):
            parent = stack[-1]
            span = [name_index, 0.0, 0.0, parent,
                    spans[parent][4] if parent >= 0 else tracer.rep, None]
            top = serves and (
                parent < 0 or layers[spans[parent][0]] != SCHEDULER
            )
            if top:
                span[4] = tracer.requests
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = clock()
            try:
                result = target(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if value is not None:
                span[5] = value(args, result)
                if top:
                    tracer.requests += span[5]
            return result

        return traced

    def check_unreached(self):
        """Report hooks never installed because their target is gone."""
        for index, (path, attribute, _, _) in enumerate(HOOKS):
            name = f"{path}.{attribute}"
            if index in self.installed or name in self.missing:
                continue
            try:
                owner = importlib.import_module(path)
                for part in attribute.split("."):
                    owner = getattr(owner, part)
            except (ImportError, AttributeError) as error:
                self.missing[name] = str(error)


class _HookFinder(importlib.abc.MetaPathFinder):
    """Installs a module's hooks right after the module first executes."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.modules = {module for module, _, _, _ in HOOKS}

    def find_spec(self, name, path, target=None):
        if name not in self.modules:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                break
        else:
            return None
        execute = spec.loader.exec_module
        tracer = self.tracer

        def exec_module(module):
            execute(module)
            tracer.install(name, module)

        spec.loader.exec_module = exec_module
        return spec


def _parse(argv):
    parser = argparse.ArgumentParser(prog="launch.py")
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawned-at", type=float, default=STARTED)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    options = parser.parse_args(argv)
    if options.command[:1] == ["--"]:
        options.command = options.command[1:]
    return options


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv):
    options = _parse(argv)
    tracer = Tracer(options.rep) if options.trace else None
    import_start = time.perf_counter()
    if tracer is not None:
        sys.meta_path.insert(0, _HookFinder(tracer))
        tracer.open("startup", options.spawned_at)
        tracer.close(import_start)
        tracer.open("import", import_start)
    import repro.cli

    import_end = time.perf_counter()
    if tracer is not None:
        tracer.close(import_end)
    rc = 0
    main_start = main_end = import_end
    if not options.import_only:
        signal.signal(signal.SIGTERM, _interrupt)
        main_start = time.perf_counter()
        if tracer is not None:
            tracer.open("cli", main_start)
        try:
            rc = repro.cli.main(options.command)
        except SystemExit as stop:
            rc = stop.code if isinstance(stop.code, int) else 1
        main_end = time.perf_counter()
        if tracer is not None:
            tracer.close(main_end)
        sys.stdout.flush()
    record = {
        "rc": rc,
        "spawned": options.spawned_at,
        "main": [main_start, main_end],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.check_unreached()
        record.update(
            names=tracer.names,
            layers=tracer.layers,
            missing=tracer.missing,
            spans=tracer.spans,
        )
    with open(options.result, "w") as stream:
        json.dump(record, stream)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
