"""The benchmark's workloads: inputs, set-up, timed repetitions, checks.

A run of one workload sets up :data:`SETUPS` times (the median is
``setup_s``), builds its seeded inputs, then repeats timed repetitions
("reps") until ``--seconds`` of reps have been measured, and at least
:data:`MIN_REPS` of them.  With tracing on, odd reps run traced and even
reps untraced, so the tracing overhead is measured inside the run.

Every program call and every request is one operation; a non-zero exit,
an output that differs from its pin in ``bench/expected/`` or a broken
invariant fails it.
"""

from __future__ import annotations

import json
import random
import re
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import report
from client import ClosedLoop, Segment
from procs import Call, Server, Session

EXPECTED = Path(__file__).resolve().parent / "expected"

#: Seed whose replay summaries are pinned.  Explore outputs depend on no
#: seed (the designs are fixed), so their pins hold for every seed.
PIN_SEED = 2017
SETUPS = 5
MIN_REPS = 3
#: Points per bitwidth and BB combination: the exploration's default
#: VDD ladder has five rungs, 1.0 V to 0.6 V.
VDD_RUNGS = 5
REPLAY_PHASES = 200_000
POLICIES = ("greedy", "lookahead")
SERVE_OPERATORS = 6
SEGMENT_REQUESTS = 4_000
WARMUP_REQUESTS = 200

#: Metrics a workload reports beyond BENCHMARK.json's end-to-end set,
#: because they exist on some workloads only: (unit, better, bound).
#: The p99 has no bound: on a shared two-vCPU host its spread over ten
#: runs exceeded 25%.
DETAILS = {
    "latency_p99_ms": ("ms", "lower", None),
    "greedy_phases_per_s": ("1/s", "higher", 0.25),
    "lookahead_phases_per_s": ("1/s", "higher", 0.25),
}


class SetupFailed(RuntimeError):
    """A set-up step failed, so the run cannot measure anything."""


@dataclass(frozen=True)
class TableSpec:
    """One ``repro compile-table`` invocation on a fixed design."""

    design: str
    width: int
    grid: str

    @property
    def key(self) -> str:
        return f"{self.design}{self.width}_{self.grid}"

    @property
    def points(self) -> int:
        rows, cols = (int(n) for n in self.grid.split("x"))
        return self.width * VDD_RUNGS * 2 ** (rows * cols)

    def argv(self, output: Path) -> List[str]:
        return [
            "compile-table", "--design", self.design,
            "--width", str(self.width), "--grid", self.grid,
            "--output", str(output),
        ]


BOOTH16 = TableSpec("booth", 16, "2x2")
FIR16 = TableSpec("fir", 16, "2x2")
BOOTH16_3X3 = TableSpec("booth", 16, "3x3")
#: The table replay and serve load.
SERVED = BOOTH16


class Pins:
    """Pinned outputs in ``bench/expected/``; rewritten with ``write``."""

    FILES = {"tables": "tables.json", "replay": f"replay_seed{PIN_SEED}.json"}

    def __init__(self, write: bool):
        self.write = write
        self.data = {kind: self._read(kind) for kind in self.FILES}
        self.dirty = set()

    def _read(self, kind: str) -> dict:
        try:
            return json.loads((EXPECTED / self.FILES[kind]).read_text())
        except FileNotFoundError:
            return {}

    def check(self, kind: str, key: str, observed) -> Optional[str]:
        """None when *observed* matches its pin, else what is wrong."""
        if self.write:
            self.data[kind][key] = observed
            self.dirty.add(kind)
            return None
        if key not in self.data[kind]:
            return (f"no pinned {kind} output for {key}; "
                    "run bench/run.py --write-expected")
        if self.data[kind][key] != observed:
            return (f"{kind} output for {key} differs from "
                    f"bench/expected/{self.FILES[kind]}")
        return None

    def save(self) -> None:
        EXPECTED.mkdir(exist_ok=True)
        for kind in self.dirty:
            text = json.dumps(self.data[kind], indent=1, sort_keys=True)
            (EXPECTED / self.FILES[kind]).write_text(text + "\n")


@dataclass
class Rep:
    """One timed repetition."""

    wall: float
    items: int
    traced: bool
    cpu_s: float = 0.0
    calls: List[Call] = field(default_factory=list)
    segment: Optional[Segment] = None
    server_cpu_s: float = 0.0
    switches: int = 0


class Run:
    """State of one run of one workload: operations, set-ups, reps."""

    def __init__(self, workload: "Workload", session: Session, seed: int,
                 seconds: float, trace: bool, pins: Pins):
        self.workload = workload
        self.session = session
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.pins = pins
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.setups: List[float] = []
        self.reps: List[Rep] = []

    def ops(self, attempted: int, failed: int, problem: Optional[str]):
        self.attempted += attempted
        self.failed += failed
        if failed and problem and len(self.failures) < 20:
            self.failures.append(problem)

    def op(self, problem: Optional[str]) -> bool:
        """Count one operation; *problem* is None when it succeeded."""
        self.ops(1, int(problem is not None), problem)
        return problem is None

    def require(self, problem: Optional[str]) -> None:
        if not self.op(problem):
            raise SetupFailed(problem)

    def command(self, argv: List[str], rep: int = 0,
                traced: bool = False) -> Tuple[Call, Optional[str]]:
        call = self.session.command(argv, rep=rep, trace=traced)
        return call, None if call.ok else call.describe()

    def table_path(self, spec: TableSpec) -> Path:
        return self.session.path(f"{spec.key}.json")

    def table_modes(self, spec: TableSpec) -> List[int]:
        """The bitwidths of a compiled table's modes, ascending."""
        table = json.loads(self.table_path(spec).read_text())
        return sorted(int(bits) for bits in table["modes"])

    def compile_table(self, spec: TableSpec, rep: int = 0,
                      traced: bool = False) -> Tuple[Call, Optional[str]]:
        """Compile *spec* fresh and check it against its pin."""
        output = self.table_path(spec)
        call, problem = self.command(spec.argv(output), rep, traced)
        if problem is None:
            try:
                table = json.loads(output.read_text())
                observed = {
                    key: table[key]
                    for key in ("fclk_ghz", "modes", "transitions")
                }
            except (OSError, ValueError, KeyError) as error:
                problem = f"{spec.key}: unreadable table: {error!r}"
            else:
                problem = self.pins.check("tables", spec.key, observed)
        return call, problem

    def measure(self) -> None:
        """Set up, prepare inputs, then time reps for ``seconds``."""
        workload = self.workload
        for _ in range(SETUPS):
            self.setups.append(workload.setup(self))
        workload.prepare(self)
        measured = 0.0
        while len(self.reps) < MIN_REPS or measured < self.seconds:
            traced = self.trace and len(self.reps) % 2 == 1
            rep = workload.rep(self, len(self.reps), traced)
            self.reps.append(rep)
            measured += rep.wall
        workload.finish(self)

    def plain_reps(self) -> List[Rep]:
        return [rep for rep in self.reps if not rep.traced]

    def traced_reps(self) -> List[Rep]:
        return [rep for rep in self.reps if rep.traced]


def _median(values) -> float:
    return statistics.median(list(values))


class Workload:
    """Base class: the common metric plumbing of every workload."""

    def __init__(self, name: str):
        self.name = name

    def setup(self, run: Run) -> float:
        raise NotImplementedError

    def prepare(self, run: Run) -> None:
        pass

    def rep(self, run: Run, index: int, traced: bool) -> Rep:
        raise NotImplementedError

    def finish(self, run: Run) -> None:
        pass

    def end_to_end(self, run: Run) -> Dict[str, Tuple[float, int]]:
        """(value, sample count) of every end-to-end and detail metric."""
        raise NotImplementedError

    def per_layer(self, run: Run) -> Tuple[Dict[str, float], List[str]]:
        """Per-layer metric values and the report lines behind them."""
        raise NotImplementedError


class CommandWorkload(Workload):
    """A workload whose reps are program calls (explore and replay)."""

    def end_to_end(self, run):
        reps = run.plain_reps()
        calls = [call for rep in reps for call in rep.calls if call.ok]
        return {
            "setup_s": (_median(run.setups), len(run.setups)),
            "latency_ms": (_median(rep.wall for rep in reps) * 1e3, len(reps)),
            "throughput_per_s": (
                _median(rep.items / rep.wall for rep in reps), len(reps)
            ),
            "peak_rss_mb": (
                max(call.record["maxrss_kb"] for call in calls) / 1024.0,
                len(calls),
            ),
        }

    def per_layer(self, run):
        traced = run.traced_reps()
        calls = [call for rep in traced for call in rep.calls if call.ok]
        totals = report.aggregate([call.record for call in calls])
        wall = sum(call.window for call in calls)
        metrics = report.layer_metrics(totals, wall, len(traced))

        def rep_window(rep):
            return sum(call.window for call in rep.calls if call.ok)

        overhead = _median(map(rep_window, traced)) / _median(
            map(rep_window, run.plain_reps())
        )
        metrics.update({
            "trace_overhead_pct": 100.0 * (overhead - 1.0),
            "serve.wire_pct": 0.0,
            "serve.server.cpu_util": 0.0,
            "client.cpu_util": sum(rep.cpu_s for rep in traced)
            / sum(rep.wall for rep in traced),
            "serve.mode_switches": sum(rep.switches for rep in traced)
            / len(traced),
        })
        lines = report.format_layers(totals, wall, len(traced))
        lines.insert(0, f"  traced wall {wall:.3f} s over {len(traced)} reps, "
                        f"coverage {metrics['trace.coverage_pct']:.1f}%, "
                        f"trace overhead {metrics['trace_overhead_pct']:+.1f}%")
        return metrics, lines


class Explore(CommandWorkload):
    """``compile-table`` on fixed designs; set-up is the bare import."""

    def __init__(self, name: str, tables: Tuple[TableSpec, ...]):
        super().__init__(name)
        self.tables = tables

    def setup(self, run):
        call = run.session.command([], import_only=True)
        run.require(None if call.ok else call.describe())
        return call.wall

    def rep(self, run, index, traced):
        rep = Rep(0.0, sum(spec.points for spec in self.tables), traced)
        cpu = time.process_time()
        for spec in self.tables:
            call, problem = run.compile_table(spec, index, traced)
            run.op(problem)
            rep.calls.append(call)
            rep.wall += call.wall
        rep.cpu_s = time.process_time() - cpu
        return rep


_SUMMARY = re.compile(
    r"policy (?P<policy>\S+): (?P<phases>\d+) phases / (?P<cycles>\d+) "
    r"cycles: (?P<adaptive>[\d.]+) nJ adaptive vs (?P<static>[\d.]+) nJ "
    r"static \((?P<saved>-?[\d.]+)% saved; (?P<switches>\d+) mode switches"
)


def _write_uniform_trace(run: Run, modes: List[int]) -> Path:
    """A schema-1 trace: bits uniform over the modes, cycles on [5k, 100k]."""
    rng = random.Random(run.seed)
    phases = [
        [rng.choice(modes), rng.randint(5_000, 100_000)]
        for _ in range(REPLAY_PHASES)
    ]
    document = {
        "schema": 1,
        "kind": "repro-workload-trace",
        "family": "uniform",
        "seed": run.seed,
        "params": {"length": REPLAY_PHASES, "bits_levels": modes,
                   "cycles": [5_000, 100_000]},
        "phases": phases,
    }
    path = run.session.path("trace_uniform.json")
    path.write_text(json.dumps(document, indent=2) + "\n")
    return path


def _generate_bursty_trace(run: Run, modes: List[int]) -> Path:
    """``repro gen-traces --family bursty`` at the table's bitwidths."""
    out = run.session.path("traces")
    call, problem = run.command([
        "gen-traces", "--output-dir", str(out), "--family", "bursty",
        "--seed", str(run.seed), "--length", str(REPLAY_PHASES),
        "--levels", ",".join(map(str, modes)), "--mean-cycles", "2000",
    ])
    run.require(problem)
    return out / "trace_bursty.json"


class Replay(CommandWorkload):
    """``repro replay`` of one 200k-phase trace under two policies."""

    def __init__(self, name: str, make_trace):
        super().__init__(name)
        self.make_trace = make_trace
        self.table: Optional[Path] = None
        self.trace_path: Optional[Path] = None
        self.phases = 0
        self.cycles = 0

    def setup(self, run):
        call, problem = run.compile_table(SERVED)
        run.require(problem)
        self.table = run.table_path(SERVED)
        return call.wall

    def prepare(self, run):
        self.trace_path = self.make_trace(run, run.table_modes(SERVED))
        document = json.loads(self.trace_path.read_text())
        if document.get("schema") != 1:
            raise SetupFailed(f"{self.trace_path.name} is not a schema-1 trace")
        self.phases = len(document["phases"])
        self.cycles = sum(cycles for _, cycles in document["phases"])

    def check_summary(self, run: Run, policy: str, line: str) -> Optional[str]:
        match = _SUMMARY.match(line)
        if match is None or match["policy"] != policy:
            return f"unexpected replay output {line!r}"
        if (int(match["phases"]), int(match["cycles"])) != (
            self.phases, self.cycles
        ):
            return f"replay of {self.phases} phases reported {line!r}"
        if float(match["adaptive"]) > float(match["static"]):
            return f"adaptive energy above static: {line!r}"
        if int(match["switches"]) > self.phases:
            return f"more switches than phases: {line!r}"
        if run.seed == PIN_SEED:
            return run.pins.check("replay", f"{self.name}/{policy}", line)
        return None

    def rep(self, run, index, traced):
        rep = Rep(0.0, self.phases * len(POLICIES), traced)
        cpu = time.process_time()
        for policy in POLICIES:
            call, problem = run.command(
                ["replay", "--table", str(self.table), "--trace",
                 str(self.trace_path), "--policy", policy],
                index, traced,
            )
            if problem is None:
                problem = self.check_summary(run, policy, call.last_line)
            if run.op(problem):
                rep.switches += int(_SUMMARY.match(call.last_line)["switches"])
            rep.calls.append(call)
            rep.wall += call.wall
        rep.cpu_s = time.process_time() - cpu
        return rep

    def end_to_end(self, run):
        metrics = super().end_to_end(run)
        reps = run.plain_reps()
        for position, policy in enumerate(POLICIES):
            metrics[f"{policy}_phases_per_s"] = (
                _median(self.phases / rep.calls[position].wall for rep in reps),
                len(reps),
            )
        return metrics


def _request_lines(rng: random.Random, modes: List[int],
                   count: int) -> Tuple[List[bytes], List[int]]:
    lines, bits = [], []
    for _ in range(count):
        need = rng.choice(modes)
        request = {
            "op": f"op{rng.randrange(SERVE_OPERATORS)}",
            "bits": need,
            "cycles": rng.randint(1_000, 20_000),
        }
        lines.append(json.dumps(request).encode() + b"\n")
        bits.append(need)
    return lines, bits


def _reply_problem(reply: bytes, need: int) -> Optional[str]:
    try:
        payload = json.loads(reply)
    except ValueError:
        return f"unparseable reply {reply[:80]!r}"
    if "error" in payload:
        return f"error reply {payload['error']}"
    if payload.get("served_bits", 0) < need:
        return f"served {payload.get('served_bits')} bits for {need}"
    return None


@dataclass
class _Endpoint:
    """A server child, the load generator's connections to it, and the
    requests sent to it."""

    server: Server
    loop: Optional[ClosedLoop] = None
    sent: int = 0
    counters: Optional[dict] = None


class Serve(Workload):
    """A ``repro serve`` child driven by a closed loop of connections."""

    def __init__(self, name: str, connections: int):
        super().__init__(name)
        self.connections = connections
        self.plain: Optional[_Endpoint] = None
        self.traced: Optional[_Endpoint] = None
        self.modes: List[int] = []
        self.rng: Optional[random.Random] = None

    def setup(self, run):
        call, problem = run.compile_table(SERVED)
        run.require(problem)
        server = run.session.start_server(run.table_path(SERVED))
        run.op(None)
        if self.plain is not None:
            self.retire(run, self.plain)
        self.plain = _Endpoint(server)
        return call.wall + server.launch_s

    def retire(self, run: Run, endpoint: _Endpoint) -> None:
        """Check the server's final counters, then stop it."""
        server = endpoint.server
        counters = endpoint.counters = server.stats()["counters"]
        if counters["requests"] != endpoint.sent:
            problem = (f"server counted {counters['requests']} requests, "
                       f"{endpoint.sent} were sent")
        elif counters["accuracy_violations"] or counters["errors"]:
            problem = f"server reported {counters}"
        else:
            problem = None
        run.op(problem)
        server.stop()
        run.op(None if server.rc == 0 and server.record is not None
               else f"server exited {server.rc}: {server.stderr_tail()}")

    def endpoints(self) -> List[_Endpoint]:
        return [e for e in (self.plain, self.traced) if e is not None]

    def prepare(self, run):
        self.modes = run.table_modes(SERVED)
        if run.trace:
            self.traced = _Endpoint(
                run.session.start_server(run.table_path(SERVED), trace=True)
            )
        warmup = random.Random(run.seed ^ 0x5EED)
        self.rng = random.Random(run.seed)
        for endpoint in self.endpoints():
            endpoint.loop = ClosedLoop(endpoint.server.port, self.connections)
            lines, bits = _request_lines(warmup, self.modes, WARMUP_REQUESTS)
            self.send(run, endpoint, lines, bits)

    def send(self, run: Run, endpoint: _Endpoint, lines, bits) -> Segment:
        segment = endpoint.loop.run(lines)
        endpoint.sent += len(lines)
        problems = [
            problem
            for problem in map(_reply_problem, segment.replies, bits)
            if problem is not None
        ]
        run.ops(len(lines), len(problems), problems[0] if problems else None)
        return segment

    def rep(self, run, index, traced):
        endpoint = self.traced if traced else self.plain
        lines, bits = _request_lines(self.rng, self.modes, SEGMENT_REQUESTS)
        cpu = endpoint.server.cpu_seconds()
        segment = self.send(run, endpoint, lines, bits)
        return Rep(segment.wall, len(lines), traced, segment.cpu_s,
                   segment=segment,
                   server_cpu_s=endpoint.server.cpu_seconds() - cpu)

    def finish(self, run):
        for endpoint in self.endpoints():
            endpoint.loop.close()
            self.retire(run, endpoint)

    @staticmethod
    def _latencies(reps: List[Rep]) -> List[int]:
        return [ns for rep in reps for ns in rep.segment.latencies_ns]

    def end_to_end(self, run):
        reps = run.plain_reps()
        latencies = self._latencies(reps)
        return {
            "setup_s": (_median(run.setups), len(run.setups)),
            "latency_ms": (_median(latencies) / 1e6, len(latencies)),
            "throughput_per_s": (
                _median(rep.items / rep.wall for rep in reps), len(reps)
            ),
            "peak_rss_mb": (
                (self.plain.server.record or {}).get("maxrss_kb", 0) / 1024.0,
                1,
            ),
            "latency_p99_ms": (
                statistics.quantiles(latencies, n=100)[98] / 1e6,
                len(latencies),
            ),
        }

    def per_layer(self, run):
        traced = run.traced_reps()
        windows = [(rep.segment.start, rep.segment.end) for rep in traced]
        totals = report.aggregate([self.traced.server.record], windows)
        wall = sum(rep.wall for rep in traced)
        metrics = report.layer_metrics(totals, wall, len(traced))
        latencies = self._latencies(traced)
        scheduler_s = totals.busy.get("serve.scheduler", 0.0)
        counters = self.traced.counters
        metrics.update({
            "trace_overhead_pct": 100.0 * (
                _median(latencies) / _median(self._latencies(run.plain_reps()))
                - 1.0
            ),
            "serve.wire_pct": 100.0 * (
                1.0 - scheduler_s / (sum(latencies) / 1e9)
            ),
            "serve.server.cpu_util": sum(rep.server_cpu_s for rep in traced)
            / wall,
            "client.cpu_util": sum(rep.cpu_s for rep in traced) / wall,
            "serve.mode_switches": counters["mode_switches"]
            / counters["requests"] * SEGMENT_REQUESTS,
        })
        lines = report.format_layers(totals, wall, len(traced))
        lines.insert(0, f"  traced wall {wall:.3f} s over {len(traced)} "
                        f"segments of {SEGMENT_REQUESTS} requests, coverage "
                        f"{metrics['trace.coverage_pct']:.1f}%, trace "
                        f"overhead {metrics['trace_overhead_pct']:+.1f}%")
        return metrics, lines


#: Every workload, by the name BENCHMARK.json gives it.
WORKLOADS = {
    "explore_booth_fir": lambda: Explore(
        "explore_booth_fir", (BOOTH16, FIR16)
    ),
    "explore_domains3x3": lambda: Explore(
        "explore_domains3x3", (BOOTH16_3X3,)
    ),
    "replay_uniform": lambda: Replay("replay_uniform", _write_uniform_trace),
    "replay_bursty": lambda: Replay("replay_bursty", _generate_bursty_trace),
    "serve_closed1": lambda: Serve("serve_closed1", 1),
    "serve_closed2": lambda: Serve("serve_closed2", 2),
}
