"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``explore``      -- implement a design with Vth domains and run the
                      exhaustive optimization; prints the Pareto frontier
                      and optionally saves the exploration result as JSON.
* ``compare``      -- Fig. 5-style comparison of the proposed method
                      against DVAS (NoBB / FBB) on one design.
* ``report-timing``-- print the worst timing paths of an implemented
                      design at a chosen corner.
* ``characterize`` -- dump the synthetic library at a corner, as a text
                      table or as a Liberty (.lib) file.
* ``compile-table``-- implement + explore a design and freeze the result
                      into the serving artifact (a versioned ModeTable
                      JSON with a precomputed transition-cost matrix).
* ``serve``        -- run the asyncio accuracy server from a compiled
                      table; ``--soak N`` drives N requests through the
                      socket and exits (the CI smoke path).
* ``replay``       -- replay a workload trace through the serve
                      scheduler under a chosen policy.
* ``gen-traces``   -- generate the seeded workload-trace suite (bursty /
                      diurnal / phase_structured / adversarial_flapping)
                      as versioned JSON artifacts.
* ``train-policy`` -- train the offline fitted-Q mode-selection policy
                      on a trace suite and embed it in a ModeTable.
* ``chaos``        -- replay a seeded fault schedule against a
                      margin-guarded serve session and a crash-resilient
                      sharded sweep; exits non-zero if any invariant
                      broke (the CI chaos-smoke path).

Sweep commands (``explore``, ``compare``, ``compile-table``, ``chaos``)
shut down gracefully on SIGINT/SIGTERM: the current shard finishes, every
completed shard is already flushed to the persistent cache, and the exit
message says how to resume.
"""

from __future__ import annotations

import argparse
import contextlib
import signal
import sys
from typing import Callable, Optional

import numpy as np

from repro.core.config import ExplorationSettings
from repro.core.dvas import dvas_explore
from repro.core.exploration import ExhaustiveExplorer
from repro.core.flow import (
    implement_base,
    implement_with_domains,
    select_clock_for,
)
from repro.core.report import format_pareto_table, format_savings
from repro.operators import (
    adequate_adder,
    booth_multiplier,
    cordic_rotator,
    divider,
    fft_butterfly,
    fir_filter,
    l1_norm,
)
from repro.operators.fir import FirParameters
from repro.pnr.grid import GridPartition
from repro.techlib.characterize import characterize, default_corner_grid
from repro.techlib.library import Library


def _design_factory(name: str, width: int, library: Library) -> Callable:
    builders = {
        "booth": lambda: booth_multiplier(library, width),
        "butterfly": lambda: fft_butterfly(library, width),
        "fir": lambda: fir_filter(
            library, FirParameters(taps=30, width=width)
        ),
        "adder": lambda: adequate_adder(library, width),
        "l1norm": lambda: l1_norm(library, elements=4, width=width),
        "cordic": lambda: cordic_rotator(
            library, width, iterations=min(12, width)
        ),
        "booth-pipelined": lambda: booth_multiplier(
            library, width, pipelined=True
        ),
        "divider": lambda: divider(library, width),
    }
    try:
        return builders[name]
    except KeyError:
        raise SystemExit(
            f"unknown design {name!r}; choose from {sorted(builders)}"
        )


def _number(kind, low, strict: bool = False) -> Callable:
    """argparse ``type=`` for a *kind* (int or float) of at least *low*,
    or above it when *strict*."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}"
            )
        if not (value > low if strict else value >= low):
            bound = "greater than" if strict else "at least"
            raise argparse.ArgumentTypeError(
                f"must be {bound} {low}, got {value}"
            )
        return value

    return parse


_positive_int = _number(int, 1)
_non_negative_int = _number(int, 0)


def _levels(text: str) -> tuple:
    """argparse ``type=`` for a comma-separated list of bitwidths."""
    return tuple(_positive_int(token) for token in text.split(","))


def _parse_grid(text: str) -> GridPartition:
    """argparse ``type=`` for ``--grid``: ``RxC`` with R, C >= 1."""
    try:
        rows, cols = text.lower().split("x")
        return GridPartition(int(rows), int(cols))
    except (ValueError, TypeError):
        raise argparse.ArgumentTypeError(
            f"bad grid {text!r}; expected e.g. 2x2"
        )


@contextlib.contextmanager
def _graceful_sweeps():
    """Arm SIGINT/SIGTERM to stop the sharded engine cooperatively."""
    from repro.parallel.engine import interrupt_event

    event = interrupt_event()
    event.clear()
    previous = {}

    def handler(signum, frame):
        if event.is_set():  # second signal: give up politely
            raise KeyboardInterrupt
        event.set()
        print(
            "\ninterrupt received: finishing the running shard(s) and "
            "flushing completed work...",
            file=sys.stderr,
        )

    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, handler)
        except ValueError:  # pragma: no cover - not the main thread
            pass
    try:
        yield event
    finally:
        for signum, old in previous.items():
            signal.signal(signum, old)
        event.clear()


def _settings(args) -> ExplorationSettings:
    return ExplorationSettings(
        bitwidths=tuple(range(1, args.width + 1)),
        workers=getattr(args, "workers", 0),
        cache=getattr(args, "cache", False) or getattr(args, "resume", False),
        cache_dir=getattr(args, "cache_dir", None),
    )


def cmd_explore(args) -> int:
    library = Library()
    factory = _design_factory(args.design, args.width, library)
    constraint = select_clock_for(factory, library)
    design = implement_with_domains(
        factory, library, args.grid, constraint=constraint
    )
    print(design.describe())
    result = ExhaustiveExplorer(design).run(_settings(args))
    print(
        f"explored {result.points_evaluated} points, filtered "
        f"{result.filtered_fraction * 100:.1f}%, {result.runtime_s:.1f} s"
    )
    if result.cache_stats is not None:
        print(result.cache_stats.describe())
    for point in result.pareto():
        print(" ", point.describe())
    if args.output:
        from repro.io.results import save_exploration

        with open(args.output, "w") as stream:
            save_exploration(result, stream)
        print(f"exploration result written to {args.output}")
    return 0


def cmd_compare(args) -> int:
    library = Library()
    factory = _design_factory(args.design, args.width, library)
    constraint = select_clock_for(factory, library)
    base = implement_base(factory, library, constraint=constraint)
    domained = implement_with_domains(
        factory, library, args.grid, constraint=constraint
    )
    settings = _settings(args)
    proposed = ExhaustiveExplorer(domained).run(settings)
    nobb = dvas_explore(base, fbb=False, settings=settings)
    fbb = dvas_explore(base, fbb=True, settings=settings)
    print(base.describe())
    print(domained.describe())
    print(
        format_pareto_table(
            {
                "Proposed": proposed.best_per_bitwidth,
                "DVAS (NoBB)": nobb.best_per_bitwidth,
                "DVAS (FBB)": fbb.best_per_bitwidth,
            },
            settings.bitwidths,
        )
    )
    print()
    print(
        format_savings(
            fbb.best_per_bitwidth,
            proposed.best_per_bitwidth,
            settings.bitwidths,
        )
    )
    return 0


def cmd_report_timing(args) -> int:
    from repro.sta.engine import StaEngine
    from repro.sta.report_timing import report_timing

    if args.bits is not None and not 1 <= args.bits <= args.width:
        print(
            f"error: --bits must be between 1 and --width ({args.width}), "
            f"got {args.bits}",
            file=sys.stderr,
        )
        return 2
    library = Library()
    factory = _design_factory(args.design, args.width, library)
    design = implement_base(factory, library)
    print(design.describe())
    engine = StaEngine(design.timing_graph(), library)
    fbb_cells = np.full(
        len(design.netlist.cells), not args.nobb, dtype=bool
    )
    case = None
    if args.bits is not None:
        from repro.sta.caseanalysis import dvas_case

        case = dvas_case(design.netlist, [args.bits])[0]
    paths = report_timing(
        engine, design.constraint, args.vdd, fbb_cells,
        case=case, max_paths=args.paths,
    )
    for i, path in enumerate(paths):
        print(f"\n--- path {i + 1} (endpoint {path.endpoint_net}) ---")
        print(path.format_text())
    return 0


def cmd_cache(args) -> int:
    from repro.parallel.cache import ResultCache

    cache = ResultCache(args.cache_dir)
    if args.action == "stats":
        print(cache.disk_usage().describe())
        return 0
    removed = cache.clear()
    print(f"removed {removed} entries from {cache.directory}")
    return 0


def _implement_for(args):
    library = Library()
    factory = _design_factory(args.design, args.width, library)
    constraint = select_clock_for(factory, library)
    return implement_with_domains(
        factory, library, args.grid, constraint=constraint
    )


def cmd_compile_table(args) -> int:
    from repro.core.runtime import BiasGeneratorModel
    from repro.io.results import load_exploration, save_mode_table
    from repro.serve.errors import ServeError
    from repro.serve.table import compile_mode_table

    design = _implement_for(args)
    print(design.describe())
    if args.exploration:
        try:
            with open(args.exploration) as stream:
                result = load_exploration(stream)
        except ValueError as error:
            raise ServeError(str(error)) from None
        if result.design_name.split("_")[0] not in design.netlist.name:
            print(
                f"warning: exploration was run on {result.design_name!r}, "
                f"compiling against {design.netlist.name!r}"
            )
    else:
        result = ExhaustiveExplorer(design).run(_settings(args))
    table = compile_mode_table(
        design,
        result,
        BiasGeneratorModel(),
        with_margins=args.margins,
        margin_samples=args.margin_samples,
    )
    print(table.describe())
    with open(args.output, "w") as stream:
        save_mode_table(table, stream)
    print(f"mode table compiled to {args.output}")
    return 0


def _load_table(path):
    from repro.io.results import load_mode_table
    from repro.serve.errors import ServeError

    try:
        with open(path) as stream:
            return load_mode_table(stream)
    except OSError as error:
        raise ServeError(
            f"cannot read mode table {path}: {error.strerror}"
        ) from None


def _policy_kwargs(args):
    """Parse + validate the shared ``--policy`` / ``--policy-arg`` surface.

    Registry validation errors (unknown policy parameter, bad value) are
    user errors: re-raise as :class:`ServeError` so ``main`` exits 2 with
    the registry's message listing the policy's known parameters.
    """
    from repro.serve.errors import ServeError
    from repro.serve.policy import parse_policy_args, validate_policy_kwargs

    try:
        return validate_policy_kwargs(
            args.policy, parse_policy_args(args.policy_args)
        )
    except ValueError as error:
        raise ServeError(str(error)) from None


def _trace_workload(path):
    """Load a `repro gen-traces` artifact as an ``(N, 2)`` phase array."""
    from repro.serve.errors import ServeError
    from repro.traces import TraceError, load_trace_file

    try:
        return load_trace_file(path)
    except TraceError as error:
        raise ServeError(str(error)) from None


def cmd_serve(args) -> int:
    import asyncio
    import json as json_module

    from repro.serve.scheduler import ModeScheduler, chaos_requests
    from repro.serve.server import AccuracyServer

    table = _load_table(args.table)
    print(table.describe())
    guard = None
    recal = None
    if args.recal_interval > 0.0:
        from repro.serve.guard import MarginGuard
        from repro.serve.recal import RecalibrationLoop

        if not table.has_margins:
            print(
                "--recal-interval needs a margined table; re-run "
                "`repro compile-table --margins`"
            )
            return 2
        guard = MarginGuard(table)
        recal = RecalibrationLoop(
            guard, args.recal_interval, seed=args.seed
        )
        print(
            f"recalibration loop attached (every "
            f"{args.recal_interval:.0f} ns of operator virtual time)"
        )
    scheduler = ModeScheduler(
        table,
        num_generators=args.generators,
        policy=args.policy,
        max_queue_depth=args.queue_depth,
        policy_kwargs=_policy_kwargs(args),
        guard=guard,
        recal=recal,
    )
    server = AccuracyServer(
        scheduler, host=args.host, port=args.port, max_pending=args.max_pending
    )

    async def soak() -> dict:
        async with server:
            print(f"serving on {args.host}:{server.port}")
            # Machine-readable bound port: soak scripts pass --port 0
            # and scrape this line instead of racing for a free port.
            print(f"REPRO_SERVE_PORT={server.port}", flush=True)

            async def client(requests):
                reader, writer = await asyncio.open_connection(
                    args.host, server.port
                )
                try:
                    for op, bits, cycles in requests:
                        writer.write(
                            json_module.dumps(
                                {"op": op, "bits": bits, "cycles": cycles}
                            ).encode()
                            + b"\n"
                        )
                        await writer.drain()
                        response = json_module.loads(await reader.readline())
                        if "error" in response:
                            raise RuntimeError(response["error"])
                        if response["served_bits"] < bits:
                            raise RuntimeError(
                                f"served {response['served_bits']} bits "
                                f"for a {bits}-bit request"
                            )
                finally:
                    writer.close()
                    await writer.wait_closed()

            if args.trace:
                # A trace file drives a single-operator soak: the phase
                # stream is the workload, exactly as replay sees it.
                everything = [
                    ("op0", bits, cycles)
                    for bits, cycles in _trace_workload(args.trace).tolist()
                ]
            else:
                everything = list(
                    chaos_requests(table, 3, args.soak, args.seed)
                )
            shard = max(1, len(everything) // args.clients)
            await asyncio.gather(
                *(
                    client(everything[i : i + shard])
                    for i in range(0, len(everything), shard)
                )
            )
            return server.stats()

    async def forever() -> None:
        # SIGINT/SIGTERM end the wait from inside the loop.  A signal
        # handler that raises KeyboardInterrupt can interrupt the loop's
        # own callbacks; asyncio.run's task cancellation was then seen to
        # wait forever, and the server never exited.
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stop.set)
        async with server:
            print(f"serving on {args.host}:{server.port} (ctrl-c to stop)")
            print(f"REPRO_SERVE_PORT={server.port}", flush=True)
            await stop.wait()

    if args.soak or args.trace:
        stats = asyncio.run(soak())
        counters = stats["counters"]
        print(
            f"soak complete: {counters['requests']} requests, "
            f"{counters['mode_switches']} switches, "
            f"{counters['degraded']} degraded, "
            f"{counters['accuracy_violations']} violations, "
            f"p99 latency {stats['latency_ns']['p99']:.0f} ns"
        )
        if recal is not None:
            print(
                f"recalibration: {recal.learner.epoch} epochs, "
                f"{recal.probes_run} probes, "
                f"{recal.learner.demotions} demotions / "
                f"{recal.learner.readvances} re-advances"
            )
        if args.stats_output:
            with open(args.stats_output, "w") as stream:
                json_module.dump(stats, stream, indent=2)
            print(f"telemetry written to {args.stats_output}")
        return 1 if counters["accuracy_violations"] else 0
    try:
        asyncio.run(forever())
    except KeyboardInterrupt:
        pass
    print("\nshutting down")
    return 0


def cmd_fleet_serve(args) -> int:
    import json as json_module

    from repro.fleet import FleetRouter
    from repro.serve.scheduler import chaos_requests

    table = _load_table(args.table)
    print(table.describe())
    router = FleetRouter(
        table,
        workers=args.workers,
        batch_window=args.batch_window,
        max_inflight=args.max_inflight,
        num_generators=args.generators,
        policy=args.policy,
        policy_params=_policy_kwargs(args),
        max_queue_depth=args.queue_depth,
        guard=args.guard,
        retreat_budget=args.retreat_budget,
    )
    if args.trace:
        trace = [
            (f"op{index % args.operators}", bits, cycles)
            for index, (bits, cycles) in enumerate(
                _trace_workload(args.trace).tolist()
            )
        ]
    else:
        trace = list(
            chaos_requests(table, args.operators, args.soak, args.seed)
        )
    violations = 0
    with router:
        print(
            f"fleet of {router.num_workers} workers, shared segment "
            f"{router.segment_name}"
        )
        phases = []
        for offset in range(0, len(trace), args.chunk):
            phases.extend(
                router.submit_many(trace[offset : offset + args.chunk])
            )
        stats = router.stats()
    for phase in phases:
        if phase.served_bits < phase.required_bits:
            violations += 1
    json_reparses = sum(
        worker["parse"]["json"] for worker in stats["workers"]
    )
    counters = stats["counters"]
    print(
        f"fleet soak complete: {counters['requests']} requests over "
        f"{stats['num_workers']} workers, "
        f"{counters['mode_switches']} switches, "
        f"{counters['degraded']} degraded, "
        f"{counters.get('fleet_retreats', 0)} fleet retreats, "
        f"{violations} violations, "
        f"{json_reparses} worker JSON re-parses"
    )
    if args.stats_output:
        with open(args.stats_output, "w") as stream:
            json_module.dump(stats, stream, indent=2)
        print(f"fleet telemetry written to {args.stats_output}")
    return 1 if violations or json_reparses else 0


def cmd_replay(args) -> int:
    from repro.serve.scheduler import replay_trace

    table = _load_table(args.table)
    policy_kwargs = _policy_kwargs(args)
    if args.trace:
        workload = _trace_workload(args.trace)
    else:
        workload = _random_phases(table.bitwidths, args.phases, args.seed)
    report = replay_trace(
        table,
        workload,
        policy=args.policy,
        lookahead_window=args.window,
        **policy_kwargs,
    )
    print(f"policy {args.policy}: {report.summary()}")
    return 0


def _random_phases(bitwidths, count: int, seed: int) -> np.ndarray:
    """``count`` phases of uniform bits over *bitwidths* and cycles on
    [5k, 100k), as an ``(N, 2)`` array.

    One ``integers`` call with interleaved bounds draws exactly the
    stream of a per-phase ``rng.choice(bitwidths)``,
    ``rng.integers(5_000, 100_000)`` loop.
    """
    rng = np.random.default_rng(seed)
    draws = rng.integers(
        np.tile([0, 5_000], count), np.tile([len(bitwidths), 100_000], count)
    ).reshape(count, 2)
    draws[:, 0] = np.asarray(bitwidths, dtype=np.int64)[draws[:, 0]]
    return draws


def cmd_gen_traces(args) -> int:
    from pathlib import Path

    from repro.traces import generate_suite, generate_trace

    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.family == "all":
        suite = generate_suite(
            seed=args.seed,
            length=args.length,
            bits_levels=args.levels,
            mean_cycles=args.mean_cycles,
        )
    else:
        suite = {
            args.family: generate_trace(
                args.family,
                seed=args.seed,
                length=args.length,
                bits_levels=args.levels,
                mean_cycles=args.mean_cycles,
            )
        }
    for family, trace in suite.items():
        path = out_dir / f"trace_{family}.json"
        trace.save(path)
        print(
            f"{family}: {len(trace.phases)} phases "
            f"(seed {trace.seed}) -> {path}"
        )
    return 0


def cmd_train_policy(args) -> int:
    from repro.io.results import save_mode_table
    from repro.serve.learned import train_on_suite

    table = _load_table(args.table)
    print(table.describe())
    result = train_on_suite(
        table,
        seed=args.seed,
        length=args.length,
        mean_cycles=args.mean_cycles,
        suites=args.suites,
        gamma=args.gamma,
        epsilon=args.epsilon,
        rounds=args.rounds,
    )
    trained = table.with_learned(result.spec)
    with open(args.output, "w") as stream:
        save_mode_table(trained, stream)
    print(
        f"fitted-Q converged: {result.samples} samples, "
        f"{result.states_visited} visited states, {result.rounds} rounds"
    )
    print(f"mode table with learned policy written to {args.output}")
    return 0


def cmd_chaos(args) -> int:
    import dataclasses
    import json as json_module

    from repro.core.runtime import BiasGeneratorModel
    from repro.faults.chaos import recovery_schedule, run_chaos
    from repro.faults.environment import TEMP_SLOWDOWN_PER_C
    from repro.faults.events import FaultSchedule
    from repro.serve.table import compile_mode_table

    if args.fleet == 1:
        print(
            "error: --fleet needs at least 2 workers (0 skips the fleet "
            "soak), got 1",
            file=sys.stderr,
        )
        return 2
    design = _implement_for(args)
    print(design.describe())
    settings = dataclasses.replace(
        _settings(args),
        activity_cycles=args.activity_cycles,
        workers=0,
        cache=False,
        cache_dir=None,
    )
    result = ExhaustiveExplorer(design).run(settings)
    table = compile_mode_table(
        design,
        result,
        BiasGeneratorModel(),
        with_margins=True,
        margin_samples=args.margin_samples,
    )
    print(table.describe())
    if args.recovery:
        # Excursion sized from the compiled margins: the peak must erode
        # past every mode's sign-off slack or nothing ever demotes.
        worst_slack_ps = max(
            margin.guarded_slack_ps for margin in table.margins.values()
        )
        magnitude_c = 1.5 * worst_slack_ps / (
            TEMP_SLOWDOWN_PER_C * 1e3 / table.fclk_ghz
        )
        # The recovery shape only audits re-advance if its windows overlap
        # live traffic, so size the horizon from the soak's actual virtual
        # span (the request mix runs ~3e5 ns per 96 requests at 1 GHz and
        # the clock advances cycles / fclk) instead of --horizon-ns.
        recovery_horizon_ns = 3e5 * (args.requests / 96.0) / table.fclk_ghz
        print(
            f"recovery schedule: horizon {recovery_horizon_ns:.3g} ns "
            f"(matched to {args.requests} requests at "
            f"{table.fclk_ghz:.2f} GHz), excursion {magnitude_c:.1f} C"
        )
        schedule = recovery_schedule(
            recovery_horizon_ns,
            magnitude=magnitude_c,
            relapse=True,
            seed=args.seed,
        )
    else:
        # generate() targets 2 generators: the soak scheduler's pool.
        schedule = FaultSchedule.generate(
            args.seed,
            horizon_ns=args.horizon_ns,
            num_shards=len(settings.bitwidths),
            intensity=args.intensity,
        )
    report = run_chaos(
        table,
        schedule,
        design=None if args.serve_only else design,
        settings=settings,
        num_operators=args.operators,
        requests=args.requests,
        seed=args.seed,
        fleet_workers=args.fleet,
        fleet_requests=args.fleet_requests,
        recalibrate=args.recalibrate,
        recal_interval_ns=args.recal_interval,
    )
    print(report.describe())
    if args.summary:
        with open(args.summary, "w") as stream:
            json_module.dump(report.to_dict(), stream, indent=2)
        print(f"chaos summary written to {args.summary}")
    return 0 if report.ok else 1


def cmd_characterize(args) -> int:
    library = Library()
    if args.lib:
        from repro.io.liberty import write_liberty
        from repro.techlib.library import Corner

        corner = Corner(args.vdd, args.vbb)
        with open(args.lib, "w") as stream:
            write_liberty(library, corner, stream)
        print(f"Liberty written to {args.lib} ({corner.label})")
        return 0
    table = characterize(library, default_corner_grid(library))
    print(table.format_text())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dynamic accuracy operators by runtime back bias "
        "(DATE 2017 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_design_args(p):
        p.add_argument("--design", default="booth")
        p.add_argument("--width", type=_positive_int, default=16)

    def add_sweep_args(p):
        from repro.core.config import AUTO_WORKERS

        p.add_argument(
            "--workers",
            type=int,
            nargs="?",
            const=AUTO_WORKERS,
            default=0,
            help="shard the sweep over N worker processes (bare --workers "
            "auto-detects; $REPRO_WORKERS overrides auto; 1 = sharded "
            "but serial; default: legacy in-process sweep)",
        )
        p.add_argument(
            "--cache",
            dest="cache",
            action="store_true",
            help="persist per-shard results (default dir ~/.cache/repro "
            "or $REPRO_CACHE_DIR)",
        )
        p.add_argument(
            "--no-cache",
            dest="cache",
            action="store_false",
            help="disable the persistent result cache",
        )
        p.set_defaults(cache=False)
        p.add_argument("--cache-dir", help="override the cache directory")
        p.add_argument(
            "--resume",
            action="store_true",
            help="resume an interrupted sweep from its cached shards "
            "(implies --cache)",
        )

    # One declaration of the policy surface, shared by every serving
    # command (serve / fleet-serve / replay): the registry drives the
    # --policy choices, --policy-arg carries per-policy typed parameters
    # and --trace points at a gen-traces artifact.
    from repro.serve.policy import POLICIES

    policy_parent = argparse.ArgumentParser(add_help=False)
    policy_parent.add_argument(
        "--policy",
        default="greedy",
        choices=sorted(POLICIES),
        help="mode-selection policy (learned needs a table trained with "
        "`repro train-policy`)",
    )
    policy_parent.add_argument(
        "--policy-arg",
        dest="policy_args",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="per-policy parameter, repeatable (e.g. --policy hysteresis "
        "--policy-arg dwell_cycles=50000); unknown keys exit with the "
        "policy's known parameters",
    )
    policy_parent.add_argument(
        "--trace",
        help="workload trace file written by `repro gen-traces`",
    )

    p = sub.add_parser("explore", help="implement + optimize one design")
    add_design_args(p)
    add_sweep_args(p)
    p.add_argument("--grid", type=_parse_grid, default="2x2")
    p.add_argument(
        "--output",
        help="write the exploration result as JSON (`repro compile-table "
        "--exploration` turns it into a mode table)",
    )
    p.set_defaults(func=cmd_explore, sweep_command=True)

    p = sub.add_parser("compare", help="proposed vs DVAS (Fig. 5)")
    add_design_args(p)
    add_sweep_args(p)
    p.add_argument("--grid", type=_parse_grid, default="2x2")
    p.set_defaults(func=cmd_compare, sweep_command=True)

    p = sub.add_parser(
        "cache", help="inspect or clear the persistent exploration cache"
    )
    p.add_argument("action", choices=["stats", "clear"])
    p.add_argument("--cache-dir", help="override the cache directory")
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser(
        "compile-table",
        help="freeze exploration + implementation into a serving ModeTable",
    )
    add_design_args(p)
    add_sweep_args(p)
    p.add_argument("--grid", type=_parse_grid, default="2x2")
    p.add_argument(
        "--exploration",
        help="load a saved exploration JSON instead of re-exploring",
    )
    p.add_argument(
        "--output", required=True, help="write the compiled table here"
    )
    p.add_argument(
        "--margins",
        action="store_true",
        help="bake per-mode n-sigma slack margins (Monte-Carlo timing) "
        "into the table, enabling the runtime margin guard",
    )
    p.add_argument(
        "--margin-samples",
        type=_number(int, 2),
        default=48,
        help="Monte-Carlo sample count per mode for --margins",
    )
    p.set_defaults(func=cmd_compile_table, sweep_command=True)

    p = sub.add_parser(
        "serve",
        help="run the asyncio accuracy server from a compiled table",
        parents=[policy_parent],
    )
    p.add_argument("--table", required=True, help="compiled ModeTable JSON")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0, help="0 = ephemeral")
    p.add_argument("--generators", type=_positive_int, default=2)
    p.add_argument("--queue-depth", type=_positive_int, default=8)
    p.add_argument("--max-pending", type=_positive_int, default=64)
    p.add_argument(
        "--soak",
        type=_non_negative_int,
        default=0,
        metavar="N",
        help="drive N requests through the socket, print telemetry, exit",
    )
    p.add_argument(
        "--clients", type=_positive_int, default=4, help="soak connections"
    )
    p.add_argument("--seed", type=int, default=2017)
    p.add_argument(
        "--recal-interval",
        type=float,
        default=0.0,
        metavar="NS",
        help="attach a margin guard + canary recalibration loop probing "
        "every NS of operator virtual time (0 = off; needs a table "
        "compiled with --margins)",
    )
    p.add_argument("--stats-output", help="write soak telemetry JSON here")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "fleet-serve",
        help="soak the multi-process fleet tier from a compiled table",
        parents=[policy_parent],
    )
    p.add_argument("--table", required=True, help="compiled ModeTable JSON")
    from repro.core.config import AUTO_WORKERS as _AUTO

    p.add_argument(
        "--workers",
        type=int,
        nargs="?",
        const=_AUTO,
        default=2,
        help="fleet worker processes (bare --workers auto-detects; "
        "$REPRO_FLEET_WORKERS overrides auto; default 2)",
    )
    p.add_argument("--generators", type=_positive_int, default=2)
    p.add_argument("--queue-depth", type=_positive_int, default=8)
    p.add_argument(
        "--batch-window",
        type=_positive_int,
        default=16,
        help="max same-worker requests coalesced into one pipe frame",
    )
    p.add_argument(
        "--max-inflight",
        type=_positive_int,
        default=2,
        help="pipelined frames per worker",
    )
    p.add_argument(
        "--guard",
        action="store_true",
        help="attach a margin guard per worker (margined tables)",
    )
    p.add_argument(
        "--retreat-budget",
        type=_positive_int,
        default=32,
        help="degraded requests a worker serves after a fleet alert",
    )
    p.add_argument(
        "--soak",
        type=_positive_int,
        default=1000,
        metavar="N",
        help="drive N requests through the fleet, print telemetry, exit",
    )
    p.add_argument(
        "--operators",
        type=_positive_int,
        default=8,
        help="soak operator instances",
    )
    p.add_argument(
        "--chunk",
        type=_positive_int,
        default=256,
        help="requests per submit batch",
    )
    p.add_argument("--seed", type=int, default=2017)
    p.add_argument("--stats-output", help="write fleet telemetry JSON here")
    p.set_defaults(func=cmd_fleet_serve)

    p = sub.add_parser(
        "replay",
        help="replay a workload trace through the serve scheduler",
        parents=[policy_parent],
    )
    p.add_argument("--table", required=True, help="compiled ModeTable JSON")
    p.add_argument(
        "--phases",
        type=_positive_int,
        default=64,
        help="synthetic trace length",
    )
    p.add_argument("--seed", type=int, default=2017)
    p.add_argument(
        "--window",
        type=_non_negative_int,
        default=4,
        help="lookahead window",
    )
    p.set_defaults(func=cmd_replay)

    from repro.traces import TRACE_FAMILIES

    p = sub.add_parser(
        "gen-traces",
        help="generate the seeded workload-trace suite as JSON artifacts",
    )
    p.add_argument(
        "--output-dir", required=True, help="directory for trace_*.json"
    )
    p.add_argument(
        "--family",
        default="all",
        choices=["all", *TRACE_FAMILIES],
        help="one family, or the whole suite (seeds offset per family)",
    )
    p.add_argument("--seed", type=int, default=2017)
    p.add_argument(
        "--length", type=_positive_int, default=200, help="phases per trace"
    )
    p.add_argument(
        "--levels",
        type=_levels,
        default="2,4,6,8",
        help="comma-separated precision levels requests draw from "
        "(pass the served table's bitwidths)",
    )
    p.add_argument(
        "--mean-cycles",
        type=_positive_int,
        default=2000,
        help="mean per-phase cycle count (jittered +/-30%%)",
    )
    p.set_defaults(func=cmd_gen_traces)

    p = sub.add_parser(
        "train-policy",
        help="train the offline fitted-Q policy and embed it in a table",
    )
    p.add_argument("--table", required=True, help="compiled ModeTable JSON")
    p.add_argument(
        "--output", required=True, help="write the trained table here"
    )
    p.add_argument("--seed", type=int, default=2017)
    p.add_argument(
        "--length",
        type=_positive_int,
        default=400,
        help="phases per training trace",
    )
    p.add_argument(
        "--mean-cycles",
        type=_positive_int,
        default=2000,
        help="mean phase length",
    )
    p.add_argument(
        "--suites",
        type=_positive_int,
        default=3,
        help="trace suites (one trace per family each) in the corpus",
    )
    p.add_argument("--gamma", type=float, default=0.95)
    p.add_argument("--epsilon", type=float, default=0.2)
    p.add_argument(
        "--rounds",
        type=_positive_int,
        default=4,
        help="collect/fit alternations (round 0 explores uniformly)",
    )
    p.set_defaults(func=cmd_train_policy)

    p = sub.add_parser(
        "chaos",
        help="replay a seeded fault schedule against serving + exploration",
    )
    add_design_args(p)
    p.add_argument("--grid", type=_parse_grid, default="2x2")
    p.add_argument("--seed", type=int, default=7, help="chaos seed")
    p.add_argument(
        "--intensity",
        type=_number(float, 0.0),
        default=1.0,
        help="fault-count multiplier of the generated schedule",
    )
    p.add_argument(
        "--horizon-ns",
        type=_number(float, 0.0, strict=True),
        default=1e5,
        help="virtual-time horizon of the fault schedule (keep it close "
        "to the soak's served virtual time so events overlap it)",
    )
    p.add_argument("--operators", type=_positive_int, default=3)
    p.add_argument("--requests", type=_positive_int, default=96)
    p.add_argument(
        "--margin-samples",
        type=_number(int, 2),
        default=32,
        help="Monte-Carlo samples per mode for the compiled margins",
    )
    p.add_argument(
        "--activity-cycles",
        # measure_activity drops 4 warm-up cycles and needs 2 more.
        type=_number(int, 6),
        default=10,
        help="simulation cycles per activity estimate (small = fast soak)",
    )
    p.add_argument(
        "--serve-only",
        action="store_true",
        help="skip the exploration half (worker crash / cache corruption)",
    )
    p.add_argument(
        "--fleet",
        type=_non_negative_int,
        default=0,
        metavar="N",
        help="additionally soak an N-worker fleet (>= 2) against the "
        "same schedule: silicon injection on worker 0, degradation "
        "propagation + failover audited",
    )
    p.add_argument(
        "--fleet-requests",
        type=_positive_int,
        default=1024,
        help="request count of the fleet soak",
    )
    p.add_argument(
        "--recalibrate",
        action="store_true",
        help="serve with the canary-probe recalibration loop attached "
        "and race it against the retreat-only guard (reports energy "
        "reclaimed; with --fleet, audits margin-epoch propagation)",
    )
    p.add_argument(
        "--recal-interval",
        type=_number(float, 0.0, strict=True),
        default=None,
        metavar="NS",
        help="probe cadence in virtual ns (default: horizon / 32)",
    )
    p.add_argument(
        "--recovery",
        action="store_true",
        help="replace the generated storm with a recover-then-relapse "
        "temperature schedule sized from the compiled margins (the "
        "energy-reclaim audit shape; pairs with --recalibrate)",
    )
    p.add_argument("--summary", help="write the chaos report JSON here")
    p.set_defaults(func=cmd_chaos, sweep_command=True)

    p = sub.add_parser("report-timing", help="worst paths at a corner")
    add_design_args(p)
    p.add_argument("--vdd", type=float, default=1.0)
    p.add_argument("--nobb", action="store_true", help="analyze at NoBB")
    p.add_argument("--bits", type=int, help="active bitwidth (case analysis)")
    p.add_argument("--paths", type=int, default=3)
    p.set_defaults(func=cmd_report_timing)

    p = sub.add_parser("characterize", help="dump the library")
    p.add_argument("--lib", help="write a Liberty file to this path")
    p.add_argument("--vdd", type=float, default=1.0)
    p.add_argument("--vbb", type=float, default=1.1)
    p.set_defaults(func=cmd_characterize)

    return parser


def main(argv: Optional[list] = None) -> int:
    from repro.serve.errors import ServeError

    args = build_parser().parse_args(argv)
    try:
        if not getattr(args, "sweep_command", False):
            return args.func(args)
    except ServeError as error:
        # Defective serving artifacts are user errors, not crashes.
        print(f"error: {error}", file=sys.stderr)
        return 2
    from repro.parallel.engine import SweepInterrupted

    with _graceful_sweeps():
        try:
            return args.func(args)
        except ServeError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        except SweepInterrupted as stop:
            print(
                f"\nsweep interrupted: {stop.completed}/{stop.total} shards "
                "done and flushed.  Completed shards are durable in the "
                "persistent cache; re-run the same command with --resume "
                "to continue from here.",
                file=sys.stderr,
            )
            return 130


if __name__ == "__main__":
    sys.exit(main())
