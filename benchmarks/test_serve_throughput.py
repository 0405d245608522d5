"""Benchmark: the serving subsystem end to end, plus the batch kernel.

Drives the asyncio server in-process with a deterministic three-operator
request mix over a ModeTable compiled from the Booth multiplier, once
per policy, and records:

* sustained requests/second through the bounded queue + drain worker;
* p99 service latency in virtual ns (queue wait + settling, from the
  telemetry histogram) -- the mode-switch latency an operator would
  observe on the modeled hardware;
* mode switches and degradations, where hysteresis must not switch more
  than greedy.

A second benchmark races the batched serve kernel against the scalar
per-request oracle (``tests.oracles.serve.replay_scalar``) on
single-worker trace replay and enforces the >= 5x
speedup floor the compiled fast path exists for -- after asserting the
two reports are bit-identical, so the floor can never be bought with a
semantics change.

The numbers are emitted as one JSON object per record so CI logs are
machine-scrapeable; set ``$REPRO_BENCH_OUTPUT`` to also collect every
record emitted by this module into one JSON artifact.
"""

import asyncio
import json
import os
import time

import numpy as np

from repro.core.runtime import WorkloadPhase
from repro.serve.scheduler import ModeScheduler, replay_trace
from repro.serve.server import AccuracyServer
from repro.serve.table import compile_mode_table
from tests.oracles.serve import replay_scalar

SMALL = bool(int(os.environ.get("REPRO_BENCH_SMALL", "0")))

REQUESTS = 5_000
OPERATORS = ("mac0", "mac1", "mac2")

#: Single-worker replay length for the kernel race (phase-structured).
REPLAY_PHASES = 6_000 if SMALL else 20_000
#: The batched kernel's reason to exist, enforced in CI.
KERNEL_SPEEDUP_FLOOR = 5.0

#: Records of every benchmark in this module, merged into one artifact.
_RECORDS = {}


def _dump_records(key, records):
    _RECORDS[key] = records
    output = os.environ.get("REPRO_BENCH_OUTPUT")
    if output:
        with open(output, "w") as handle:
            json.dump(_RECORDS, handle, indent=2)


def _drive(table, policy):
    """Run the request mix against a fresh server; return (stats, seconds)."""
    scheduler = ModeScheduler(
        table,
        num_generators=2,
        policy=policy,
        max_queue_depth=8,
        policy_kwargs={"dwell_cycles": 5_000} if policy == "hysteresis" else {},
    )
    rng = np.random.default_rng(2017)
    bitwidths = sorted(table.modes)
    trace = [
        (
            OPERATORS[i % 3],
            int(rng.choice(bitwidths)),
            int(rng.integers(100, 10_000)),
        )
        for i in range(REQUESTS)
    ]

    async def body():
        async with AccuracyServer(scheduler, max_pending=256) as server:
            start = time.perf_counter()
            for chunk_start in range(0, REQUESTS, 64):
                chunk = trace[chunk_start : chunk_start + 64]
                phases = await asyncio.gather(
                    *(server.request(op, bits, cycles)
                      for op, bits, cycles in chunk)
                )
                for (op, bits, _cycles), phase in zip(chunk, phases):
                    assert phase.served_bits >= bits
            elapsed = time.perf_counter() - start
            return server.stats(), elapsed

    return asyncio.run(body())


def test_serve_throughput_greedy_vs_hysteresis(bundles):
    bundle = bundles["booth"]
    table = compile_mode_table(bundle.domained(), bundle.proposed())

    results = {}
    for policy in ("greedy", "hysteresis"):
        stats, elapsed = _drive(table, policy)
        counters = stats["counters"]
        record = {
            "policy": policy,
            "requests": counters["requests"],
            "req_per_s": round(counters["requests"] / elapsed, 1),
            "p99_latency_ns": stats["latency_ns"]["p99"],
            "p50_latency_ns": stats["latency_ns"]["p50"],
            "mode_switches": counters["mode_switches"],
            "batched_slews": counters["batched_slews"],
            "degraded": counters["degraded"],
            "violations": counters["accuracy_violations"],
        }
        results[policy] = record
        print(f"\nserve_bench {json.dumps(record, sort_keys=True)}")

    for record in results.values():
        assert record["requests"] == REQUESTS
        assert record["violations"] == 0
        # Pure-python scheduler behind an asyncio queue: anything under
        # this floor means an accidental O(n^2) crept into the hot path.
        assert record["req_per_s"] > 1_000

    # Debouncing exists to cut switch count; it must never raise it.
    assert (
        results["hysteresis"]["mode_switches"]
        <= results["greedy"]["mode_switches"]
    )

    _dump_records("serve_throughput", list(results.values()))


def _replay_workload(table):
    """Phase-structured trace: runs of equal bits, the serving shape."""
    rng = np.random.default_rng(2017)
    bitwidths = sorted(table.modes)
    phases = []
    while len(phases) < REPLAY_PHASES:
        bits = int(rng.choice(bitwidths))
        for _ in range(int(rng.integers(1, 8))):
            phases.append(
                WorkloadPhase(
                    required_bits=bits,
                    cycles=int(rng.integers(100, 10_000)),
                )
            )
            if len(phases) == REPLAY_PHASES:
                break
    return phases


def _replay_rate(replay, table, workload, policy, repeats=3):
    best = 0.0
    report = None
    for _ in range(repeats):
        start = time.perf_counter()
        report = replay(table, workload, policy=policy)
        best = max(best, len(workload) / (time.perf_counter() - start))
    return report, best


def test_batch_kernel_replay_speedup(bundles):
    bundle = bundles["booth"]
    table = compile_mode_table(bundle.domained(), bundle.proposed())
    workload = _replay_workload(table)

    records = []
    for policy in ("greedy", "hysteresis", "lookahead"):
        scalar_report, scalar_rate = _replay_rate(
            replay_scalar, table, workload, policy
        )
        batch_report, batch_rate = _replay_rate(
            replay_trace, table, workload, policy
        )
        # Bit identity first: a faster kernel that drifts is worthless.
        assert batch_report == scalar_report, policy
        record = {
            "policy": policy,
            "phases": REPLAY_PHASES,
            "scalar_req_per_s": round(scalar_rate, 1),
            "batch_req_per_s": round(batch_rate, 1),
            "speedup": round(batch_rate / scalar_rate, 2),
        }
        records.append(record)
        print(f"\nserve_kernel_bench {json.dumps(record, sort_keys=True)}")

    _dump_records("serve_batch_kernel", records)

    for record in records:
        assert record["speedup"] >= KERNEL_SPEEDUP_FLOOR, (
            f"{record['policy']} batch kernel replayed at "
            f"{record['batch_req_per_s']:.0f} req/s vs "
            f"{record['scalar_req_per_s']:.0f} scalar: below the "
            f"{KERNEL_SPEEDUP_FLOOR}x floor"
        )
