"""End-to-end benchmark of the offline flow and the online serving path.

Run from the root of a checkout::

    python bench/run.py --seed 2017              # every workload once
    python bench/run.py --trace                  # per-layer report
    python bench/run.py --runs 10 --out set.json # a calibration set
    python bench/run.py --write-expected         # regenerate bench/expected/
    python bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--workload`` it runs one workload once and prints, as the last line
of standard output, ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics of BENCHMARK.json, or with ``--trace 1`` its
per-layer metrics.  Without it, it runs every workload that way in a
fresh process per run, prints the medians and quartiles of every metric,
and with ``--out`` writes the runs and the host's facts as a set for
``bench/compare.py``.  The exit code is non-zero when any check failed.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from procs import TMP, ServerError, Session, remove_tmp_root
from workloads import DETAILS, PIN_SEED, WORKLOADS, Pins, Run, SetupFailed

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
#: Upper bound on one run of one workload, set-up included.
RUN_TIMEOUT_S = 600


def _spec() -> dict:
    with open(SPEC_PATH) as stream:
        return json.load(stream)


def _require_checkout() -> None:
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        sys.exit(f"error: no repro sources under {ROOT / 'src'}; "
                 "run the benchmark from a checkout of the repository")


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_facts() -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy,
        "platform": platform.platform(),
        "loadavg": list(os.getloadavg()),
        "git_sha": _git_sha(),
    }


def _terminate(signum, frame):
    sys.exit(128 + signum)


def run_one(args, spec) -> int:
    """One run of one workload; prints the result line last."""
    workload = WORKLOADS[args.workload]()
    pins = Pins(args.write_expected)
    session = Session()
    run = Run(workload, session, args.seed, args.seconds, bool(args.trace),
              pins)
    try:
        run.measure()
        if args.trace:
            values, lines = workload.per_layer(run)
            declared = spec["per_layer"]
        else:
            values = workload.end_to_end(run)
            lines = []
            declared = spec["end_to_end"]
    except (SetupFailed, ServerError, OSError) as error:
        print(f"error: {args.workload}: {error}", file=sys.stderr)
        for problem in run.failures:
            print(f"  failed: {problem}", file=sys.stderr)
        return 1
    finally:
        session.close()
    if args.write_expected:
        pins.save()

    metrics = {}
    for entry in declared:
        value = values[entry["name"]]
        value, count = value if isinstance(value, tuple) else (value, None)
        metrics[entry["name"]] = {
            "value": value, "unit": entry["unit"], "better": entry["better"],
            "bound": entry.get("bound"), "n": count,
        }
    for name, (unit, better, bound) in DETAILS.items():
        if name in values and not args.trace:
            value, count = values[name]
            metrics[name] = {"value": value, "unit": unit, "better": better,
                             "bound": bound, "n": count}

    correct = run.failed == 0
    print(f"{args.workload}: seed {args.seed}, {len(run.reps)} reps, "
          f"{run.attempted} operations, {run.failed} failed")
    for problem in run.failures:
        print(f"  failed: {problem}")
    for line in lines:
        print(line)
    for name, metric in metrics.items():
        count = "" if metric["n"] is None else f"  (n={metric['n']})"
        print(f"  {name:<40}{metric['value']:>16.6g} {metric['unit']}{count}")
    if args.record:
        with open(args.record, "w") as stream:
            json.dump({
                "workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace,
                "correct": correct, "attempted": run.attempted,
                "failed": run.failed, "failures": run.failures,
                "metrics": metrics,
            }, stream)
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            entry["name"]: {
                "value": metrics[entry["name"]]["value"],
                "unit": entry["unit"],
            }
            for entry in declared
        },
    }))
    return 0 if correct else 1


def _summary(records, names) -> list:
    lines = []
    for name in names:
        runs = [r for r in records if r["workload"] == name]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        lines.append(f"{name}: {len(runs)} runs, {attempted} operations, "
                     f"{failed} failed")
        metrics = {}
        for record in runs:
            for metric, entry in record["metrics"].items():
                metrics.setdefault(metric, (entry, []))[1].append(
                    entry["value"]
                )
        for metric, (entry, values) in metrics.items():
            middle = statistics.median(values)
            spread = ""
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (f"  [{q1:.6g}, {q3:.6g}] IQR "
                          f"{100 * (q3 - q1) / abs(middle):.1f}%")
            samples = f", n={entry['n']}" if entry["n"] is not None else ""
            lines.append(f"  {metric:<40}{middle:>14.6g} {entry['unit']:<6}"
                         f"{spread}  ({len(values)} runs{samples})")
    return lines


def _run_child(args, name: str, seed: int, record_path: Path) -> dict:
    """One ``run.py --workload`` process; its record, or a failed one."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name, "--seed", str(seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--record", str(record_path),
    ]
    if args.write_expected:
        command.append("--write-expected")
    sys.stdout.flush()
    child = subprocess.Popen(command)
    try:
        child.wait(timeout=RUN_TIMEOUT_S)
        with open(record_path) as stream:
            return json.load(stream)
    except (subprocess.TimeoutExpired, OSError, ValueError):
        return {"workload": name, "seed": seed, "correct": False,
                "attempted": 1, "failed": 1, "metrics": {}}
    finally:
        # SIGTERM lets the child stop the servers it started.
        if child.poll() is None:
            child.terminate()
            child.wait()


def run_all(args, spec) -> int:
    """Every workload, each run in a fresh ``run.py --workload`` process."""
    names = [workload["name"] for workload in spec["workloads"]]
    host = host_facts()
    TMP.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="set-", dir=TMP) as tmp:
        records = [
            _run_child(args, name, args.seed + index,
                       Path(tmp) / f"{name}-{args.seed + index}.json")
            for index in range(args.runs)
            for name in names
        ]
    remove_tmp_root()
    host["loadavg_end"] = list(os.getloadavg())
    print()
    for line in _summary(records, names):
        print(line)
    if args.out:
        with open(args.out, "w") as stream:
            json.dump({
                "kind": "repro-bench-set", "host": host,
                "seconds": args.seconds, "trace": args.trace,
                "runs": records,
            }, stream, indent=1)
            stream.write("\n")
        print(f"set written to {args.out}")
    return 0 if all(record["correct"] for record in records) else 1


def main(argv=None) -> int:
    spec = _spec()
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the offline and online paths."
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run this workload once (default: all)")
    parser.add_argument("--seed", type=int, default=PIN_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measured time per run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, seeds seed..seed+runs-1")
    parser.add_argument("--out", help="write the runs as a set here")
    parser.add_argument("--record", help=argparse.SUPPRESS)
    parser.add_argument("--write-expected", action="store_true",
                        help="rewrite the pinned outputs in bench/expected/")
    args = parser.parse_args(argv)
    if args.write_expected and args.seed != PIN_SEED:
        parser.error(f"--write-expected pins seed {PIN_SEED} outputs")
    _require_checkout()
    signal.signal(signal.SIGTERM, _terminate)
    if args.workload:
        return run_one(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
