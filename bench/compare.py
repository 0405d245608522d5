"""Compare two benchmark sets written by ``bench/run.py --runs N --out``.

    python bench/compare.py BASE.json NEW.json
    python bench/compare.py --same SET1.json SET2.json

For every (workload, metric) the tool prints each set's median and
quartiles, the fraction of seed-paired runs NEW wins (ties count for
neither side), and a verdict:

* ``regressed``: NEW's median is worse than BASE's by more than the
  metric's bound, and both sets' spreads are within it;
* ``unresolved``: a set's spread (quartile distance over median) is
  wider than the bound, and NEW does not beat BASE on every run;
* ``within-bound`` otherwise, marked ``improved`` when NEW also wins at
  least nine pairs in ten and the medians differ by more than BASE's
  quartile distance.

``error_rate`` (failed over attempted operations) has a bound of +0.
``--same`` instead checks that two sets of one commit agree: no
failures, every spread but ``setup_s``'s within its bound, and the
second median no worse than the first by more than the bound.  The exit
code is non-zero on a regression, or with ``--same`` on a disagreement.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict

HOST_KEYS = ("nproc", "python", "numpy", "platform", "git_sha")


def load(path: str) -> dict:
    with open(path) as stream:
        data = json.load(stream)
    if data.get("kind") != "repro-bench-set":
        sys.exit(f"error: {path} is not a set written by bench/run.py --out")
    return data


def series(data: dict):
    """{(workload, metric): (entry, [values in seed order])}, error rates."""
    values = defaultdict(list)
    entries = {}
    errors = defaultdict(lambda: [0, 0])
    for run in sorted(data["runs"], key=lambda run: run["seed"]):
        errors[run["workload"]][0] += run["failed"]
        errors[run["workload"]][1] += run["attempted"]
        for metric, entry in run["metrics"].items():
            values[(run["workload"], metric)].append(entry["value"])
            entries[(run["workload"], metric)] = entry
    return {key: (entries[key], values[key]) for key in values}, errors


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def judge(base, new, better: str, bound):
    """Verdict and the numbers behind it for one (workload, metric)."""
    sign = 1.0 if better == "lower" else -1.0
    q1, base_median, q3 = quartiles(base)
    _, new_median, _ = quartiles(new)
    worse_by = sign * (new_median - base_median) / abs(base_median)
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    win_fraction = wins / len(pairs) if pairs else 0.0
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    if bound is None:
        verdict = "no bound"
    elif max(spread(base), spread(new)) > bound:
        verdict = "within-bound" if all_better else "unresolved"
    elif worse_by > bound:
        verdict = "regressed"
    else:
        verdict = "within-bound"
    if (verdict == "within-bound" and worse_by < 0 and win_fraction >= 0.9
            and abs(new_median - base_median) > q3 - q1):
        verdict = "improved"
    return verdict, worse_by, win_fraction


def _fmt(values) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--same", action="store_true",
                        help="check that two sets of one commit agree")
    args = parser.parse_args(argv)
    base_set, new_set = load(args.base), load(args.new)

    for key in HOST_KEYS:
        a, b = base_set["host"].get(key), new_set["host"].get(key)
        note = "" if a == b else "   <- differs"
        print(f"{key:<10} {a}  |  {b}{note}")
    print(f"{'loadavg':<10} {base_set['host']['loadavg']}  |  "
          f"{new_set['host']['loadavg']}")
    if base_set["seconds"] != new_set["seconds"]:
        print("warning: the sets measured different run lengths")

    base, base_errors = series(base_set)
    new, new_errors = series(new_set)
    problems = []
    print(f"\n{'workload':<20}{'metric':<36}{'base median [q1, q3]':<34}"
          f"{'new median [q1, q3]':<34}{'worse by':>9}{'wins':>6}  verdict")
    for workload in sorted({w for w, _ in base} | {w for w, _ in new}):
        for key in sorted(k for k in base if k[0] == workload):
            if key not in new:
                continue
            entry, base_values = base[key]
            new_values = new[key][1]
            bound = entry.get("bound")
            verdict, worse_by, wins = judge(
                base_values, new_values, entry["better"], bound
            )
            if args.same and bound is not None:
                too_wide = [
                    name for name, values in (("first", base_values),
                                              ("second", new_values))
                    if key[1] != "setup_s" and spread(values) > bound
                ]
                verdict = "agree"
                if too_wide:
                    verdict = f"spread of {'/'.join(too_wide)} > bound"
                elif worse_by > bound:
                    verdict = "second worse"
                if verdict != "agree":
                    problems.append(key)
            elif verdict == "regressed":
                problems.append(key)
            print(f"{workload:<20}{key[1]:<36}{_fmt(base_values):<34}"
                  f"{_fmt(new_values):<34}{100 * worse_by:>8.1f}%"
                  f"{wins:>6.0%}  {verdict}")
        failed_base, attempted_base = base_errors[workload]
        failed_new, attempted_new = new_errors[workload]
        rate_base = failed_base / max(attempted_base, 1)
        rate_new = failed_new / max(attempted_new, 1)
        if args.same:
            verdict = "agree" if failed_base == failed_new == 0 else "failures"
        else:
            verdict = "regressed" if rate_new > rate_base else "within-bound"
        if verdict not in ("agree", "within-bound"):
            problems.append((workload, "error_rate"))
        print(f"{workload:<20}{'error_rate':<36}"
              f"{f'{failed_base}/{attempted_base}':<34}"
              f"{f'{failed_new}/{attempted_new}':<34}{'':>9}{'':>6}  {verdict}")
    word = "disagreements" if args.same else "regressions"
    print(f"\n{len(problems)} {word}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
