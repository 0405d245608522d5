"""Per-layer numbers from the spans ``launch.py --trace`` writes.

A layer's *busy* time is the time its spans cover, counting a span
nested in a span of the same layer once; its *self* time is busy time
minus what its child spans of other layers cover.  Optional windows
clip every span to the timed part of a run (a server's spans outside
the traced segments do not count).  Shares are percentages of the
traced wall, and counts are per repetition.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

Windows = Optional[Sequence[Tuple[float, float]]]

#: Layers whose busy share is a per-layer metric, in report order.
BUSY_LAYERS = (
    "core.flow", "core.exploration", "sta.caseanalysis", "sim.activity",
    "sta.lattice", "power", "serve.table", "io", "traces",
    "serve.scheduler", "serve.pool", "serve.compiled", "serve.telemetry",
)
ROOT_LAYERS = ("startup", "import", "cli")


def _clip(start: float, end: float, windows: Windows) -> float:
    if windows is None:
        return end - start
    return sum(max(0.0, min(end, hi) - max(start, lo)) for lo, hi in windows)


def _inside(instant: float, windows: Windows) -> bool:
    return windows is None or any(lo <= instant <= hi for lo, hi in windows)


@dataclass
class Totals:
    """Calls, busy and self seconds, and span values, summed over spans."""

    calls: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    busy: Dict[str, float] = field(
        default_factory=lambda: defaultdict(float)
    )
    self_s: Dict[str, float] = field(
        default_factory=lambda: defaultdict(float)
    )
    #: Values of spans not nested in a span of their own layer, by hook.
    values: Dict[str, list] = field(default_factory=lambda: defaultdict(list))
    missing: Dict[str, str] = field(default_factory=dict)

    def hook_values(self, suffix: str) -> list:
        return [
            value
            for name, values in self.values.items()
            if name.endswith(suffix)
            for value in values
        ]


def aggregate(records: Sequence[dict], windows: Windows = None) -> Totals:
    """Fold the spans of launcher records into per-layer totals."""
    totals = Totals()
    for record in records:
        names, layers, spans = record["names"], record["layers"], record["spans"]
        totals.missing.update(record.get("missing", {}))
        covered = [_clip(span[1], span[2], windows) for span in spans]
        children = [0.0] * len(spans)
        for index, span in enumerate(spans):
            if span[3] >= 0:
                children[span[3]] += covered[index]
        for index, span in enumerate(spans):
            if not (covered[index] > 0.0 or _inside(span[1], windows)):
                continue
            layer = layers[span[0]]
            parent = span[3]
            top = parent < 0 or layers[spans[parent][0]] != layer
            totals.calls[layer] += 1
            totals.self_s[layer] += covered[index] - children[index]
            if top:
                totals.busy[layer] += covered[index]
                if span[5] is not None:
                    totals.values[names[span[0]]].append(span[5])
    return totals


def layer_metrics(totals: Totals, wall: float, reps: int) -> Dict[str, float]:
    """The per-layer metrics every workload reports (0 where unused)."""

    def share(seconds: float) -> float:
        return 100.0 * seconds / wall

    metrics = {
        "trace.coverage_pct": share(
            sum(totals.busy.get(layer, 0.0) for layer in ROOT_LAYERS)
        ),
        "startup.busy_pct": share(
            totals.busy.get("startup", 0.0) + totals.busy.get("import", 0.0)
        ),
        "cli.self_pct": share(totals.self_s.get("cli", 0.0)),
    }
    for layer in BUSY_LAYERS:
        metrics[f"{layer}.busy_pct"] = share(totals.busy.get(layer, 0.0))
    for layer in ("core.exploration", "serve.scheduler"):
        metrics[f"{layer}.self_pct"] = share(totals.self_s.get(layer, 0.0))
    for layer in ("sta.caseanalysis", "sim.activity", "sta.lattice", "power"):
        metrics[f"{layer}.calls"] = totals.calls.get(layer, 0) / reps
    metrics["sta.lattice.points"] = sum(
        totals.hook_values(".analyze_ladder")
    ) / reps
    batched = totals.hook_values(".GeneratorPool.acquire")
    metrics["serve.pool.acquire_calls"] = len(batched) / reps
    metrics["serve.pool.batched_ratio"] = (
        sum(batched) / len(batched) if batched else 0.0
    )
    singles = totals.hook_values(".ModeScheduler.submit")
    frames = totals.hook_values(".ModeScheduler.submit_batch")
    metrics["serve.scheduler.submit_calls"] = len(singles) / reps
    metrics["serve.scheduler.submit_batch_calls"] = len(frames) / reps
    calls = len(singles) + len(frames)
    metrics["serve.scheduler.frame_size_mean"] = (
        (sum(singles) + sum(frames)) / calls if calls else 0.0
    )
    return metrics


def feasible_ratio(totals: Totals) -> Optional[float]:
    """Feasible share of the points explored, if any were explored."""
    runs = totals.hook_values(".ExhaustiveExplorer.run")
    evaluated = sum(points for _, points in runs)
    return sum(feasible for feasible, _ in runs) / evaluated if evaluated else None


def format_layers(totals: Totals, wall: float, reps: int) -> List[str]:
    """Human-readable table: calls, busy and self time per layer."""
    lines = [
        f"  {'layer':<18}{'calls/rep':>11}{'busy_s/rep':>12}"
        f"{'self_s/rep':>12}{'busy %':>8}"
    ]
    for layer in (*ROOT_LAYERS, *BUSY_LAYERS):
        if not totals.calls.get(layer):
            continue
        busy = totals.busy.get(layer, 0.0)
        lines.append(
            f"  {layer:<18}{totals.calls[layer] / reps:>11.1f}"
            f"{busy / reps:>12.4f}{totals.self_s[layer] / reps:>12.4f}"
            f"{100.0 * busy / wall:>8.1f}"
        )
    ratio = feasible_ratio(totals)
    if ratio is not None:
        lines.append(f"  feasible share of explored points: {ratio:.4f}")
    missing = ", ".join(sorted(totals.missing)) or "none"
    lines.append(f"  missing hooks: {missing}")
    return lines
