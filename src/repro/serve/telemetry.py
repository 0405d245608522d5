"""Per-request counters and histograms for the serving subsystem.

Everything here is deterministic and dependency-free: fixed-bucket
histograms (geometric bounds) with exact count/sum/min/max, and a flat
counter map.  Snapshots are plain JSON-ready dicts so the server can
answer a ``stats`` request or dump telemetry at shutdown without any
formatting layer.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Sequence

import numpy as np


def sequential_sum(acc: float, values: np.ndarray) -> float:
    """``acc + values[0] + values[1] + ...``, folded left to right.

    Bit-identical to a loop of python ``acc += value``: ``np.cumsum``
    (``np.add.accumulate``) adds in sequence, whereas ``np.sum`` and
    ``np.add.reduce`` add pairwise and can differ in the last ulp.
    """
    if values.size == 0:
        return acc
    chain = np.empty(values.size + 1)
    chain[0] = acc
    chain[1:] = values
    return float(np.cumsum(chain)[-1])


def geometric_bounds(
    lo: float, hi: float, per_decade: int = 4
) -> List[float]:
    """Geometrically spaced bucket bounds covering [lo, hi]."""
    if lo <= 0.0 or hi <= lo:
        raise ValueError("need 0 < lo < hi")
    bounds = []
    factor = 10.0 ** (1.0 / per_decade)
    value = lo
    while value < hi * (1.0 + 1e-12):
        bounds.append(value)
        value *= factor
    return bounds


class Histogram:
    """Fixed-bound histogram with exact moments and bucket percentiles.

    ``bounds`` are the inclusive upper edges of the first ``len(bounds)``
    buckets; one overflow bucket catches everything larger.  Percentiles
    return the upper edge of the bucket containing the rank (the usual
    Prometheus-style conservative estimate).
    """

    def __init__(self, bounds: Sequence[float], unit: str = ""):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("bounds must be non-empty and ascending")
        self.bounds = [float(b) for b in bounds]
        self.unit = unit
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def record(self, value: float) -> None:
        index = bisect_right(self.bounds, value)
        if index > 0 and value == self.bounds[index - 1]:
            index -= 1
        self.counts[index] += 1
        self.total += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def record_many(self, values) -> None:
        """Vector form of :meth:`record`; bit-identical by construction.

        Bucket indices come from a vectorized ``searchsorted`` with the
        same on-boundary adjustment as the scalar path, and the counts
        land via ``bincount``.  The running ``sum`` is folded left to
        right by :func:`sequential_sum`, as N scalar ``record`` calls
        would fold it.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        bounds = np.asarray(self.bounds)
        index = np.searchsorted(bounds, values, side="right")
        on_edge = (index > 0) & (
            values == bounds[np.maximum(index - 1, 0)]
        )
        index = index - on_edge
        for bucket, count in enumerate(
            np.bincount(index, minlength=len(self.counts)).tolist()
        ):
            self.counts[bucket] += count
        self.total += int(values.size)
        self.sum = sequential_sum(self.sum, values)
        lo = float(values.min())
        hi = float(values.max())
        self.min = lo if self.min is None else min(self.min, lo)
        self.max = hi if self.max is None else max(self.max, hi)

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def percentile(self, p: float) -> float:
        """Upper bound of the bucket holding the p-th percentile (0..100)."""
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        if self.total == 0:
            return 0.0
        rank = p / 100.0 * self.total
        cumulative = 0
        for index, count in enumerate(self.counts):
            cumulative += count
            if cumulative >= rank and count > 0 or cumulative >= self.total:
                if index < len(self.bounds):
                    return self.bounds[index]
                return self.max if self.max is not None else self.bounds[-1]
        return self.max if self.max is not None else self.bounds[-1]

    def to_dict(self) -> Dict:
        return {
            "unit": self.unit,
            "count": self.total,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50.0),
            "p99": self.percentile(99.0),
            "bounds": self.bounds,
            "counts": list(self.counts),
        }


class Telemetry:
    """All serve-side observability: counters, per-operator tallies, hists."""

    def __init__(self):
        self.counters: Dict[str, int] = {
            "requests": 0,
            "mode_switches": 0,
            "degraded": 0,
            "batched_slews": 0,
            "accuracy_violations": 0,
            "errors": 0,
            # Resilience path (margin guard / fault handling).
            "margin_fallbacks": 0,
            "transition_retries": 0,
            "transition_failures": 0,
            # Fleet tier (bus-driven retreat; see repro.fleet).
            "fleet_alerts": 0,
            "fleet_retreats": 0,
            # Recalibration loop (canary probes; see repro.serve.recal).
            "recal_probes": 0,
            "recal_epochs": 0,
            "recal_failures": 0,
            "recal_demotions": 0,
            "recal_readvances": 0,
        }
        self.per_operator: Dict[str, int] = {}
        # Service latency: queue wait + settling, in virtual ns.
        self.latency_ns = Histogram(
            geometric_bounds(1.0, 1e7), unit="ns"
        )
        # Settling time of actual hardware transitions.
        self.settle_ns = Histogram(geometric_bounds(1.0, 1e6), unit="ns")
        # Per-request served energy (compute + transition share), in pJ.
        self.energy_pj = Histogram(geometric_bounds(1e-3, 1e9), unit="pJ")
        # Energy spent on canary recalibration probes, per round, in pJ.
        self.probe_energy_pj = Histogram(
            geometric_bounds(1e-3, 1e9), unit="pJ"
        )

    def bump(self, counter: str, amount: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def record_phase(self, served) -> None:
        """Account one ServedPhase (duck-typed to avoid an import cycle)."""
        self.bump("requests")
        self.per_operator[served.operator] = (
            self.per_operator.get(served.operator, 0) + 1
        )
        if served.switched:
            self.bump("mode_switches")
        if served.degraded:
            self.bump("degraded")
        if served.batched:
            self.bump("batched_slews")
        self.latency_ns.record(served.queue_wait_ns + served.settle_ns)
        if served.settle_ns > 0.0:
            self.settle_ns.record(served.settle_ns)
        self.energy_pj.record(
            (served.compute_energy_j + served.transition_energy_j) * 1e12
        )

    def record_batch(
        self,
        operator_counts: Dict[str, int],
        num_switched: int,
        num_degraded: int,
        num_batched: int,
        latency_values,
        settle_values,
        energy_values,
    ) -> None:
        """Batched :meth:`record_phase`: same totals as N scalar calls.

        Counter bumps are integer sums (order-free); histogram values
        must arrive in frame submission order (``settle_values`` already
        filtered to the positive entries, order preserved) so the
        float ``sum`` folds match the scalar sequence exactly.
        """
        self.bump("requests", sum(operator_counts.values()))
        for operator, count in operator_counts.items():
            self.per_operator[operator] = (
                self.per_operator.get(operator, 0) + count
            )
        if num_switched:
            self.bump("mode_switches", num_switched)
        if num_degraded:
            self.bump("degraded", num_degraded)
        if num_batched:
            self.bump("batched_slews", num_batched)
        self.latency_ns.record_many(latency_values)
        self.settle_ns.record_many(settle_values)
        self.energy_pj.record_many(energy_values)

    def snapshot(self) -> Dict:
        return {
            "counters": dict(self.counters),
            "per_operator": dict(self.per_operator),
            "latency_ns": self.latency_ns.to_dict(),
            "settle_ns": self.settle_ns.to_dict(),
            "energy_pj": self.energy_pj.to_dict(),
            "probe_energy_pj": self.probe_energy_pj.to_dict(),
        }
