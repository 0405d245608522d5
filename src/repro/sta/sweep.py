"""Shared levelized sweep kernels for every STA engine.

All analyzers -- single-configuration setup (:mod:`repro.sta.engine`),
hold (:mod:`repro.sta.hold`) and the whole-lattice setup sweep over
back-bias configurations (:mod:`repro.sta.lattice`) -- run the same
levelized schedule: seed launch-point arrivals, propagate along timing
arcs level by level, reduce per endpoint.  Historically each engine
carried its own copy of the propagation loop built on
``np.maximum.at`` / ``np.minimum.at`` scatters; this module owns the
schedule and the 1-D kernels, expressed as ``ufunc.reduceat`` segment
reductions over per-level arc runs pre-sorted by sink (forward) or
source (backward) net.  The lattice compiles the same levels into
padded index blocks for its 2-D ``(nets, combos)`` matrices.

``reduceat`` beats the ``.at`` scatter because the segments are
contiguous: numpy reduces each run with a tight inner loop and lands the
result with one fancy assignment per level, instead of a buffered
random-access scatter over the whole arrival array.  ``max``/``min``
are exact (no rounding) and order-independent, so the rewrite is
bit-identical to the scatter it replaced.

:class:`TimingGraph` orders ``arc_order`` by (sink level, sink net), so
the forward runs stay sorted by sink even after case-analysis filtering
drops arcs -- forward segment boundaries are one ``np.diff`` away and
never need a per-call argsort.  Backward runs (keyed by source net)
re-sort each level once at schedule-compile time; schedules are memoized
on the graph (no case) or on the :class:`CaseAnalysis` (per graph).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

import numpy as np


@dataclass(frozen=True)
class SweepLevel:
    """One level's active arcs, sorted by the sweep key, with segments.

    ``arcs[starts[i]:starts[i+1]]`` all share ``nets[i]`` as their key
    (sink net for forward sweeps, source net for backward ones).
    """

    arcs: np.ndarray
    starts: np.ndarray
    nets: np.ndarray


@dataclass(frozen=True, eq=False)
class LevelizedSchedule:
    """Forward (by sink) and backward (by source) per-level segment runs.

    Both lists are in ascending level order; backward sweeps iterate
    ``reversed(backward)``.  Levels left with no active arcs after case
    filtering are dropped.  Schedules compare and hash by identity, so
    compilations derived from one (the lattice's padded levels) can be
    memoized weakly and die with it.
    """

    forward: List[SweepLevel]
    backward: List[SweepLevel]


def _segment_levels(
    level_arcs: List[np.ndarray], keys: np.ndarray, presorted: bool
) -> List[SweepLevel]:
    levels: List[SweepLevel] = []
    for arcs in level_arcs:
        if len(arcs) == 0:
            continue
        if not presorted:
            arcs = arcs[np.argsort(keys[arcs], kind="stable")]
        sorted_keys = keys[arcs]
        boundaries = np.nonzero(np.diff(sorted_keys))[0] + 1
        starts = np.concatenate(([0], boundaries)).astype(np.intp)
        levels.append(
            SweepLevel(arcs=arcs, starts=starts, nets=sorted_keys[starts])
        )
    return levels


def compile_schedule(graph, case=None) -> LevelizedSchedule:
    """Compile the (optionally case-filtered) levelized sweep schedule."""
    level_arcs = [graph.arc_order[s] for s in graph.level_slices]
    if case is not None:
        active = case.active_arc_mask(graph)
        level_arcs = [arcs[active[arcs]] for arcs in level_arcs]
    return LevelizedSchedule(
        forward=_segment_levels(level_arcs, graph.arc_to, presorted=True),
        backward=_segment_levels(level_arcs, graph.arc_from, presorted=False),
    )


def schedule_for(graph, case=None) -> LevelizedSchedule:
    """Memoized :func:`compile_schedule`.

    The unfiltered schedule lives on the graph (compiled eagerly by
    ``compile_timing_graph``); case-filtered schedules are cached on the
    :class:`CaseAnalysis` keyed by graph identity, mirroring its arc-mask
    cache.
    """
    if case is None:
        if graph.schedule is None:
            graph.schedule = compile_schedule(graph)
        return graph.schedule
    cached = case._schedule_cache.get(id(graph))
    if cached is None or cached[0] is not graph:
        # Pin the graph in the entry: ids of dead graphs can be recycled,
        # and a recycled id must not serve another graph's schedule.
        cached = (graph, compile_schedule(graph, case))
        case._schedule_cache[id(graph)] = cached
    return cached[1]


def sweep_forward(
    schedule: LevelizedSchedule,
    arc_from: np.ndarray,
    delay_of: Callable[[np.ndarray], np.ndarray],
    arrival: np.ndarray,
    reduce_op=np.maximum,
) -> None:
    """Levelized arrival propagation, in place.

    *arrival* is ``(num_nets,)`` or ``(num_nets, K)``; ``delay_of(arcs)``
    returns per-arc delays broadcastable against the gathered arrivals.
    ``reduce_op=np.minimum`` gives the hold (min-delay) sweep.
    """
    for level in schedule.forward:
        candidate = arrival[arc_from[level.arcs]] + delay_of(level.arcs)
        best = reduce_op.reduceat(candidate, level.starts, axis=0)
        arrival[level.nets] = reduce_op(arrival[level.nets], best)


def sweep_backward(
    schedule: LevelizedSchedule,
    arc_to: np.ndarray,
    delay_of: Callable[[np.ndarray], np.ndarray],
    required: np.ndarray,
) -> None:
    """Levelized required-time propagation (min), in place."""
    for level in reversed(schedule.backward):
        candidate = required[arc_to[level.arcs]] - delay_of(level.arcs)
        best = np.minimum.reduceat(candidate, level.starts, axis=0)
        required[level.nets] = np.minimum(required[level.nets], best)
