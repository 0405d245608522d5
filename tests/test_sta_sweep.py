"""Lock-in of the shared reduceat sweep kernels.

The :mod:`repro.sta.sweep` kernels replaced the per-engine
``np.maximum.at`` / ``np.minimum.at`` scatter loops.  ``max``/``min`` are
exact and order-independent, so the rewrite must be *bit-identical* to
the scatter it replaced -- these tests compare both kernels against a
naive scatter reference on real graphs, with and without case filtering,
and pin down the schedule invariants the kernels rely on.
"""

import numpy as np
import pytest

from repro.operators import booth_multiplier
from repro.sta.caseanalysis import dvas_case
from repro.sta.sweep import (
    compile_schedule,
    schedule_for,
    sweep_backward,
    sweep_forward,
)
from repro.sta.graph import compile_timing_graph
from repro.techlib.library import Library

LIBRARY = Library()


@pytest.fixture(scope="module")
def booth8():
    netlist = booth_multiplier(LIBRARY, width=8, name="sweep_booth8")
    return netlist, compile_timing_graph(netlist)


@pytest.fixture(scope="module")
def booth8_case(booth8):
    netlist, _ = booth8
    return dvas_case(netlist, [4])[0]


# ---------------------------------------------------------------------------
# Schedule invariants
# ---------------------------------------------------------------------------


class TestScheduleInvariants:
    def test_arc_order_is_level_major_sink_minor(self, booth8):
        _, graph = booth8
        levels = graph.net_level[graph.arc_to[graph.arc_order]]
        sinks = graph.arc_to[graph.arc_order]
        assert (np.diff(levels) >= 0).all()
        # Within each level, arcs are sorted by sink net.
        same_level = np.diff(levels) == 0
        assert (np.diff(sinks)[same_level] >= 0).all()

    def test_graph_carries_precompiled_schedule(self, booth8):
        _, graph = booth8
        assert graph.schedule is not None
        assert graph.schedule.forward and graph.schedule.backward

    @pytest.mark.parametrize("case_filtered", [False, True])
    def test_every_active_arc_scheduled_once(
        self, booth8, booth8_case, case_filtered
    ):
        _, graph = booth8
        case = booth8_case if case_filtered else None
        schedule = compile_schedule(graph, case)
        expected = (
            set(np.nonzero(booth8_case.active_arc_mask(graph))[0])
            if case_filtered
            else set(range(len(graph.arc_from)))
        )
        for direction in (schedule.forward, schedule.backward):
            seen = np.concatenate([level.arcs for level in direction])
            assert len(seen) == len(set(seen)) == len(expected)
            assert set(seen) == expected

    @pytest.mark.parametrize("case_filtered", [False, True])
    def test_segments_are_sorted_runs_of_one_net(
        self, booth8, booth8_case, case_filtered
    ):
        _, graph = booth8
        case = booth8_case if case_filtered else None
        schedule = compile_schedule(graph, case)
        for direction, keys in (
            (schedule.forward, graph.arc_to),
            (schedule.backward, graph.arc_from),
        ):
            for level in direction:
                run_keys = keys[level.arcs]
                assert (np.diff(run_keys) >= 0).all()
                bounds = np.concatenate((level.starts, [len(level.arcs)]))
                for i, net in enumerate(level.nets):
                    segment = run_keys[bounds[i]:bounds[i + 1]]
                    assert (segment == net).all()

    def test_schedule_memoized_on_graph_and_case(self, booth8, booth8_case):
        _, graph = booth8
        assert schedule_for(graph) is schedule_for(graph)
        assert schedule_for(graph) is graph.schedule
        filtered = schedule_for(graph, booth8_case)
        assert schedule_for(graph, booth8_case) is filtered
        assert filtered is not graph.schedule


# ---------------------------------------------------------------------------
# Kernels vs naive scatter
# ---------------------------------------------------------------------------


def _scatter_forward(graph, schedule, delay, arrival, ufunc):
    """The legacy per-level ``ufunc.at`` propagation, as a reference."""
    for level in schedule.forward:
        arcs = level.arcs
        candidate = arrival[graph.arc_from[arcs]] + delay[arcs]
        ufunc.at(arrival, graph.arc_to[arcs], candidate)


def _scatter_backward(graph, schedule, delay, required):
    for level in reversed(schedule.backward):
        arcs = level.arcs
        candidate = required[graph.arc_to[arcs]] - delay[arcs]
        np.minimum.at(required, graph.arc_from[arcs], candidate)


def _seed(graph, fill, num_k=None):
    shape = (graph.num_nets,) if num_k is None else (graph.num_nets, num_k)
    arrival = np.full(shape, fill)
    arrival[graph.launch_nets] = graph.launch_delay_ps if num_k is None else (
        graph.launch_delay_ps[:, None]
    )
    return arrival


class TestKernelsMatchScatter:
    @pytest.mark.parametrize("case_filtered", [False, True])
    @pytest.mark.parametrize(
        "ufunc,fill", [(np.maximum, -1e30), (np.minimum, 1e30)]
    )
    def test_forward_1d(self, booth8, booth8_case, case_filtered, ufunc, fill):
        _, graph = booth8
        case = booth8_case if case_filtered else None
        schedule = schedule_for(graph, case)
        delay = graph.arc_delay_ps * 1.25

        reference = _seed(graph, fill)
        _scatter_forward(graph, schedule, delay, reference, ufunc)
        result = _seed(graph, fill)
        sweep_forward(
            schedule, graph.arc_from, lambda a: delay[a], result,
            reduce_op=ufunc,
        )
        np.testing.assert_array_equal(result, reference)

    @pytest.mark.parametrize("case_filtered", [False, True])
    def test_forward_2d(self, booth8, booth8_case, case_filtered):
        """The batched (nets x K) arrival-matrix form."""
        _, graph = booth8
        case = booth8_case if case_filtered else None
        schedule = schedule_for(graph, case)
        rng = np.random.default_rng(3)
        factors = rng.uniform(1.0, 2.0, size=(len(graph.arc_from), 4))
        factors = factors.astype(np.float32)
        delay = graph.arc_delay_ps[:, None].astype(np.float32) * factors

        reference = _seed(graph, np.float32(-1e30), num_k=4).astype(np.float32)
        _scatter_forward(graph, schedule, delay, reference, np.maximum)
        result = _seed(graph, np.float32(-1e30), num_k=4).astype(np.float32)
        sweep_forward(schedule, graph.arc_from, lambda a: delay[a], result)
        np.testing.assert_array_equal(result, reference)

    @pytest.mark.parametrize("case_filtered", [False, True])
    def test_backward(self, booth8, booth8_case, case_filtered):
        _, graph = booth8
        case = booth8_case if case_filtered else None
        schedule = schedule_for(graph, case)
        delay = graph.arc_delay_ps
        seed = np.full(graph.num_nets, 1e30)
        seed[graph.endpoint_nets] = 1000.0

        reference = seed.copy()
        _scatter_backward(graph, schedule, delay, reference)
        result = seed.copy()
        sweep_backward(schedule, graph.arc_to, lambda a: delay[a], result)
        np.testing.assert_array_equal(result, reference)
