"""Property-based bit-identity for the batched serve kernel.

Hypothesis drives randomized traces, frame shapes, policies and pool
configurations through the batched kernel and the per-request oracles
of :mod:`tests.oracles.serve`, and asserts they never diverge -- the
serve analogue of ``tests/test_sta_lattice_property.py``.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.runtime import BiasGeneratorModel, WorkloadPhase
from repro.serve import ModeScheduler, ServeRequest, replay_trace
from repro.serve.telemetry import Histogram
from tests.conftest import build_synthetic_table
from tests.oracles.serve import (
    ScalarFrameScheduler,
    pool_state,
    replay_scalar,
)

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)

#: Any bits in [1, 8] is coverable by the synthetic table.
REQUEST = st.tuples(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=20_000),
)


@st.composite
def frame_sequence(draw):
    """A short sequence of frames over a couple of operators."""
    num_ops = draw(st.integers(min_value=1, max_value=3))
    operators = [f"op{i}" for i in range(num_ops)]
    frames = draw(
        st.lists(
            st.lists(
                st.tuples(st.sampled_from(operators), REQUEST),
                min_size=1,
                max_size=25,
            ),
            min_size=1,
            max_size=5,
        )
    )
    return [
        [ServeRequest(op, bits, cycles) for op, (bits, cycles) in frame]
        for frame in frames
    ]


@st.composite
def busy_then_lone(draw):
    """A frame of several operators that can leave the pool busy, then
    frames of one of them: its walk may find the pool idle mid-frame."""
    busy = draw(
        st.lists(
            st.tuples(st.sampled_from(("lone", "b", "c")), REQUEST),
            min_size=1,
            max_size=25,
        )
    )
    lone = draw(
        st.lists(
            st.lists(REQUEST, min_size=1, max_size=25),
            min_size=1,
            max_size=3,
        )
    )
    frames = [[ServeRequest(op, b, c) for op, (b, c) in busy]]
    for frame in lone:
        frames.append([ServeRequest("lone", b, c) for b, c in frame])
    return frames


#: (well, rail) settle times in ns.  A zero well settle makes 4<->6 a
#: non-free transition that settles in 0 ns, so generators tie on their
#: free times; all-zero makes every transition one.
SLEWS = st.sampled_from(((100.0, 50.0), (0.0, 50.0), (0.0, 0.0)))


@PROPERTY_SETTINGS
@given(
    policy=st.sampled_from(("greedy", "hysteresis", "lookahead")),
    trace=st.lists(REQUEST, min_size=1, max_size=80),
    window=st.integers(min_value=0, max_value=6),
)
def test_replay_engines_agree(policy, trace, window):
    table = build_synthetic_table()
    workload = [
        WorkloadPhase(required_bits=b, cycles=c) for b, c in trace
    ]
    assert replay_scalar(
        table, workload, policy=policy, lookahead_window=window,
    ) == replay_trace(
        table, workload, policy=policy, lookahead_window=window,
    )


@PROPERTY_SETTINGS
@given(
    policy=st.sampled_from(("greedy", "hysteresis", "lookahead")),
    frames=frame_sequence(),
    generators=st.integers(min_value=1, max_value=3),
    depth=st.integers(min_value=1, max_value=6),
)
def test_frames_bit_identical(policy, frames, generators, depth):
    scalar = ScalarFrameScheduler(
        build_synthetic_table(),
        num_generators=generators,
        policy=policy,
        max_queue_depth=depth,
    )
    batch = ModeScheduler(
        build_synthetic_table(),
        num_generators=generators,
        policy=policy,
        max_queue_depth=depth,
    )
    for frame in frames:
        assert scalar.submit_batch(frame) == batch.submit_batch(frame)
        assert pool_state(scalar) == pool_state(batch)
    assert scalar.telemetry.snapshot() == batch.telemetry.snapshot()
    for operator in scalar.operators:
        assert scalar.report(operator) == batch.report(operator)


@PROPERTY_SETTINGS
@given(
    policy=st.sampled_from(("greedy", "hysteresis", "lookahead")),
    frames=busy_then_lone(),
    generators=st.integers(min_value=1, max_value=3),
    depth=st.integers(min_value=1, max_value=6),
    slews=SLEWS,
)
def test_lone_frames_after_busy_pool(policy, frames, generators, depth, slews):
    well_ns, rail_ns = slews
    pair = [
        kind(
            build_synthetic_table(
                BiasGeneratorModel(
                    transition_time_ns=well_ns, vdd_transition_time_ns=rail_ns
                )
            ),
            num_generators=generators,
            policy=policy,
            max_queue_depth=depth,
        )
        for kind in (ScalarFrameScheduler, ModeScheduler)
    ]
    scalar, batch = pair
    for frame in frames:
        assert scalar.submit_batch(frame) == batch.submit_batch(frame)
        assert pool_state(scalar) == pool_state(batch)
        assert scalar.telemetry.snapshot() == batch.telemetry.snapshot()
    for operator in scalar.operators:
        assert scalar.report(operator) == batch.report(operator)


@PROPERTY_SETTINGS
@given(
    values=st.lists(
        st.floats(
            min_value=0.0,
            max_value=1e8,
            allow_nan=False,
            allow_infinity=False,
        ),
        min_size=0,
        max_size=60,
    )
)
def test_record_many_matches_scalar_record(values):
    bounds = [1.0, 10.0, 100.0, 1_000.0, 10_000.0]
    scalar = Histogram(bounds, unit="x")
    vector = Histogram(bounds, unit="x")
    for value in values:
        scalar.record(value)
    vector.record_many(np.asarray(values, dtype=np.float64))
    assert vector.to_dict() == scalar.to_dict()
