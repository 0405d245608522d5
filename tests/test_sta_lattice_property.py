"""Property wall for the whole-lattice batched STA kernel.

Hypothesis generates random levelized DAGs (hand-built
:class:`TimingGraph` instances, no netlist needed on the analysis path)
and random per-domain delay factors, then checks the structural laws the
lattice pass must satisfy no matter the graph:

* **scalar grounding** -- every combo row of ``analyze_factors`` equals
  one scalar :meth:`StaEngine.analyze` call with the same factor row;
* **Vth monotonicity** -- slowing any domain (larger delay factors)
  never increases a combo's worst slack, so the feasibility mask is
  monotone in the bias lattice order; raising any subset of per-(combo,
  cell) factors never raises any slack either, which is the premise the
  explorer's lattice search prunes by;
* **permutation equivariance** -- the combo axis carries no state:
  permuting input rows permutes every output row identically;
* **NMAX = 0 degeneracy** -- a domainless design collapses to the
  scalar sweep at the NoBB corner.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.sta.constraints import ClockConstraint
from repro.sta.engine import NEG_INF, POS_INF, StaEngine
from repro.sta.graph import TimingGraph
from repro.sta.lattice import LatticeStaEngine
from repro.sta.sweep import compile_schedule
from repro.techlib.library import Library

CONSTRAINT = ClockConstraint(period_ps=900.0, uncertainty_ps=0.0)


def build_graph(num_inputs, cell_fanins, arc_delays, launch_delays,
                endpoint_picks, setup_ps, orphan_endpoint):
    """Hand-assemble a levelized TimingGraph from drawn structure.

    Net layout: nets ``0..num_inputs-1`` are launch points (external
    inputs), net ``num_inputs + c`` is cell *c*'s output, and an optional
    trailing *orphan* net (no driver, no arcs) exercises the
    inactive-endpoint masking when picked as an endpoint.
    """
    num_cells = len(cell_fanins)
    num_nets = num_inputs + num_cells + (1 if orphan_endpoint else 0)
    arc_from, arc_to, arc_cell, arc_delay = [], [], [], []
    net_level = np.zeros(num_nets, dtype=np.int64)
    for c, fanin in enumerate(cell_fanins):
        out = num_inputs + c
        # Fan-in indices were drawn against the nets existing before this
        # cell, so the graph is a DAG by construction.
        sources = [f % (num_inputs + c) for f in fanin]
        for s in sources:
            arc_from.append(s)
            arc_to.append(out)
            arc_cell.append(c)
            arc_delay.append(arc_delays[len(arc_delay) % len(arc_delays)])
        net_level[out] = 1 + max(net_level[s] for s in sources)

    arc_to_arr = np.asarray(arc_to, dtype=np.int64)
    arc_sink_level = net_level[arc_to_arr] if len(arc_to) else arc_to_arr
    arc_order = np.lexsort((arc_to_arr, arc_sink_level))
    sorted_levels = arc_sink_level[arc_order]
    level_slices = []
    if len(sorted_levels):
        boundaries = np.nonzero(np.diff(sorted_levels))[0] + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [len(sorted_levels)]))
        level_slices = [slice(int(s), int(e)) for s, e in zip(starts, ends)]

    launch_nets = np.arange(num_inputs, dtype=np.int64)
    endpoints = sorted({p % num_nets for p in endpoint_picks})
    if orphan_endpoint:
        endpoints.append(num_nets - 1)

    graph = TimingGraph(
        netlist=None,
        num_nets=num_nets,
        num_cells=num_cells,
        arc_from=np.asarray(arc_from, dtype=np.int64),
        arc_to=arc_to_arr,
        arc_cell=np.asarray(arc_cell, dtype=np.int64),
        arc_delay_ps=np.asarray(arc_delay, dtype=np.float64),
        net_level=net_level,
        arc_order=arc_order,
        level_slices=level_slices,
        launch_nets=launch_nets,
        launch_delay_ps=np.asarray(launch_delays[:num_inputs], dtype=float),
        launch_cell=np.full(num_inputs, -1, dtype=np.int64),
        endpoint_nets=np.asarray(endpoints, dtype=np.int64),
        endpoint_setup_ps=np.full(len(endpoints), setup_ps, dtype=float),
        endpoint_cell=np.full(len(endpoints), -1, dtype=np.int64),
        net_load_ff=np.zeros(num_nets),
    )
    graph.schedule = compile_schedule(graph)
    return graph


@st.composite
def random_lattice_case(draw):
    """A random DAG plus a random (combos, cells) factor matrix."""
    num_inputs = draw(st.integers(1, 3))
    num_cells = draw(st.integers(1, 10))
    cell_fanins = [
        draw(st.lists(st.integers(0, 127), min_size=1, max_size=3))
        for _ in range(num_cells)
    ]
    arc_delays = draw(
        st.lists(st.floats(1.0, 400.0), min_size=1, max_size=8)
    )
    launch_delays = draw(
        st.lists(st.floats(0.0, 120.0), min_size=3, max_size=3)
    )
    endpoint_picks = draw(st.lists(st.integers(0, 127), min_size=1,
                                   max_size=4))
    setup_ps = draw(st.floats(0.0, 40.0))
    orphan = draw(st.booleans())
    graph = build_graph(num_inputs, cell_fanins, arc_delays, launch_delays,
                        endpoint_picks, setup_ps, orphan)

    num_domains = draw(st.integers(1, 3))
    domains = np.asarray(
        [draw(st.integers(0, num_domains - 1)) for _ in range(num_cells)],
        dtype=np.int64,
    )
    num_combos = draw(st.integers(1, 6))
    # Per-(combo, domain) delay factors model arbitrary per-domain Vth
    # deltas; cells inherit their domain's factor.
    domain_factors = np.asarray(
        [
            [draw(st.floats(0.5, 3.0)) for _ in range(num_domains)]
            for _ in range(num_combos)
        ]
    )
    factors = domain_factors[:, domains]
    return graph, domains, num_domains, factors


PROPERTY_SETTINGS = settings(max_examples=30, deadline=None)


@given(case=random_lattice_case())
@PROPERTY_SETTINGS
def test_every_combo_row_matches_scalar_engine(case):
    """The lattice pass is a stack of scalar sweeps -- bit for bit."""
    graph, domains, num_domains, factors = case
    library = Library()
    engine = LatticeStaEngine(graph, library, domains, num_domains)
    batched = engine.analyze_factors(
        CONSTRAINT, factors, keep_arrays=True
    )
    scalar = StaEngine(graph, library)
    none_fbb = np.zeros(graph.num_cells, dtype=bool)
    for k in range(factors.shape[0]):
        report = scalar.analyze(
            CONSTRAINT, 1.0, none_fbb, factors=factors[k]
        )
        assert batched.worst_slack_ps[k] == report.worst_slack_ps
        assert batched.critical_endpoint_net[k] == report.critical_endpoint_net
        assert np.array_equal(batched.arrival_ps[k], report.arrival_ps)


@given(case=random_lattice_case(), scale=st.floats(1.0, 2.0))
@PROPERTY_SETTINGS
def test_feasibility_monotone_in_vth(case, scale):
    """Slowing any domain can only shrink slack: if a combo is infeasible,
    every uniformly slower variant of it stays infeasible (the paper's
    lattice-filter order)."""
    graph, domains, num_domains, factors = case
    engine = LatticeStaEngine(graph, Library(), domains, num_domains)
    fast = engine.analyze_factors(CONSTRAINT, factors)
    slow = engine.analyze_factors(CONSTRAINT, factors * scale)
    assert np.all(slow.worst_slack_ps <= fast.worst_slack_ps)
    assert np.all(fast.feasible | ~slow.feasible)  # slow ⟹ fast feasible


@given(case=random_lattice_case(), data=st.data())
@PROPERTY_SETTINGS
def test_slack_monotone_in_each_cell_factor(case, data):
    """Raising any subset of per-(combo, cell) factors never raises any
    slack: a cell switched from FBB to NoBB can only hurt, so an
    assignment with an infeasible superset is infeasible itself."""
    graph, domains, num_domains, factors = case
    raised = data.draw(
        st.lists(st.booleans(), min_size=factors.size, max_size=factors.size)
    )
    bumps = data.draw(
        st.lists(
            st.floats(0.0, 2.0), min_size=factors.size, max_size=factors.size
        )
    )
    shape = factors.shape
    slower = factors + np.where(
        np.reshape(raised, shape), np.reshape(bumps, shape), 0.0
    )
    engine = LatticeStaEngine(graph, Library(), domains, num_domains)
    base = engine.analyze_factors(CONSTRAINT, factors)
    slow = engine.analyze_factors(CONSTRAINT, slower)
    assert np.all(slow.worst_slack_ps <= base.worst_slack_ps)


@given(case=random_lattice_case(), seed=st.integers(0, 2**31 - 1))
@PROPERTY_SETTINGS
def test_combo_axis_permutation_equivariant(case, seed):
    """The combo axis is pure batch: no row sees another row."""
    graph, domains, num_domains, factors = case
    engine = LatticeStaEngine(graph, Library(), domains, num_domains)
    perm = np.random.RandomState(seed).permutation(factors.shape[0])
    straight = engine.analyze_factors(
        CONSTRAINT, factors, keep_arrays=True
    )
    permuted = engine.analyze_factors(
        CONSTRAINT, factors[perm], keep_arrays=True
    )
    assert np.array_equal(permuted.worst_slack_ps,
                          straight.worst_slack_ps[perm])
    assert np.array_equal(permuted.critical_endpoint_net,
                          straight.critical_endpoint_net[perm])
    assert np.array_equal(permuted.arrival_ps, straight.arrival_ps[perm])


@given(case=random_lattice_case(), vdd=st.sampled_from((1.0, 0.8, 0.6)))
@PROPERTY_SETTINGS
def test_nmax_zero_degenerates_to_scalar_sweep(case, vdd):
    """A domainless engine is exactly one scalar NoBB sweep."""
    graph, _, _, _ = case
    library = Library()
    engine = LatticeStaEngine(
        graph, library, np.zeros(graph.num_cells, dtype=np.int64), 0
    )
    result = engine.analyze(
        CONSTRAINT, vdd, configs=np.zeros((1, 0), dtype=bool),
        keep_arrays=True,
    )
    report = StaEngine(graph, library).analyze(
        CONSTRAINT, vdd, np.zeros(graph.num_cells, dtype=bool)
    )
    assert result.worst_slack_ps.shape == (1,)
    assert result.worst_slack_ps[0] == report.worst_slack_ps
    assert result.critical_endpoint_net[0] == report.critical_endpoint_net
    assert np.array_equal(result.arrival_ps[0], report.arrival_ps)


@given(case=random_lattice_case())
@PROPERTY_SETTINGS
def test_orphan_endpoints_masked_not_poisoned(case):
    """Endpoints on undriven nets report the unconstrained sentinel and
    never leak NEG_INF arithmetic into finite combos' slack."""
    graph, domains, num_domains, factors = case
    engine = LatticeStaEngine(graph, Library(), domains, num_domains)
    result = engine.analyze_factors(CONSTRAINT, factors, keep_arrays=True)
    finite = result.worst_slack_ps != POS_INF
    assert np.all(np.abs(result.worst_slack_ps[finite]) < 1e12)
    # Worst slack is either the sentinel or derived from a real arrival.
    for k in np.nonzero(finite)[0]:
        arrivals = result.arrival_ps[k, graph.endpoint_nets]
        assert np.any(arrivals > NEG_INF / 2)
