"""Differential lock-in of the lattice search against the full lattice.

``ExhaustiveExplorer._ladder_slacks`` walks the BB lattice top-down and
sends to STA only the assignments with no immediate superset known to
be infeasible.  The reference is the exhaustive sweep,
:func:`tests.oracles.sta.full_ladder_slacks`.  For every (bitwidth, VDD)
of Booth, FIR and butterfly at width 8 on 2x2 and 3x3 domains:

* the feasible masks are equal;
* every lane the search sent holds the reference's slack, bit for bit,
  and no lane is sent twice;
* the lanes not sent are exactly the infeasible assignments with an
  infeasible immediate superset among the configurations;
* the exploration's counts, winners and winners' slacks are equal.

Restricted configuration matrices (the DVAS rows, a random half of the
lattice) and a library on which FBB is slower than NoBB at one rung --
where the search must send everything -- run through the same checks.
"""

import numpy as np
import pytest

from repro.core.config import ExplorationSettings
from repro.core.exploration import ExhaustiveExplorer
from repro.core.flow import implement_with_domains
from repro.operators import booth_multiplier, fft_butterfly, fir_filter
from repro.operators.fir import FirParameters
from repro.pnr.grid import GridPartition
from repro.sta.lattice import all_bb_configs
from repro.techlib.library import Library
from tests.oracles.sta import full_ladder_slacks
from tests.test_parallel_differential import assert_identical

SETTINGS = ExplorationSettings(
    bitwidths=tuple(range(1, 9)), activity_cycles=8, activity_batch=8
)

FACTORIES = {
    "booth": lambda library: booth_multiplier(library, width=8),
    "fir": lambda library: fir_filter(
        library, FirParameters(taps=4, width=8)
    ),
    "butterfly": lambda library: fft_butterfly(library, width=8),
}


@pytest.fixture(scope="module", params=[
    (design, grid) for design in FACTORIES for grid in ((2, 2), (3, 3))
], ids=lambda p: f"{p[0]}-{p[1][0]}x{p[1][1]}")
def explorer(request, library):
    design, grid = request.param
    return ExhaustiveExplorer(
        implement_with_domains(
            lambda: FACTORIES[design](library), library, GridPartition(*grid)
        )
    )


def _codes(configs: np.ndarray) -> np.ndarray:
    return configs @ (1 << np.arange(configs.shape[1], dtype=np.int64))


def _explore_both(explorer, monkeypatch, configs):
    """The exploration by search and by the full lattice, plus per call
    the search's slacks, the reference slacks and the passes sent."""
    search = ExhaustiveExplorer._ladder_slacks
    engine = explorer.lattice_engine
    ladder = engine.analyze_ladder
    passes = []
    records = []

    def spy_ladder(constraint, vdds, configs=None, case=None):
        passes.append(configs)
        return ladder(constraint, vdds, configs=configs, case=case)

    def recording(self, vdd_values, rows, case):
        passes.clear()
        slacks = search(self, vdd_values, rows, case)
        sent = list(passes)
        reference = full_ladder_slacks(self, vdd_values, rows, case)
        records.append((slacks, reference, sent))
        return slacks

    monkeypatch.setattr(engine, "analyze_ladder", spy_ladder)
    monkeypatch.setattr(ExhaustiveExplorer, "_ladder_slacks", recording)
    searched = explorer.run(SETTINGS, configs=configs)
    replay = iter([reference for _, reference, _ in records])
    monkeypatch.setattr(
        ExhaustiveExplorer, "_ladder_slacks", lambda *args: next(replay)
    )
    reference = explorer.run(SETTINGS, configs=configs)
    monkeypatch.undo()
    return searched, reference, records


def _check_lanes(configs, records, prunes=True):
    """Lane-by-lane checks of every search call against its reference;
    returns the number of lanes sent."""
    codes = _codes(configs)
    row_of = {int(code): row for row, code in enumerate(codes)}
    # supersets[k]: rows of configs holding row k with one more domain
    # boosted (absent supersets give the search no evidence).
    supersets = [
        [
            row_of[int(code) | (1 << d)]
            for d in range(configs.shape[1])
            if not configs[k, d] and int(code) | (1 << d) in row_of
        ]
        for k, code in enumerate(codes)
    ]
    lanes_sent = 0
    for slacks, reference, passes in records:
        for rung, (got, want) in enumerate(zip(slacks, reference)):
            np.testing.assert_array_equal(got >= 0.0, want >= 0.0)
            rows = [
                row_of[int(code)]
                for level in passes
                for code in _codes(level[rung])
            ]
            assert len(set(rows)) == len(rows), "a lane was sent twice"
            sent = np.zeros(len(configs), dtype=bool)
            sent[rows] = True
            lanes_sent += len(rows)
            assert np.array_equal(got[sent], want[sent])
            assert np.all(got[~sent] == -np.inf)
            infeasible = ~(want >= 0.0)
            if prunes:
                skippable = np.asarray(
                    [
                        infeasible[k] and any(infeasible[s] for s in sups)
                        for k, sups in enumerate(supersets)
                    ],
                    dtype=bool,
                )
            else:
                skippable = np.zeros(len(configs), dtype=bool)
            np.testing.assert_array_equal(~sent, skippable)
    return lanes_sent


def test_search_matches_full_lattice(explorer, monkeypatch):
    configs = all_bb_configs(explorer.design.num_domains)
    searched, reference, records = _explore_both(
        explorer, monkeypatch, configs
    )
    assert len(records) == len(SETTINGS.bitwidths)
    sent = _check_lanes(configs, records)
    assert_identical(reference, searched)
    total = len(configs) * SETTINGS.num_knob_points
    assert searched.points_evaluated == total
    # The search must actually skip work: the premise holds on the
    # shipped library and at least one maximal infeasible set exists.
    assert sent < total


@pytest.mark.parametrize("restriction", ["dvas", "random-half"])
def test_restricted_configs_match_full_lattice(
    explorer, monkeypatch, restriction
):
    num_domains = explorer.design.num_domains
    if restriction == "dvas":
        configs = np.array([[False] * num_domains, [True] * num_domains])
    else:
        full = all_bb_configs(num_domains)
        rows = np.random.default_rng(2017).permutation(len(full))
        configs = full[rows[: len(full) // 2]]
    searched, reference, records = _explore_both(
        explorer, monkeypatch, configs
    )
    _check_lanes(configs, records)
    assert_identical(reference, searched)


def test_premise_violation_sends_every_assignment(
    library, monkeypatch
):
    """FBB slower than NoBB at one rung: no superset is evidence."""
    explorer = ExhaustiveExplorer(
        implement_with_domains(
            lambda: FACTORIES["booth"](library), library, GridPartition(2, 2)
        )
    )
    assert explorer.lattice_engine.bias_monotone(SETTINGS.vdd_values)
    honest = Library.delay_factor
    fbb = library.process.fbb_voltage
    rung = SETTINGS.vdd_values[2]

    def slow_fbb(self, corner):
        if corner.vdd == rung and corner.vbb == fbb:
            return 1.05 * honest(self, self.nobb_corner(rung))
        return honest(self, corner)

    monkeypatch.setattr(Library, "delay_factor", slow_fbb)
    assert not explorer.lattice_engine.bias_monotone(SETTINGS.vdd_values)
    configs = all_bb_configs(explorer.design.num_domains)
    searched, reference, records = _explore_both(
        explorer, monkeypatch, configs
    )
    sent = _check_lanes(configs, records, prunes=False)
    assert sent == len(configs) * SETTINGS.num_knob_points
    assert_identical(reference, searched)


class TestPremise:
    def test_holds_on_the_shipped_library(self, booth8_domained):
        engine = ExhaustiveExplorer(booth8_domained).lattice_engine
        assert engine.bias_monotone(ExplorationSettings().vdd_values)

    def test_refused_below_threshold(self, booth8_domained):
        """An infinite delay factor voids the premise."""
        engine = ExhaustiveExplorer(booth8_domained).lattice_engine
        assert not engine.bias_monotone([1.0, 0.05])

    def test_refused_on_negative_delay(self, booth8_domained):
        engine = ExhaustiveExplorer(booth8_domained).lattice_engine
        engine.graph.arc_delay_ps = engine.graph.arc_delay_ps.copy()
        engine.graph.arc_delay_ps[0] = -1.0
        fresh = type(engine)(
            engine.graph, engine.library, engine.domains, engine.num_domains
        )
        assert not fresh.bias_monotone([1.0])


def test_scratch_holds_one_buffer_per_role(booth8_domained):
    """However many lane counts the search sends, the engine keeps one
    flat buffer per role, sized to the largest pass."""
    from repro.sta.sweep import schedule_for

    explorer = ExhaustiveExplorer(booth8_domained)
    engine = explorer.lattice_engine
    analyze = engine.analyze_factors
    needed = {"cell_factors": 0, "arc_delay": 0, "candidate": 0}
    lane_counts = set()

    def spy(constraint, factors, **kwargs):
        lanes = factors.shape[0]
        lane_counts.add(lanes)
        levels = engine._padded_levels(
            schedule_for(engine.graph, kwargs.get("case"))
        )
        slots = max((lvl.segments * lvl.fanin for lvl in levels), default=0)
        needed["cell_factors"] = max(
            needed["cell_factors"], engine.graph.num_cells * lanes
        )
        needed["arc_delay"] = max(
            needed["arc_delay"], len(engine.graph.arc_cell) * lanes
        )
        needed["candidate"] = max(needed["candidate"], slots * lanes)
        return analyze(constraint, factors, **kwargs)

    engine.analyze_factors = spy
    explorer.run(SETTINGS)
    assert len(lane_counts) > 1
    assert sorted(engine._scratch) == sorted(needed)
    for role, buffer in engine._scratch.items():
        assert buffer.ndim == 1
        assert buffer.size == needed[role], role
