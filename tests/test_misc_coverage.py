"""Small-surface behaviours not covered elsewhere."""

import dataclasses

import numpy as np
import pytest

from repro.core import tristate
from repro.core.config import ExplorationSettings
from repro.core.tristate import TriStateExplorer
from repro.netlist.builder import NetlistBuilder
from repro.pnr.floorplan import Floorplan
from repro.sta.constraints import ClockConstraint
from repro.sta.engine import StaEngine
from repro.sta.graph import compile_timing_graph
from repro.sta.lattice import all_state_configs
from repro.techlib.library import Library

LIBRARY = Library()


class TestPinRef:
    def test_pin_names_resolve(self):
        builder = NetlistBuilder("t", LIBRARY)
        a = builder.input_bus("A", 3)
        s, co = builder.full_adder(*a)
        fa = builder.netlist.cells[0]
        assert [p.pin_name for p in a[0].sinks] == ["A"]
        assert s.driver.pin_name == "S"
        assert co.driver.pin_name == "CO"
        assert s.driver.cell is fa


class TestFloorplanClamp:
    def test_clamps_into_die(self):
        plan = Floorplan(10.0, 6.0, 1.2)
        assert plan.clamp(-1.0, 3.0) == (0.0, 3.0)
        assert plan.clamp(11.0, 7.0) == (10.0, 6.0)
        assert plan.clamp(5.0, 5.0) == (5.0, 5.0)


class TestEngineValidation:
    def test_fbb_shape_checked(self):
        builder = NetlistBuilder("t", LIBRARY)
        a = builder.input_bus("A", 1)
        builder.output_bus("Y", [builder.inv(a[0])])
        graph = compile_timing_graph(builder.netlist)
        engine = StaEngine(graph, LIBRARY)
        with pytest.raises(ValueError, match="fbb_cells shape"):
            engine.analyze(
                ClockConstraint(100.0), 1.0, np.ones(99, bool)
            )

    def test_factor_override_shape_checked(self):
        builder = NetlistBuilder("t", LIBRARY)
        a = builder.input_bus("A", 1)
        builder.output_bus("Y", [builder.inv(a[0])])
        graph = compile_timing_graph(builder.netlist)
        engine = StaEngine(graph, LIBRARY)
        with pytest.raises(ValueError, match="factors shape"):
            engine.analyze(
                ClockConstraint(100.0), 1.0,
                np.ones(graph.num_cells, bool),
                factors=np.ones(3),
            )

    def test_factor_override_scales_delay(self):
        builder = NetlistBuilder("t", LIBRARY)
        a = builder.input_bus("A", 1)
        builder.clock()
        q = builder.register_word(a)
        net = builder.inv(q[0])
        builder.output_bus("Y", builder.register_word([net]))
        graph = compile_timing_graph(builder.netlist)
        engine = StaEngine(graph, LIBRARY)
        fbb = np.ones(graph.num_cells, bool)
        nominal = engine.analyze(
            ClockConstraint(1e6), 1.0, fbb, compute_required=False
        )
        doubled = engine.analyze(
            ClockConstraint(1e6), 1.0, fbb,
            factors=np.full(graph.num_cells, 2.0),
            compute_required=False,
        )
        assert (
            doubled.critical_path_delay_ps
            > 1.5 * nominal.critical_path_delay_ps
        )


class TestBatchStateValidation:
    @pytest.fixture()
    def explorer(self, booth8_domained):
        return TriStateExplorer(booth8_domained)

    def test_two_state_configs_match_bool_engine(self, explorer):
        """{NoBB, FBB} written as state indices times exactly like the
        boolean configs the two-state exploration sweeps."""
        design = explorer.design
        bool_result = explorer.lattice_engine.analyze(design.constraint, 0.9)
        state_slack = explorer.worst_slacks(
            all_state_configs(design.num_domains, 2) + 1, 0.9, None
        )
        assert np.array_equal(bool_result.worst_slack_ps, state_slack)

    def test_chunked_equals_unchunked(self, explorer, monkeypatch):
        settings = ExplorationSettings(
            bitwidths=(2, 8), activity_cycles=8, activity_batch=8
        )
        assert 7 < 3**explorer.design.num_domains <= tristate.LATTICE_CHUNK
        whole = explorer.run(settings)
        monkeypatch.setattr(tristate, "LATTICE_CHUNK", 7)
        chunked = explorer.run(settings)
        for field in dataclasses.fields(whole):
            if field.name != "runtime_s":
                assert getattr(chunked, field.name) == getattr(
                    whole, field.name
                ), field.name


class TestCliCompare:
    def test_compare_small(self, capsys):
        from repro.cli import main

        assert main(
            ["compare", "--design", "adder", "--width", "4", "--grid", "1x2"]
        ) == 0
        out = capsys.readouterr().out
        assert "DVAS (FBB)" in out
        assert "power saving" in out
