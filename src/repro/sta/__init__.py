"""Static timing analysis (the flow's stand-in for Synopsys PrimeTime).

The netlist is compiled once into a flat arc-level timing graph
(:mod:`graph`); arrival/required/slack sweeps run on numpy arrays
(:mod:`engine`).  Two features carry the paper's methodology:

* :mod:`caseanalysis` -- constant propagation of zeroed input LSBs (through
  sequential elements, to a fixpoint) deactivates timing paths, which is
  how reduced accuracy buys timing slack; every accuracy mode is a lane
  of one compiled, table-driven pass;
* :mod:`lattice` -- one levelized float64 sweep evaluates many
  back-bias assignments of a partitioned design at once (or any
  per-cell delay factors, e.g. the {RBB, NoBB, FBB} extension): (combos,
  nets) arrival and required tensors, per-combo WNS / critical-endpoint
  / feasibility in one pass, bit-identical to looping the scalar engine.
  The explorer does not send it all 2^NMAX assignments: a boost never
  lowers a slack, so it searches the lattice top-down and sends only the
  feasible and the maximal infeasible ones, with exact results.
"""

from repro.sta.graph import TimingGraph, compile_timing_graph
from repro.sta.engine import StaEngine, TimingReport
from repro.sta.lattice import LatticeStaEngine, LatticeTimingResult
from repro.sta.caseanalysis import (
    CaseAnalysis,
    CaseLanes,
    propagate_constants,
    propagate_lanes,
    dvas_case,
    UNKNOWN,
)
from repro.sta.constraints import ClockConstraint
from repro.sta.histogram import slack_histogram, SlackHistogram
from repro.sta.hold import HoldAnalyzer, HoldReport
from repro.sta.report_timing import report_timing, extract_path, TimingPath

__all__ = [
    "TimingGraph",
    "compile_timing_graph",
    "StaEngine",
    "TimingReport",
    "LatticeStaEngine",
    "LatticeTimingResult",
    "CaseAnalysis",
    "CaseLanes",
    "propagate_constants",
    "propagate_lanes",
    "dvas_case",
    "UNKNOWN",
    "ClockConstraint",
    "slack_histogram",
    "SlackHistogram",
    "HoldAnalyzer",
    "HoldReport",
    "report_timing",
    "extract_path",
    "TimingPath",
]
