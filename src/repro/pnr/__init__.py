"""Place & route substrate (the flow's stand-in for Cadence Innovus).

Provides what the paper's methodology actually needs from physical design:

* a row-based floorplan and a connectivity-driven global placer with row
  legalization (:mod:`floorplan`, :mod:`placer`, :mod:`legalize`),
* half-perimeter wirelength and wire RC extraction
  (:mod:`wirelength`, :mod:`parasitics`),
* the regular-grid Vth/BB domain partitioner with guardband insertion and
  incremental re-placement (:mod:`grid`, :mod:`incremental`),
* slack-driven gate sizing -- the timing-fix/power-recovery optimizer whose
  power recovery is what creates the wall of slack (:mod:`sizing`),
* alternative domain constructions the grid is compared against
  (:mod:`partition`).
"""

from repro.pnr.floorplan import Floorplan
from repro.pnr.placer import GlobalPlacer, PlacementResult
from repro.pnr.wirelength import half_perimeter_wirelength, total_wirelength
from repro.pnr.grid import GridPartition, insert_domains
from repro.pnr.parasitics import Parasitics, extract_parasitics
from repro.pnr.sizing import power_recovery, timing_fix

__all__ = [
    "Floorplan",
    "GlobalPlacer",
    "PlacementResult",
    "half_perimeter_wirelength",
    "total_wirelength",
    "GridPartition",
    "insert_domains",
    "Parasitics",
    "extract_parasitics",
    "power_recovery",
    "timing_fix",
]
