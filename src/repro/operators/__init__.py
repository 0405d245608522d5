"""Gate-level generators for the paper's three evaluation operators.

Each generator produces a registered (input DFFs, output DFFs) gate-level
netlist mapped onto :mod:`repro.techlib`:

* :func:`repro.operators.booth.booth_multiplier` -- radix-4 Booth multiplier
  with Wallace-tree reduction (the paper's first design, Fig. 5a),
* :func:`repro.operators.fir.fir_filter` -- 30-tap MAC-based FIR datapath
  (Fig. 5c),
* :func:`repro.operators.butterfly.fft_butterfly` -- FFT butterfly with a
  three-multiplier complex multiply (Fig. 5b),

plus the building blocks (adders, Wallace reduction, Booth encoding, MAC)
they are assembled from.
"""

from repro.operators.adders import (
    ripple_carry_adder,
    kogge_stone_adder,
    carry_select_adder,
    subtractor,
)
from repro.operators.booth import booth_multiplier
from repro.operators.fir import fir_filter, FirParameters
from repro.operators.butterfly import fft_butterfly
from repro.operators.mac import multiply_accumulate
from repro.operators.datapath import adequate_adder, l1_norm
from repro.operators.cordic import cordic_rotator
from repro.operators.divider import divider

__all__ = [
    "ripple_carry_adder",
    "kogge_stone_adder",
    "carry_select_adder",
    "subtractor",
    "booth_multiplier",
    "fir_filter",
    "FirParameters",
    "fft_butterfly",
    "multiply_accumulate",
    "adequate_adder",
    "l1_norm",
    "cordic_rotator",
    "divider",
]
