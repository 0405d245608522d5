"""Switching-activity extraction (the flow's "VCD annotation" equivalent).

For each accuracy mode (active bitwidth) we simulate the netlist with
random stimulus whose LSBs are gated per DVAS, and record per-net toggle
rates.  Dynamic power analysis multiplies these rates by net capacitance,
VDD squared and clock frequency.

All requested modes run as lane groups of one
:meth:`LogicSimulator.toggle_rates_grouped` call: with the packed engine
each mode owns a word-aligned slice of the bitplanes, consecutive-cycle
frames are XOR-popcounted into per-(net, mode) counters and no per-cycle
net-value matrix is ever materialized; the interpreted fallback runs
each mode through the ``collect_net_values`` path.  Both are
bit-identical, so memoized reports are valid whichever engine produced
them.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.netlist.netlist import Netlist
from repro.sim.simulator import LogicSimulator, SimulationMode
from repro.sim.vectors import random_words, zero_lsbs


@dataclass
class ActivityReport:
    """Per-net toggle rates for one accuracy mode.

    ``rates[i]`` is the average number of transitions per clock cycle of
    net index *i*.  The clock net is fixed at 2 transitions per cycle.
    """

    netlist_name: str
    active_bits: int
    cycles: int
    batch: int
    rates: np.ndarray

    def nonzero_fraction(self) -> float:
        """Fraction of nets that toggle at all (constants under LSB gating
        never toggle, so this drops as accuracy drops)."""
        return float(np.count_nonzero(self.rates) / len(self.rates))


def _gated_stimulus(
    rng: np.random.Generator,
    netlist: Netlist,
    active_bits: int,
    batch: int,
) -> Dict[str, np.ndarray]:
    """One cycle of random stimulus with DVAS LSB gating on every input bus."""
    stimulus: Dict[str, np.ndarray] = {}
    for name, bus in netlist.input_buses.items():
        words = random_words(rng, batch, bus.width, signed=True)
        active = min(active_bits, bus.width)
        stimulus[name] = zero_lsbs(words, bus.width, active)
    return stimulus


#: Memo of measured reports: the exploration and both DVAS flavours ask
#: for identical (netlist, mode) activities; simulation is the expensive
#: part, so share it.  Keys use the netlist *content fingerprint* (names
#: and cell counts can collide across rebuilt designs; structure cannot)
#: plus every stimulus parameter.  The dict is LRU-bounded so long-lived
#: serve/explore processes don't grow without limit.
_ACTIVITY_CACHE: "OrderedDict[tuple, ActivityReport]" = OrderedDict()

#: Maximum number of memoized reports (one per (design, mode, stimulus)
#: combination; a full 16-bitwidth sweep of one design uses 16 entries).
ACTIVITY_CACHE_LIMIT = 256


def clear_activity_cache() -> None:
    """Drop all memoized activity reports."""
    _ACTIVITY_CACHE.clear()


def activity_cache_size() -> int:
    """Number of currently memoized activity reports."""
    return len(_ACTIVITY_CACHE)


def measure_activity(
    netlist: Netlist,
    bitwidths: Sequence[int],
    cycles: int = 48,
    batch: int = 64,
    seed: int = 2017,
    warmup_cycles: int = 4,
) -> List[ActivityReport]:
    """Per-net toggle rates of *netlist* at each accuracy mode in *bitwidths*.

    Runs a cycle-accurate simulation with fresh random (LSB-gated) input
    words every cycle, drops *warmup_cycles* cycles of reset transient,
    and averages transitions per cycle across the remaining cycles and the
    whole batch of independent streams.  Every mode draws its stimulus
    from its own stream (``seed + 977 * bits``) and is one lane group of
    a single packed cycle loop, so a mode's report does not depend on
    which other modes share the call.  Reports come back in *bitwidths*
    order and are memoized per (netlist content, mode, stimulus
    parameters).
    """
    if cycles < warmup_cycles + 2:
        raise ValueError("need at least warmup_cycles + 2 cycles")
    fingerprint = netlist.content_fingerprint()

    def key(bits: int) -> tuple:
        return (fingerprint, bits, cycles, batch, seed, warmup_cycles)

    reports: Dict[int, ActivityReport] = {}
    missing: List[int] = []
    for bits in bitwidths:
        cached = _ACTIVITY_CACHE.get(key(bits))
        if cached is not None:
            _ACTIVITY_CACHE.move_to_end(key(bits))
            reports[bits] = cached
        elif bits not in missing:
            missing.append(bits)
    if missing:
        schedules = []
        for bits in missing:
            rng = np.random.default_rng(seed + 977 * bits)
            schedules.append(
                [_gated_stimulus(rng, netlist, bits, batch)
                 for _ in range(cycles)]
            )
        simulator = LogicSimulator(netlist, SimulationMode.CYCLE)
        rates = simulator.toggle_rates_grouped(
            schedules, warmup_cycles=warmup_cycles
        )
        for bits, lane_rates in zip(missing, rates):
            report = ActivityReport(
                netlist_name=netlist.name,
                active_bits=bits,
                cycles=cycles - warmup_cycles,
                batch=batch,
                rates=lane_rates.copy(),
            )
            reports[bits] = report
            _ACTIVITY_CACHE[key(bits)] = report
        while len(_ACTIVITY_CACHE) > ACTIVITY_CACHE_LIMIT:
            _ACTIVITY_CACHE.popitem(last=False)
    return [reports[bits] for bits in bitwidths]
