"""Array-backed lowering of a ModeTable for the batched serve kernel.

The scalar :meth:`~repro.serve.scheduler.ModeScheduler.submit` path pays
per-request dict lookups, policy dispatch and dataclass allocation.  At
``register()`` time the scheduler lowers each :class:`~repro.serve.table.
ModeTable` into a :class:`CompiledTable` of flat numpy arrays instead:

* mode-key index maps plus active-bits / power / VDD vectors in the
  table's insertion order (power tie-breaks depend on that order);
* the precomputed transition-cost matrix as dense ``(n_modes + 1,
  n_modes)`` energy / settle planes -- the extra row is the power-on
  (``None``) state, free by construction;
* a *cover table* mapping every requested bitwidth straight to the
  index :meth:`ModeTable.mode_key_for` would return;
* precomputed **policy decision tables**: greedy and hysteresis are
  memoryless, so probing the real policy object once per
  ``(current mode, requested bits)`` pair turns ``decide()`` into a pure
  ``next_index[state, requested]`` lookup that is bit-identical by
  construction (lookahead is priced per position in array passes --
  see the scheduler kernel);
* a margin-guard **availability bitmask** (plus the matching guarded
  cover table) that :meth:`~repro.serve.guard.MarginGuard.
  refresh_availability` updates in place whenever the environment is
  time-invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.serve.learned import LearnedPolicy
from repro.serve.policy import (
    GreedyPolicy,
    HysteresisPolicy,
    LookaheadPolicy,
    PolicyContext,
    SelectionPolicy,
)
from repro.serve.table import ModeTable

class CompiledTable:
    """Flat-array view of one ModeTable plus its compiled policy tables.

    One instance belongs to one scheduler (the availability bitmask is
    guard-specific state, so compiled tables are never shared across
    schedulers).  Mode *indices* are positions in the table's insertion
    order; the extra state row ``none_row == num_modes`` stands for the
    power-on (``current_bits is None``) state in every ``(state, ...)``
    indexed array.
    """

    def __init__(self, table: ModeTable):
        self.table = table
        keys = list(table.modes)
        self.keys: List[int] = keys
        self.index_of: Dict[int, int] = {k: i for i, k in enumerate(keys)}
        n = len(keys)
        self.num_modes = n
        self.none_row = n
        self.modes = [table.modes[k] for k in keys]
        self.active_bits = np.array(
            [m.active_bits for m in self.modes], dtype=np.int64
        )
        self.power_w = np.array(
            [m.total_power_w for m in self.modes], dtype=np.float64
        )
        #: Electrical signature per mode, for generator-pool batching.
        self.signatures: List[Tuple] = [
            (m.vdd, m.bb_config) for m in self.modes
        ]
        self.max_bits = table.max_bits
        self.static_index = self.index_of[table.max_bits]
        self.fclk_ghz = table.fclk_ghz
        #: Exactly the divisor the scalar path computes per request.
        self.denom_hz = table.fclk_ghz * 1e9

        energy = np.zeros((n + 1, n), dtype=np.float64)
        settle = np.zeros((n + 1, n), dtype=np.float64)
        for i, a in enumerate(keys):
            for j, b in enumerate(keys):
                cost = table.transition_between(a, b)
                energy[i, j] = cost.energy_j
                settle[i, j] = cost.settle_ns
        self.transition_energy_j = energy
        self.transition_settle_ns = settle
        self.transition_free = (energy == 0.0) & (settle == 0.0)
        # Python nested lists for the scalar lookahead comparison (python
        # float arithmetic there must fold exactly like the policy's).
        self._energy_rows = energy.tolist()
        self._power_list = self.power_w.tolist()
        self._bits_list = self.active_bits.tolist()
        self._free_rows = self.transition_free.tolist()

        cover = np.empty(self.max_bits + 1, dtype=np.int64)
        for bits in range(1, self.max_bits + 1):
            cover[bits] = self.index_of[table.mode_key_for(bits)]
        cover[0] = cover[1]
        self.cover_index = cover
        self._cover_list = cover.tolist()

        #: Guard-maintained availability (updated in place, see
        #: :meth:`refresh_availability`).  All-available by default.
        self.mode_available = np.ones(n, dtype=bool)
        self.guarded_cover_index = cover.copy()
        self.all_available = True

        self._decision_tables: Dict[Tuple, np.ndarray] = {}
        # id(spec) -> mode-index lowering of a frozen learned policy
        # (the spec object is pinned by the policy holding it).
        self._learned_tables: Dict[int, np.ndarray] = {}

    # -- policy lowering -----------------------------------------------------

    @staticmethod
    def policy_cache_key(policy: SelectionPolicy) -> Optional[Tuple]:
        """Decision-table cache key for a *memoryless* policy, else None."""
        kind = type(policy)
        if kind is GreedyPolicy:
            return ("greedy",)
        if kind is HysteresisPolicy:
            return ("hysteresis", policy.dwell_cycles, policy.margin)
        return None

    @staticmethod
    def is_known_policy(policy: SelectionPolicy) -> bool:
        return type(policy) in (
            GreedyPolicy,
            HysteresisPolicy,
            LookaheadPolicy,
            LearnedPolicy,
        )

    def decision_table(self, policy: SelectionPolicy) -> np.ndarray:
        """``next_index[state_row, required_bits]`` for a memoryless policy.

        Built by probing the *actual* policy object once per pair, so the
        lookup is bit-identical to ``policy.decide`` by construction.
        """
        key = self.policy_cache_key(policy)
        if key is None:
            raise ValueError(
                f"policy {policy.name!r} has no pure decision table"
            )
        cached = self._decision_tables.get(key)
        if cached is not None:
            return cached
        n = self.num_modes
        table = np.empty((n + 1, self.max_bits + 1), dtype=np.int64)
        for row in range(n + 1):
            current = self.keys[row] if row < n else None
            for bits in range(1, self.max_bits + 1):
                table[row, bits] = self.index_of[
                    policy.decide(PolicyContext(bits, current))
                ]
            table[row, 0] = table[row, 1]
        self._decision_tables[key] = table
        return table

    def learned_decision_table(self, policy: LearnedPolicy) -> np.ndarray:
        """The frozen spec's decision tensor lowered to mode *indices*.

        Shape ``(n_modes + 1, n_level, n_vol, n_occ, max_bits + 1)``.
        ``spec.mode_states`` is validated against the table's compiled
        mode order at policy construction, so the leading axis lines up
        with this table's state rows (``none_row`` last) and the entries
        are positions in the same order -- the batch kernel's fold lands
        on exactly the key ``LearnedPolicy.decide`` returns.
        """
        spec = policy.spec
        cached = self._learned_tables.get(id(spec))
        if cached is not None:
            return cached
        lowered = np.array(
            [
                [
                    [
                        [
                            [self.index_of[key] for key in cell]
                            for cell in row
                        ]
                        for row in plane
                    ]
                    for plane in cube
                ]
                for cube in spec.decisions
            ],
            dtype=np.int64,
        )
        self._learned_tables[id(spec)] = lowered
        return lowered

    # -- margin-guard availability -------------------------------------------

    def refresh_availability(self, safe_flags: Sequence[bool]) -> None:
        """Update the availability bitmask (and guarded cover) in place.

        ``safe_flags[i]`` is the guard's verdict for mode index *i*.  The
        guarded cover table mirrors :meth:`MarginGuard.guarded_key`: the
        cheapest *safe* mode covering each bitwidth (same insertion-order
        first-minimum tie-break), or the static mode when nothing safe
        covers.
        """
        np.copyto(self.mode_available, np.asarray(safe_flags, dtype=bool))
        self.all_available = bool(self.mode_available.all())
        if self.all_available:
            np.copyto(self.guarded_cover_index, self.cover_index)
            return
        available = self.mode_available.tolist()
        powers = self._power_list
        bits_of = self._bits_list
        guarded = self.guarded_cover_index
        for bits in range(self.max_bits + 1):
            need = bits if bits else 1
            best = -1
            best_power = np.inf
            for index in range(self.num_modes):
                if not available[index] or bits_of[index] < need:
                    continue
                if powers[index] < best_power:
                    best = index
                    best_power = powers[index]
            guarded[bits] = best if best >= 0 else self.static_index


@dataclass
class BatchResult:
    """Flat result arrays of one batched frame, in submission order.

    Everything the fleet worker's reply frame needs without building a
    single :class:`~repro.serve.scheduler.ServedPhase`; the scheduler
    materializes phases from these arrays only when asked to.
    """

    served_bits: np.ndarray
    switched: np.ndarray
    batched: np.ndarray
    degraded: np.ndarray
    margin_fallback: np.ndarray
    transition_retries: np.ndarray
    compute_energy_j: np.ndarray
    transition_energy_j: np.ndarray
    settle_ns: np.ndarray
    queue_wait_ns: np.ndarray
    decided_at_ns: np.ndarray

    def __len__(self) -> int:
        return len(self.served_bits)
