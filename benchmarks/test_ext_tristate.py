"""Extension: three Vth states per domain ({RBB, NoBB, FBB}).

Section III: the methodology "can however be applied to more than two Vth
values".  This bench quantifies what the third state (reverse back bias,
~12x less leakage than NoBB in this library) buys on the Booth multiplier:
domains whose logic a low accuracy mode deactivates can park in RBB.
"""

import numpy as np

from repro.core.tristate import TriStateExplorer
from repro.sta.caseanalysis import dvas_case


def test_tristate_extension(benchmark, bundles, settings):
    bundle = bundles["booth"]
    design = bundle.domained()
    two_state = bundle.proposed()

    def run():
        return TriStateExplorer(design).run(settings)

    three_state = benchmark.pedantic(run, rounds=1, iterations=1)

    print("\n--- two-state vs three-state exploration (Booth) ---")
    print(f"{'bits':>4s} {'2-state [mW]':>13s} {'3-state [mW]':>13s} "
          f"{'extra':>7s}  best 3-state config")
    extras = {}
    for bits in sorted(settings.bitwidths, reverse=True):
        p2 = two_state.best_per_bitwidth.get(bits)
        p3 = three_state.best_per_bitwidth.get(bits)
        if p2 is None or p3 is None:
            continue
        extra = 1.0 - p3.total_power_w / p2.total_power_w
        extras[bits] = extra
        code = "".join("RNF"[s] for s in p3.states)
        print(
            f"{bits:4d} {p2.total_power_w * 1e3:13.3f} "
            f"{p3.total_power_w * 1e3:13.3f} {extra * 100:6.2f}%  [{code}]"
        )
    print(
        f"\nexplored {three_state.points_evaluated} points "
        f"(3^{design.num_domains} configs per knob point) in "
        f"{three_state.runtime_s:.1f} s"
    )

    # The superset can never lose.
    assert all(extra > -1e-6 for extra in extras.values())

    # RBB is only usable for domains with *no* remaining active logic (any
    # active path through a 2.25x-slower RBB domain busts timing).  Find
    # the accuracy modes where the case analysis fully deactivates a
    # domain; exactly there the three-state optimizer must choose RBB.
    graph = design.timing_graph()
    fully_dead = {}
    cases = dvas_case(design.netlist, settings.bitwidths)
    for bits, case in zip(settings.bitwidths, cases):
        active_arcs = case.active_arc_mask(graph)
        active_domains = set(
            design.domains[graph.arc_cell[np.nonzero(active_arcs)[0]]]
        )
        dead = [
            d for d in range(design.num_domains) if d not in active_domains
        ]
        if dead:
            fully_dead[bits] = dead
    if fully_dead:
        for bits, dead in fully_dead.items():
            point = three_state.best_per_bitwidth.get(bits)
            if point is None:
                continue
            for domain in dead:
                assert point.states[domain] == 0, (bits, domain)
            assert extras.get(bits, 0.0) > 0.0
        print(f"fully deactivated domains per accuracy: {fully_dead}")
    else:
        print(
            "no accuracy mode fully deactivates a domain on this placement "
            "-- RBB brings no gain here (every domain keeps an active "
            "near-critical path), which the table above confirms."
        )
