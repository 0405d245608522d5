"""Adder generators: ripple-carry, Kogge-Stone, carry-select, subtractor.

All functions take bit lists LSB first and return bit lists LSB first.
They add gates to an existing :class:`~repro.netlist.builder.NetlistBuilder`
so operators can compose them freely.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.netlist.builder import NetlistBuilder
from repro.netlist.net import Net


def _check_widths(a: List[Net], b: List[Net]) -> int:
    if len(a) != len(b):
        raise ValueError(f"operand widths differ: {len(a)} vs {len(b)}")
    if not a:
        raise ValueError("zero-width addition")
    return len(a)


def ripple_carry_adder(
    builder: NetlistBuilder,
    a: List[Net],
    b: List[Net],
    cin: Optional[Net] = None,
    need_cout: bool = True,
) -> Tuple[List[Net], Optional[Net]]:
    """Chain of full adders; returns (sum bits, carry out).

    Smallest area, longest carry chain -- used for narrow or non-critical
    additions.  With ``need_cout=False`` the top bit degenerates to a
    sum-only XOR pair (as synthesis trims unused carry logic) and the
    returned carry is ``None``.
    """
    width = _check_widths(a, b)
    carry = cin if cin is not None else builder.const(False)
    sums: List[Net] = []
    for i in range(width):
        if i == width - 1 and not need_cout:
            sums.append(builder.xor2(builder.xor2(a[i], b[i]), carry))
            return sums, None
        s, carry = builder.full_adder(a[i], b[i], carry)
        sums.append(s)
    return sums, carry


def _propagate_generate(
    builder: NetlistBuilder, a: List[Net], b: List[Net]
) -> Tuple[List[Net], List[Net]]:
    """Bitwise propagate (XOR) and generate (AND) signals."""
    p = [builder.xor2(ai, bi) for ai, bi in zip(a, b)]
    g = [builder.and2(ai, bi) for ai, bi in zip(a, b)]
    return p, g


def _prefix_combine(
    builder: NetlistBuilder,
    g_hi: Net,
    p_hi: Net,
    g_lo: Net,
    p_lo: Net,
) -> Tuple[Net, Net]:
    """The associative prefix operator (g, p) o (g', p')."""
    g_out = builder.or2(g_hi, builder.and2(p_hi, g_lo))
    return g_out, builder.and2(p_hi, p_lo)


def _sum_from_carries(
    builder: NetlistBuilder,
    p: List[Net],
    carries: List[Net],
) -> List[Net]:
    return [builder.xor2(pi, ci) for pi, ci in zip(p, carries)]


def kogge_stone_adder(
    builder: NetlistBuilder,
    a: List[Net],
    b: List[Net],
    cin: Optional[Net] = None,
    need_cout: bool = True,
) -> Tuple[List[Net], Optional[Net]]:
    """Radix-2 Kogge-Stone parallel-prefix adder; returns (sum, carry out).

    Logarithmic depth with full fanout-of-one prefix tree -- the fast adder
    a synthesis tool picks for timing-critical additions.  With
    ``need_cout=False`` the top prefix node (used only by the carry out) is
    not built and the returned carry is ``None``.
    """
    width = _check_widths(a, b)
    p, g = _propagate_generate(builder, a, b)
    # Prefix arrays: after the sweep, g_pfx[i] = generate of bits [0..i].
    g_pfx = list(g)
    p_pfx = list(p)
    top = width - 1
    distance = 1
    while distance < width:
        next_g = list(g_pfx)
        next_p = list(p_pfx)
        for i in range(distance, width):
            if i == top and not need_cout:
                continue
            g_new, p_new = _prefix_combine(
                builder, g_pfx[i], p_pfx[i], g_pfx[i - distance], p_pfx[i - distance]
            )
            next_g[i] = g_new
            next_p[i] = p_new
        g_pfx, p_pfx = next_g, next_p
        distance *= 2

    if cin is None:
        carries = [builder.const(False)] + g_pfx[:-1]
        cout = g_pfx[-1] if need_cout else None
    else:
        # c_i = G[0..i-1] | (P[0..i-1] & cin)
        carries = [cin]
        for i in range(width - 1):
            carries.append(
                builder.or2(g_pfx[i], builder.and2(p_pfx[i], cin))
            )
        cout = (
            builder.or2(g_pfx[-1], builder.and2(p_pfx[-1], cin))
            if need_cout
            else None
        )
    sums = _sum_from_carries(builder, p, carries)
    return sums, cout


def carry_select_adder(
    builder: NetlistBuilder,
    a: List[Net],
    b: List[Net],
    cin: Optional[Net] = None,
    block_size: int = 4,
    need_cout: bool = True,
) -> Tuple[List[Net], Optional[Net]]:
    """Carry-select adder with ripple blocks; returns (sum, carry out).

    Each *block_size*-bit block ripples twice (assumed carry-in 0 and 1);
    the true block carry selects between the two via a MUX chain.  This is
    the classic speed/area compromise a synthesis tool lands on for
    mid-size additions, and -- crucial to the DVAS methodology -- its
    critical path *shrinks with the active input width*: when the low
    blocks see constant (LSB-gated) inputs, their carries become constant
    and the select chain only starts at the first active block.
    """
    width = _check_widths(a, b)
    if block_size < 1:
        raise ValueError("block_size must be >= 1")

    sums: List[Net] = []
    carry = cin if cin is not None else builder.const(False)
    start = 0
    first = True
    while start < width:
        end = min(start + block_size, width)
        last_block = end == width
        skip_carry = last_block and not need_cout
        if first:
            # First block ripples once with the real carry-in.
            for i in range(start, end):
                if skip_carry and i == end - 1:
                    sums.append(builder.xor2(builder.xor2(a[i], b[i]), carry))
                    carry = None
                else:
                    s, carry = builder.full_adder(a[i], b[i], carry)
                    sums.append(s)
            first = False
        else:
            zero = builder.const(False)
            one = builder.const(True)
            carry0, carry1 = zero, one
            sums0: List[Net] = []
            sums1: List[Net] = []
            for i in range(start, end):
                if skip_carry and i == end - 1:
                    s0 = builder.xor2(builder.xor2(a[i], b[i]), carry0)
                    s1 = builder.xor2(builder.xor2(a[i], b[i]), carry1)
                    carry0 = carry1 = None
                else:
                    s0, carry0 = builder.full_adder(a[i], b[i], carry0)
                    s1, carry1 = builder.full_adder(a[i], b[i], carry1)
                sums0.append(s0)
                sums1.append(s1)
            for s0, s1 in zip(sums0, sums1):
                sums.append(builder.mux2(s0, s1, carry))
            carry = (
                builder.mux2(carry0, carry1, carry) if not skip_carry else None
            )
        start = end
    return sums, carry


def subtractor(
    builder: NetlistBuilder,
    a: List[Net],
    b: List[Net],
    adder=kogge_stone_adder,
    need_cout: bool = True,
) -> Tuple[List[Net], Optional[Net]]:
    """Two's-complement subtraction ``a - b``; returns (difference, carry out).

    Implemented as ``a + ~b + 1`` with the requested *adder* generator.
    """
    b_inverted = [builder.inv(bit) for bit in b]
    return adder(
        builder, a, b_inverted, cin=builder.const(True), need_cout=need_cout
    )


def sign_extend(word: List[Net], width: int) -> List[Net]:
    """Sign-extend *word* to *width* bits by replicating the MSB net.

    No gates are added: the MSB net simply fans out to the new positions,
    exactly like abutting the same wire in layout.
    """
    if width < len(word):
        raise ValueError(f"cannot extend width {len(word)} down to {width}")
    return list(word) + [word[-1]] * (width - len(word))
