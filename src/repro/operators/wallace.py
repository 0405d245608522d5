"""Wallace-tree (carry-save) column reduction."""

from __future__ import annotations

from typing import List, Tuple

from repro.netlist.builder import NetlistBuilder
from repro.netlist.net import Net

#: A bit matrix: columns[c] is the list of nets with weight 2**c.
BitColumns = List[List[Net]]


def wallace_reduce(
    builder: NetlistBuilder, columns: BitColumns
) -> Tuple[List[Net], List[Net]]:
    """Reduce a bit matrix to two rows with full/half adders.

    Classic Wallace scheme: at every stage, each column is grouped into
    triples (full adder: sum stays, carry moves one column up) and, if two
    bits remain, a pair (half adder).  Iterates until every column holds at
    most two bits, then returns the two addend rows (LSB first, padded with
    constant-0 nets so both have the full width).
    """
    width = len(columns)
    current = [list(col) for col in columns]
    while max((len(col) for col in current), default=0) > 2:
        nxt: BitColumns = [[] for _ in range(width)]
        for c, col in enumerate(current):
            # In the top column a carry would have weight 2**width, which
            # two's-complement arithmetic drops -- so its adders degenerate
            # to plain XOR (sum-only) gates, as synthesis would build them.
            top = c == width - 1
            i = 0
            while len(col) - i >= 3:
                if top:
                    s = builder.xor2(builder.xor2(col[i], col[i + 1]), col[i + 2])
                else:
                    s, co = builder.full_adder(col[i], col[i + 1], col[i + 2])
                    nxt[c + 1].append(co)
                nxt[c].append(s)
                i += 3
            remaining = len(col) - i
            if remaining == 2:
                if top:
                    s = builder.xor2(col[i], col[i + 1])
                else:
                    s, co = builder.half_adder(col[i], col[i + 1])
                    nxt[c + 1].append(co)
                nxt[c].append(s)
            elif remaining == 1:
                nxt[c].append(col[i])
        current = nxt

    zero = builder.const(False)
    row_a: List[Net] = []
    row_b: List[Net] = []
    for col in current:
        row_a.append(col[0] if len(col) >= 1 else zero)
        row_b.append(col[1] if len(col) >= 2 else zero)
    return row_a, row_b


def columns_from_rows(rows: List[Tuple[int, List[Net]]], width: int) -> BitColumns:
    """Build a bit matrix from weighted rows.

    *rows* is a list of ``(shift, bits)`` pairs: each bit ``bits[j]`` lands
    in column ``shift + j``.  Bits beyond *width* are discarded (modulo
    2**width arithmetic).
    """
    columns: BitColumns = [[] for _ in range(width)]
    for shift, bits in rows:
        for j, net in enumerate(bits):
            column = shift + j
            if 0 <= column < width:
                columns[column].append(net)
    return columns
