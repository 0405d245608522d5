"""Bit-exact numpy reference models for the operator generators.

Every netlist generator in :mod:`repro.operators` has a golden model here
with identical arithmetic semantics (word widths, truncation points,
cycle timing), so functional tests can compare integer-for-integer.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.operators.fir import FirParameters


def _wrap_signed(values: np.ndarray, width: int) -> np.ndarray:
    """Reduce integers into the signed two's-complement range of *width* bits."""
    modulus = 1 << width
    wrapped = np.mod(np.asarray(values, dtype=np.int64), modulus)
    sign = 1 << (width - 1)
    return np.where(wrapped >= sign, wrapped - modulus, wrapped)


def multiply_reference(a: np.ndarray, b: np.ndarray, width: int) -> np.ndarray:
    """Signed product of two *width*-bit words (exact, 2*width bits)."""
    a = _wrap_signed(a, width)
    b = _wrap_signed(b, width)
    return _wrap_signed(a * b, 2 * width)


def butterfly_reference(
    ar: np.ndarray, ai: np.ndarray,
    br: np.ndarray, bi: np.ndarray,
    wr: np.ndarray, wi: np.ndarray,
    width: int = 16,
) -> Dict[str, np.ndarray]:
    """Reference for :func:`repro.operators.butterfly.fft_butterfly`.

    Mirrors the netlist's exact arithmetic: 17-bit pre-add/sub, 33-bit
    products and product combination (modulo 2**33), arithmetic right shift
    by width-1, 16-bit wrap-around output adds.
    """
    ar, ai = _wrap_signed(ar, width), _wrap_signed(ai, width)
    br, bi = _wrap_signed(br, width), _wrap_signed(bi, width)
    wr, wi = _wrap_signed(wr, width), _wrap_signed(wi, width)
    pre_width = width + 1
    prod_width = pre_width + width

    s1 = _wrap_signed(br + bi, pre_width)
    d1 = _wrap_signed(wi - wr, pre_width)
    s2 = _wrap_signed(wi + wr, pre_width)
    k1 = _wrap_signed(s1 * wr, prod_width)
    k2 = _wrap_signed(d1 * br, prod_width)
    k3 = _wrap_signed(s2 * bi, prod_width)

    real_full = _wrap_signed(k1 - k3, prod_width)
    imag_full = _wrap_signed(k1 + k2, prod_width)
    shift = width - 1
    # The netlist takes product bits [shift, shift+width); on the signed
    # full word that is an arithmetic shift followed by a 16-bit wrap.
    wb_r = _wrap_signed(real_full >> shift, width)
    wb_i = _wrap_signed(imag_full >> shift, width)

    return {
        "XR": _wrap_signed(ar + wb_r, width),
        "XI": _wrap_signed(ai + wb_i, width),
        "YR": _wrap_signed(ar - wb_r, width),
        "YI": _wrap_signed(ai - wb_i, width),
    }


def cordic_reference(
    x: np.ndarray,
    y: np.ndarray,
    z: np.ndarray,
    width: int = 16,
    iterations: int = 12,
) -> Dict[str, np.ndarray]:
    """Reference for :func:`repro.operators.cordic.cordic_rotator`.

    Mirrors the netlist bit-exactly: per-iteration arithmetic right
    shifts, add/sub selected by the current sign of z, everything modulo
    2**width.
    """
    from repro.operators.cordic import cordic_angle_lsbs

    x = _wrap_signed(x, width).astype(np.int64)
    y = _wrap_signed(y, width).astype(np.int64)
    z = _wrap_signed(z, width).astype(np.int64)
    for i, angle in enumerate(cordic_angle_lsbs(iterations, width)):
        positive = z >= 0
        x_shift = x >> i  # numpy >> on int64 is arithmetic
        y_shift = y >> i
        x_next = np.where(positive, x - y_shift, x + y_shift)
        y_next = np.where(positive, y + x_shift, y - x_shift)
        z_next = np.where(positive, z - angle, z + angle)
        x = _wrap_signed(x_next, width)
        y = _wrap_signed(y_next, width)
        z = _wrap_signed(z_next, width)
    return {"XO": x, "YO": y, "ZO": z}


def fir_reference(
    x_per_cycle: Sequence[np.ndarray],
    c_per_cycle: Sequence[np.ndarray],
    params: FirParameters = FirParameters(),
) -> List[Dict[str, np.ndarray]]:
    """Cycle-accurate reference for :func:`repro.operators.fir.fir_filter`.

    Takes the per-cycle values of the ``X`` and ``C`` input ports and
    returns, per cycle, the ``Y`` (accumulator) and ``TAP`` (counter)
    values as sampled by the netlist simulator -- i.e. the combinational
    view *before* the cycle's clock edge.
    """
    cycles = len(x_per_cycle)
    if cycles != len(c_per_cycle):
        raise ValueError("X and C stimulus must cover the same cycles")
    batch = len(np.asarray(x_per_cycle[0]))
    width, taps, acc_width = params.width, params.taps, params.accumulator_width

    count = 0
    delay = [np.zeros(batch, dtype=np.int64) for _ in range(taps)]
    acc = np.zeros(batch, dtype=np.int64)
    c_reg = np.zeros(batch, dtype=np.int64)
    results: List[Dict[str, np.ndarray]] = []

    for cycle in range(cycles):
        x_now = _wrap_signed(np.asarray(x_per_cycle[cycle]), width)
        c_now = _wrap_signed(np.asarray(c_per_cycle[cycle]), width)

        # Combinational view during this cycle (state from previous edge).
        results.append({"Y": acc.copy(), "TAP": np.full(batch, count)})

        # Clock edge: the netlist's next-state functions.
        wrap = count == taps - 1
        first = count == 0
        tap_word = delay[count]
        product = _wrap_signed(tap_word * c_reg, acc_width)
        base = np.zeros(batch, dtype=np.int64) if first else acc
        acc = _wrap_signed(base + product, acc_width)
        if wrap:
            delay = [x_now] + delay[:-1]
            count = 0
        else:
            count += 1
        c_reg = c_now
    return results
