"""Exact arithmetic on stored float64 entries.

Every finite float64 is a dyadic rational, so a tensor and a vector, each
scaled by one power of two, become Python integers, and every sum and
product below is exact.  The tensor is converted one block of at most
_BLOCK entries at a time, so no more than one block is ever held as Python
integers.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

_BLOCK = 2**16


def _exponent(values: np.ndarray) -> int:
    """k such that every entry of values times 2**k is an integer: 53 less
    the binary exponent of the smallest nonzero |entry|, found _BLOCK
    entries at a time."""
    flat = values.reshape(-1)
    least = min((np.abs(c[c != 0.0]).min(initial=np.inf)
                 for c in (flat[s:s + _BLOCK] for s in range(0, flat.size, _BLOCK))),
                default=np.inf)
    return 0 if least == np.inf else max(0, 53 - math.frexp(least)[1])


def _ints(values: np.ndarray, k: int) -> np.ndarray:
    """values * 2**k as an object array of Python integers, exactly, for k
    from _exponent (or larger)."""
    mant, exp = np.frexp(values.reshape(-1))
    shift = np.where(mant == 0.0, 0, exp + (k - 53))
    ints = [a << b for a, b in zip(np.ldexp(mant, 53).astype(np.int64).tolist(), shift.tolist())]
    return np.array(ints, dtype=object).reshape(values.shape)


def _contract(block: np.ndarray, k: int, W: np.ndarray) -> int:
    """The sum over all multi-indices j of block[j] * 2**k * W[j_1] ... W[j_q],
    q = block.ndim, exactly."""
    if block.size <= _BLOCK:
        out = _ints(block, k)
        for _ in range(block.ndim):
            out = out.dot(W)
        return int(out)
    return sum(int(wj) * _contract(block[j], k, W) for j, wj in enumerate(W))


def exact_terms(data: np.ndarray, w) -> list[Fraction]:
    """t_i(w) = w_i^(m-1) (A w^(m-1))_i for every i, in exact arithmetic."""
    m = data.ndim
    w = np.asarray(w, dtype=float)
    ka, kw = _exponent(data), _exponent(w)
    W = _ints(w, kw)
    den = 1 << (ka + 2 * (m - 1) * kw)
    return [Fraction(int(W[i]) ** (m - 1) * _contract(data[i], ka, W), den)
            for i in range(len(W))]
