"""Independent arithmetic used to check ptensor's outputs.

Nothing here imports ptensor.  Every float64 is a dyadic rational, so a
tensor and a vector scaled by a common power of two become Python integers
and every sum and product below is exact.  The float contraction is a
plain einsum, written apart from ptensor's kernels.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np

EPS = float(np.finfo(float).eps)


def dyadic(values) -> tuple[np.ndarray, int]:
    """(ints, k) with values == ints / 2**k exactly; ints is an object array."""
    arr = np.asarray(values, dtype=float)
    ratios = [float(v).as_integer_ratio() for v in arr.reshape(-1)]
    k = max((q.bit_length() - 1 for _, q in ratios), default=0)
    ints = [p << (k - (q.bit_length() - 1)) for p, q in ratios]
    return np.array(ints, dtype=object).reshape(arr.shape), k


def exact_sum(values) -> Fraction:
    ints, k = dyadic(values)
    return Fraction(int(sum(ints.reshape(-1).tolist())), 1 << k)


def exact_contract(data: np.ndarray, x) -> list[Fraction]:
    """(A x^(m-1))_i for every i, in exact arithmetic."""
    A, ka = dyadic(data)
    X, kx = dyadic(x)
    out = A
    for _ in range(data.ndim - 1):
        out = out.dot(X)
    den = 1 << (ka + (data.ndim - 1) * kx)
    return [Fraction(int(v), den) for v in out]


def exact_terms(data: np.ndarray, w) -> list[Fraction]:
    """t_i(w) = w_i^(m-1) (A w^(m-1))_i for every i, in exact arithmetic."""
    m = data.ndim
    ax = exact_contract(data, w)
    return [Fraction(float(w[i])) ** (m - 1) * ax[i] for i in range(len(ax))]


def float_contract(data: np.ndarray, x) -> np.ndarray:
    """(A x^(m-1))_i in float64 by einsum."""
    m = data.ndim
    letters = "abcdefgh"[:m]
    spec = letters + "," + ",".join(letters[1:]) + "->a"
    x = np.asarray(x, dtype=float)
    return np.einsum(spec, data, *([x] * (m - 1)))


def contract_bound(data: np.ndarray, x) -> np.ndarray:
    """Rounding allowance for float_contract and any other summation order:
    a multiple of eps times (|A| |x|^(m-1))_i."""
    m, n = data.ndim, data.shape[0]
    mag = float_contract(np.abs(data), np.abs(np.asarray(x, dtype=float)))
    return 4.0 * (n ** (m - 1) + m) * EPS * mag


# ---------------------------------------------------------------------------
# row rules, re-evaluated exactly on the stored entries


def _row(data: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Row i of A flattened, split into its diagonal entry and the rest."""
    m, n = data.ndim, data.shape[0]
    row = data.reshape(n, -1)[i]
    pos = sum(i * n**k for k in range(m - 1))
    return row[pos], np.delete(row, pos)


def dd_row_ok(data: np.ndarray, i: int, strict: bool) -> bool:
    """|a_i..i| > (>=) the sum of the other absolute values in row i."""
    d, off = _row(data, i)
    margin = exact_sum(np.concatenate(([abs(d)], -np.abs(off))))
    return margin > 0 if strict else margin >= 0


def b_row_ok(data: np.ndarray, i: int, strict: bool) -> bool:
    """Row sum > 0 (>= 0) and row average > (>=) every off-position entry."""
    d, off = _row(data, i)
    total = exact_sum(np.concatenate(([d], off)))
    bound = Fraction(float(np.max(off))) * data.shape[0] ** (data.ndim - 1)
    if strict:
        return total > 0 and total > bound
    return total >= 0 and total >= bound


def _all_rows(row_ok, strict: bool):
    return lambda data: all(row_ok(data, i, strict) for i in range(data.shape[0]))


ROW_RULES = {
    "strict_diagonal_dominance_positive_diagonal": _all_rows(dd_row_ok, True),
    "diagonal_dominance_nonnegative_diagonal": _all_rows(dd_row_ok, False),
    "b_tensor_odd_order": _all_rows(b_row_ok, True),
    "b_tensor_symmetric_even_order": _all_rows(b_row_ok, True),
    "b0_tensor_odd_order": _all_rows(b_row_ok, False),
    "b0_tensor_symmetric_even_order": _all_rows(b_row_ok, False),
}


# ---------------------------------------------------------------------------
# m = 2: P-matrix by principal minors


def _int_det(M: list) -> int:
    """Bareiss fraction-free determinant of an integer matrix."""
    M = [row[:] for row in M]
    n = len(M)
    sign, prev = 1, 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for r in range(k + 1, n):
                if M[r][k] != 0:
                    M[k], M[r] = M[r], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def is_p_matrix(data: np.ndarray) -> bool:
    """Every principal minor positive, evaluated exactly."""
    ints, _ = dyadic(data)
    M = [[int(v) for v in row] for row in ints]
    n = len(M)
    for size in range(1, n + 1):
        for s in combinations(range(n), size):
            if _int_det([[M[i][j] for j in s] for i in s]) <= 0:
                return False
    return True
