"""Seed-deterministic generators for structured test tensors."""

from __future__ import annotations

import numpy as np

from .classes import Hypergraph, cp_tensor
from .core import Tensor, diagonal_index, symmetrize
from .spectral import nqz_spectral_radius


def reference_counterexample() -> Tensor:
    """The built-in worked example: a symmetric nonnegative 3rd-order,
    3-dimensional tensor whose entries are all nonnegative and whose found
    H-eigenvalues are all positive, yet the weak sign property fails at
    y = (0, 1, -1): the functional values there are -0.5 and -1 exactly.
    """
    data = np.zeros((3, 3, 3))

    def put(i, j, k, v):
        for p in {(i, j, k), (i, k, j), (j, i, k), (j, k, i), (k, i, j), (k, j, i)}:
            data[p] = v

    put(0, 0, 0, 100.0)
    put(1, 1, 1, 3.0)
    put(2, 2, 2, 1.0)
    put(0, 0, 1, 1.0)
    put(0, 0, 2, 1.0)
    put(0, 1, 1, 1.0)
    put(0, 2, 2, 1.0)
    put(1, 1, 2, 3.0)
    put(1, 2, 2, 2.5)
    put(0, 1, 2, 0.0)
    return Tensor(data, symmetric=True)


def random_tensor(m: int, n: int, seed: int, symmetric=False) -> Tensor:
    """Entries uniform in [-1, 1]; symmetrized when symmetric is set."""
    rng = np.random.default_rng(seed)
    data = rng.uniform(-1.0, 1.0, size=(n,) * m)
    t = Tensor(data)
    return symmetrize(t) if symmetric else t


def random_sdd_tensor(m: int, n: int, seed: int, margin_low=0.1, margin_high=1.0) -> Tensor:
    """Strictly diagonally dominant with positive diagonal: off-row entries
    uniform in [-1, 1], diagonal set to the off-row absolute sum plus a
    positive margin."""
    rng = np.random.default_rng(seed)
    data = rng.uniform(-1.0, 1.0, size=(n,) * m)
    diag_sel = diagonal_index(m, n)
    data[diag_sel] = 0.0
    rowsums = np.abs(data.reshape(n, -1)).sum(axis=1)
    data[diag_sel] = rowsums + rng.uniform(margin_low, margin_high, size=n)
    return Tensor(data)


def random_m_tensor(m: int, n: int, seed: int, margin: float = 1.0) -> Tensor:
    """s * I - B with B random nonnegative and s = rho(B) + margin.

    margin > 0 gives a certified nonsingular split; provenance records the
    construction but downstream certificate chains recompute it anyway."""
    rng = np.random.default_rng(seed)
    bdata = rng.uniform(0.0, 1.0, size=(n,) * m)
    rho = nqz_spectral_radius(Tensor(bdata)).rho
    s = rho + margin
    data = -bdata
    data[diagonal_index(m, n)] += s
    return Tensor(
        data,
        provenance={"generator": "mtensor", "s": float(s), "rho_b": float(rho),
                    "margin": float(margin)},
        provenance_trusted=True,
    )


def random_scp_tensor(m: int, n: int, seed: int) -> Tensor:
    """Strongly completely positive construction: the n scaled coordinate
    vectors (guaranteeing a spanning factor set) plus two random
    nonnegative factors."""
    rng = np.random.default_rng(seed)
    factors = [np.eye(n)[i] * rng.uniform(0.5, 1.5) for i in range(n)]
    for _ in range(2):
        factors.append(rng.uniform(0.0, 1.0, size=n))
    return cp_tensor(factors, m)


def random_cp_tensor(m: int, n: int, seed: int, r: int | None = None) -> Tensor:
    """Completely positive construction from r random nonnegative factors
    (not necessarily spanning)."""
    rng = np.random.default_rng(seed)
    r = r if r is not None else max(1, n - 1)
    factors = [rng.uniform(0.0, 1.0, size=n) for _ in range(r)]
    return cp_tensor(factors, m)


def random_cauchy_generating_vector(n: int, seed: int) -> np.ndarray:
    """Positive entries with pairwise distinct values."""
    rng = np.random.default_rng(seed)
    while True:
        u = rng.uniform(0.2, 3.0, size=n)
        if np.unique(u).size == n:
            return u


def random_hypergraph(n: int, m: int, n_edges: int, seed: int) -> Hypergraph:
    rng = np.random.default_rng(seed)
    from itertools import combinations

    all_edges = list(combinations(range(n), m))
    if n_edges > len(all_edges):
        n_edges = len(all_edges)
    chosen = rng.choice(len(all_edges), size=n_edges, replace=False)
    return Hypergraph(n, [all_edges[i] for i in sorted(chosen)], arity=m)
