"""Deterministic search budgets.

Every randomized search in the package derives its randomness from a
SearchBudget: start number k always uses the sub-seed ``seed ^ k`` and
results are merged in start order, so outcomes do not depend on how the
starts are scheduled.
"""

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9
DEFAULT_TAU_REL = 1e-7
# Sup-norm radius within which two points found by a multistart search count
# as the same point (H-eigenvectors, complementarity solutions).
DEDUP_RADIUS = 1e-6


def check_tau_rel(tau_rel: float) -> None:
    """ValueError unless tau_rel lies in [0, 1): at 1 or more no component
    is in the support, and NaN compares false with every threshold."""
    if not 0.0 <= tau_rel < 1.0:
        raise ValueError("tau_rel must lie in [0, 1)")


@dataclass(frozen=True)
class SearchBudget:
    """Configuration for the randomized certify/refute/solve searches.

    seed        base RNG seed (start k uses seed ^ k)
    starts      number of randomized starts, >= 1
    iters       iteration cap per local search
    grid_depth  subdivision depth for simplex grids
    tol         acceptance / refutation tolerance, finite and > 0
    tau_rel     relative support threshold for the weak sign functional,
                in [0, 1) (at 1 or more no component is in the support)
    """

    seed: int = 0
    starts: int = 16
    iters: int = 200
    grid_depth: int = 20
    tol: float = DEFAULT_TOL
    tau_rel: float = DEFAULT_TAU_REL

    def __post_init__(self):
        if self.starts < 1:
            raise ValueError("starts must be >= 1")
        if self.iters < 1:
            raise ValueError("iters must be >= 1")
        if self.grid_depth < 1:
            raise ValueError("grid_depth must be >= 1")
        if not 0.0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        check_tau_rel(self.tau_rel)
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")

    def subseed(self, k: int) -> int:
        return int(self.seed) ^ int(k)

    def start_rng(self, k: int) -> np.random.Generator:
        """RNG for start number k (deterministic, scheduling independent)."""
        return np.random.default_rng(self.subseed(k))

    def sphere_starts(self, n: int) -> list:
        """Unit-sphere starts in R^n: the coordinate directions, the
        normalized all-ones vector, then for k < starts the standard-normal
        draw of start k, normalized (a draw of norm <= 1e-12 is dropped)."""
        out = [np.eye(n)[i] for i in range(n)]
        out.append(np.ones(n) / np.sqrt(n))
        for k in range(self.starts):
            z = self.start_rng(k).standard_normal(n)
            nz = float(np.linalg.norm(z))
            if nz > 1e-12:
                out.append(z / nz)
        return out

    def to_json_dict(self) -> dict:
        return {
            "seed": int(self.seed),
            "starts": int(self.starts),
            "iters": int(self.iters),
            "grid_depth": int(self.grid_depth),
            "tol": float(self.tol),
            "tau_rel": float(self.tau_rel),
        }
