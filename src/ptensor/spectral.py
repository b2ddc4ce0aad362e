"""H-eigenpair computation and verification.

Two tools live here:

* a bracketing power iteration for the spectral radius of an entrywise
  nonnegative tensor (the classical min/max-ratio iteration, made globally
  convergent by adding a small all-ones perturbation so the iterate stays
  strictly positive), and

* a residual-minimization search for general H-eigenpairs
  A x^{m-1} = lambda * x^{[m-1]}.  This is a heuristic multistart local
  search: it reports the pairs it finds and never claims completeness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .budget import DEDUP_RADIUS, SearchBudget
from .core import (
    Tensor,
    _contract,
    _tail_symmetric,
    as_vector,
    canonicalize_direction,
    contract_m1,
    hadamard_power,
)
from .errors import DegenerateInput, NotNonnegative


@dataclass
class EigenPair:
    """Candidate H-eigenpair: value, sup-norm-1 vector, sup-norm residual."""

    value: float
    vector: np.ndarray
    residual: float

    def to_json_dict(self) -> dict:
        return {
            "lambda": float(self.value),
            "x": [float(v) for v in self.vector],
            "residual": float(self.residual),
        }


@dataclass
class SpectralRadiusResult:
    """Outcome of the nonnegative-tensor spectral radius iteration.

    rho is reported for the unshifted tensor: the bracket midpoint of the
    perturbed iteration minus the perturbation bound shift * n^(m-1);
    uncertainty folds the final bracket width together with that bound.
    """

    rho: float
    perron_vector: np.ndarray
    iterations: int
    converged: bool
    uncertainty: float
    bracket: tuple
    bracket_history: list = field(default_factory=list, repr=False)


def nqz_spectral_radius(B: Tensor, max_iter: int = 20000) -> SpectralRadiusResult:
    """Spectral radius of a nonnegative tensor by bracketing power iteration.

    Iterates x <- (B' x^{m-1})^{[1/(m-1)]}, normalized, for the perturbed
    tensor B' = B + eps * J (J all ones).  The ratios
    (B'x^{m-1})_i / x_i^{m-1} give a monotone [min, max] bracket around
    rho(B'), and the iteration stops once its width is at most
    1e-11 * max(1, max ratio).  The perturbation is scaled relative to the
    largest entry of B (eps = 1e-8 * max|B|) so the result commutes exactly
    with positive rescaling of B.
    """
    if np.any(B.data < 0.0):
        raise NotNonnegative("spectral radius iteration requires a nonnegative tensor")
    m, n = B.order, B.dim
    max_entry = float(np.max(B.data))
    if max_entry == 0.0:
        return SpectralRadiusResult(
            rho=0.0,
            perron_vector=np.ones(n),
            iterations=0,
            converged=True,
            uncertainty=0.0,
            bracket=(0.0, 0.0),
        )

    eps = 1e-8 * max_entry
    shifted = B.data + eps  # + eps * (all-ones tensor)
    x = np.ones(n)
    lo = hi = 0.0
    history = []
    it = 0
    converged = False
    while it < max_iter:
        it += 1
        y = _contract(shifted, x, m - 1)
        ratios = y / x ** (m - 1)
        lo, hi = float(np.min(ratios)), float(np.max(ratios))
        history.append((lo, hi))
        if hi - lo <= 1e-11 * max(1.0, hi):
            converged = True
            break
        x = y ** (1.0 / (m - 1))
        x = x / np.max(x)

    correction = eps * n ** (m - 1)
    rho = max(0.0, 0.5 * (lo + hi) - correction)
    return SpectralRadiusResult(
        rho=rho,
        perron_vector=x / np.max(x),
        iterations=it,
        converged=converged,
        uncertainty=0.5 * (hi - lo) + correction,
        bracket=(lo, hi),
        bracket_history=history,
    )


# ---------------------------------------------------------------------------
# general H-eigenpairs by residual minimization


def eig_residual(A: Tensor, value: float, x) -> float:
    """Sup-norm of A x^{m-1} - value * x^{[m-1]}."""
    v = as_vector(x, dim=A.dim)
    return float(
        np.max(np.abs(contract_m1(A, v) - value * hadamard_power(v, A.order - 1)))
    )


def _fit(data: np.ndarray, x: np.ndarray):
    """(A x^{m-1}, x^{[m-1]}, lambda) at x, with lambda the least-squares
    eigenvalue for x (0 when x^{[m-1]} vanishes), from one contraction."""
    m = data.ndim
    ax = _contract(data, x, m - 1)
    xm = x ** (m - 1)
    denom = float(np.dot(xm, xm))
    return ax, xm, float(np.dot(ax, xm)) / denom if denom != 0.0 else 0.0


def _residual_objective(data: np.ndarray, B: np.ndarray, x: np.ndarray):
    """Squared residual at the unit vector x, with its gradient in x, given
    B = _tail_symmetric(A) for the Jacobian.

    The eigenvalue is eliminated by least squares, so its derivative
    drops out of the gradient (envelope argument).
    """
    m = data.ndim
    ax, xm, lam = _fit(data, x)
    g = ax - lam * xm
    grad_x = 2.0 * ((m - 1) * _contract(B, x, m - 2)).T.dot(g)
    grad_x -= 2.0 * lam * (m - 1) * x ** (m - 2) * g
    return float(np.dot(g, g)), grad_x


_LBFGS_MEMORY = 10  # correction pairs kept, as in scipy's L-BFGS-B
_LINE_SEARCH_TRIALS = 20  # objective evaluations per line search


def _sphere_minimize(f, z0: np.ndarray, maxiter: int, ftol: float,
                     gtol: float = 1e-5) -> np.ndarray:
    """Minimise f over the unit sphere by L-BFGS on z -> f(z/||z||_2);
    f(x) returns the value and the gradient at x.

    The direction comes from the two-loop recursion over the last
    _LBFGS_MEMORY steps.  The line search brackets and bisects for the
    weak Wolfe conditions in at most _LINE_SEARCH_TRIALS evaluations; a
    non-finite trial counts as too long a step, and when the cap is hit
    the last trial with sufficient decrease is taken.  With no such trial
    the memory is dropped and the step retried along -gradient, or, on
    that step, the search stops.  The other stops are scipy's L-BFGS-B
    rules: maxiter iterations, max|gradient| <= gtol, or a step lowering
    the value by at most ftol * max(|f_old|, |f_new|, 1).  A non-finite
    start returns z0 unchanged.  Returns the final z, which may be zero
    or non-finite.
    """

    def fun(z):
        nz = float(np.linalg.norm(z))
        if nz == 0.0:
            return np.inf, np.zeros_like(z)
        x = z / nz
        val, g = f(x)
        return val, (g - np.dot(g, x) * x) / nz

    z = np.array(z0, dtype=float)
    fz, g = fun(z)
    if not (np.isfinite(fz) and np.all(np.isfinite(g))):
        return z
    pairs = []  # (s, y, 1 / y.s), oldest first
    for _ in range(maxiter):
        if float(np.max(np.abs(g))) <= gtol:
            break
        d = -g
        alphas = []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * np.dot(s, d))
            d = d - alphas[-1] * y
        if pairs:
            s, y, rho = pairs[-1]
            d = d / (rho * np.dot(y, y))
        for (s, y, rho), a in zip(pairs, reversed(alphas)):
            d = d + (a - rho * np.dot(y, d)) * s
        slope = float(np.dot(g, d))
        t, lo, hi = (1.0 if pairs else 1.0 / float(np.linalg.norm(g))), 0.0, np.inf
        step = None  # the last trial with sufficient decrease
        for _ in range(_LINE_SEARCH_TRIALS if slope < 0.0 else 0):
            f_t, g_t = fun(z + t * d)
            if not (f_t <= fz + 1e-4 * t * slope and np.all(np.isfinite(g_t))):
                hi = t
            else:
                step = t, f_t, g_t
                if np.dot(g_t, d) >= 0.9 * slope:
                    break
                lo = t
            t = 0.5 * (lo + hi) if hi < np.inf else 2.0 * t
        if step is None:
            if not pairs:
                break
            pairs = []
            continue
        t, f_t, g_t = step
        s, y = t * d, g_t - g
        sy = float(np.dot(s, y))  # > 0 when the Wolfe curvature condition holds
        if sy > 0.0:
            pairs = (pairs + [(s, y, 1.0 / sy)])[-_LBFGS_MEMORY:]
        done = fz - f_t <= ftol * max(abs(fz), abs(f_t), 1.0)
        z, fz, g = z + s, f_t, g_t
        if done:
            break
    return z


def _newton_polish(data: np.ndarray, B: np.ndarray, x: np.ndarray):
    """Square-system Newton refinement from x and its least-squares
    eigenvalue, at most 12 steps, with the largest component pinned, given
    B = _tail_symmetric(A) for the Jacobian.
    Returns the (x, lambda) of smallest sup-norm residual; each step
    contracts once, at its new point."""
    m, n = data.ndim, x.size
    j = int(np.argmax(np.abs(x)))
    ax, xm, lam = _fit(data, x)
    g = ax - lam * xm
    best_x, best_lam = x.copy(), lam
    best_res = float(np.max(np.abs(g)))
    for _ in range(12):
        K = np.zeros((n + 1, n + 1))
        K[:n, :n] = (m - 1) * _contract(B, x, m - 2) - lam * (m - 1) * np.diag(x ** (m - 2))
        K[:n, n] = -xm
        K[n, j] = 1.0
        rhs = np.zeros(n + 1)
        rhs[:n] = -g
        try:
            delta = np.linalg.solve(K, rhs)
        except np.linalg.LinAlgError:
            break
        x = x + delta[:n]
        lam = lam + float(delta[n])
        xm = x ** (m - 1)
        g = _contract(data, x, m - 1) - lam * xm
        res = float(np.max(np.abs(g)))
        if res < best_res:
            best_x, best_lam, best_res = x.copy(), lam, res
        if res <= 1e-15 * max(1.0, abs(lam)):
            break
    return best_x, best_lam


def find_h_eigenpairs(A: Tensor, budget: SearchBudget | None = None) -> list:
    """Multistart search for H-eigenpairs with residual <= budget.tol.

    Starts are budget.sphere_starts(n): the coordinate directions, the
    uniform vector, and budget.starts seeded random points; start k draws
    from sub-seed seed ^ k and results merge in start order, so the output
    is deterministic.  An empty list means "none found", not "none exist".
    A start whose polished point or residual is not finite is dropped.
    """
    if budget is None:
        budget = SearchBudget()
    data, B = A.data, _tail_symmetric(A)
    found: list[EigenPair] = []
    for z0 in budget.sphere_starts(A.dim):
        z = _sphere_minimize(lambda x: _residual_objective(data, B, x), z0,
                            maxiter=budget.iters, ftol=1e-18, gtol=1e-14)
        if float(np.linalg.norm(z)) < 1e-12 or not np.all(np.isfinite(z)):
            continue
        x, lam = _newton_polish(data, B, z / np.linalg.norm(z))
        if float(np.max(np.abs(x))) < 1e-12 or not np.all(np.isfinite(x)):
            continue
        x = canonicalize_direction(x)
        ax, xm, lam = _fit(data, x)
        residual = float(np.max(np.abs(ax - lam * xm)))
        if not residual <= budget.tol:
            continue
        if any(np.max(np.abs(x - p.vector)) <= DEDUP_RADIUS for p in found):
            continue
        found.append(EigenPair(value=lam, vector=x, residual=residual))
    return found


def verify_eigenpair(A: Tensor, pair: EigenPair, tol: float) -> bool:
    """True iff the pair's residual passes a scale-aware check."""
    x = as_vector(pair.vector, dim=A.dim)
    if float(np.max(np.abs(x))) == 0.0:
        raise DegenerateInput("eigenvector must be nonzero")
    ax = contract_m1(A, x)
    lhs = float(np.max(np.abs(ax - pair.value * hadamard_power(x, A.order - 1))))
    return lhs <= tol * max(1.0, float(np.max(np.abs(ax))))
