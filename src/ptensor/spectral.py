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

from dataclasses import dataclass

import numpy as np

from .budget import DEDUP_RADIUS, SearchBudget
from .core import (
    Tensor,
    _contract,
    _contract_batch,
    _matvec_batch,
    _rowdot,
    _solve_rows,
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


def nqz_spectral_radius(B: Tensor, max_iter: int = 20000) -> SpectralRadiusResult:
    """Spectral radius of a nonnegative tensor by bracketing power iteration.

    Iterates x <- (B' x^{m-1})^{[1/(m-1)]}, normalized, for the perturbed
    tensor B' = B + eps * J (J all ones).  The ratios
    (B'x^{m-1})_i / x_i^{m-1} give a monotone [min, max] bracket around
    rho(B'), and the iteration stops once its width is at most
    1e-11 * max(1, max ratio); it stops unconverged at the first bracket
    that is not finite.  The perturbation is scaled relative to the
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
    it = 0
    converged = False
    while it < max_iter:
        it += 1
        with np.errstate(over="ignore", invalid="ignore"):  # ends the run at the test below
            y = _contract(shifted, x, m - 1)
            ratios = y / x ** (m - 1)
        lo, hi = float(np.min(ratios)), float(np.max(ratios))
        if not np.isfinite(hi - lo):
            break  # overflowed: every later ratio is nan
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
    )


# ---------------------------------------------------------------------------
# general H-eigenpairs by residual minimization


def eig_residual(A: Tensor, value: float, x) -> float:
    """Sup-norm of A x^{m-1} - value * x^{[m-1]}."""
    v = as_vector(x, dim=A.dim)
    return float(
        np.max(np.abs(contract_m1(A, v) - value * hadamard_power(v, A.order - 1)))
    )


def _fit(data: np.ndarray, X: np.ndarray):
    """(A x^{m-1}, x^{[m-1]}, lambda) at every row x of X, with lambda the
    least-squares eigenvalue for x (0 when x^{[m-1]} vanishes), from one
    contraction per row."""
    m = data.ndim
    ax = _contract_batch(data, X, m - 1)
    xm = X ** (m - 1)
    denom = _rowdot(xm, xm)
    lam = np.divide(_rowdot(ax, xm), denom, out=np.zeros(len(X)), where=denom != 0.0)
    return ax, xm, lam


def _residual_objective(data: np.ndarray, B: np.ndarray, X: np.ndarray):
    """Squared residual at every unit row x of X, with its gradient in x,
    given B = _tail_symmetric(A) for the Jacobian J = (m-1) * (B x^{m-2}).

    The eigenvalue is eliminated by least squares, so its derivative
    drops out of the gradient (envelope argument).
    """
    m = data.ndim
    ax, xm, lam = _fit(data, X)
    g = ax - lam[:, None] * xm
    J = (m - 1) * _contract_batch(B, X, m - 2)
    grad = 2.0 * _matvec_batch(J.transpose(0, 2, 1), g)
    grad -= (2.0 * lam * (m - 1))[:, None] * X ** (m - 2) * g
    return _rowdot(g, g), grad


_LBFGS_MEMORY = 10  # correction pairs kept, as in scipy's L-BFGS-B
_LINE_SEARCH_TRIALS = 20  # objective evaluations per line search


def _on_sphere(F, Z: np.ndarray):
    """The value of z -> f(z/||z||_2) and its gradient in z at every row z
    of Z, from one call F(X) on the nonzero rows; inf and a zero gradient at
    z = 0."""
    nz = np.sqrt(_rowdot(Z, Z))
    val, grad = np.full(len(Z), np.inf), np.zeros(Z.shape)
    k = np.flatnonzero(nz != 0.0)
    if k.size:
        X = Z[k] / nz[k, None]
        v, g = F(X)
        val[k] = v
        grad[k] = (g - _rowdot(g, X)[:, None] * X) / nz[k, None]
    return val, grad


def _two_loop(G, S, Y, rho, count):
    """The L-BFGS direction for every row: the two-loop recursion from -g
    over the row's stored pairs (s, y, rho = 1 / y.s), oldest first, right-
    aligned so that slot _LBFGS_MEMORY - 1 is the newest.  An empty slot
    holds s = -0.0, y = 0 and rho = 0: it changes d by d - 0 in the first
    loop and by d + (-0.0) in the second, which leave every entry as it is,
    the sign of a zero too, so each row gets the recursion over its own
    pairs alone, bit for bit."""
    d = -G
    first = _LBFGS_MEMORY - int(count.max(initial=0))
    alphas = {}
    for j in range(_LBFGS_MEMORY - 1, first - 1, -1):
        alphas[j] = rho[:, j] * _rowdot(S[:, j], d)
        d = d - alphas[j][:, None] * Y[:, j]
    y = Y[:, -1]
    d = d / np.where(count > 0, rho[:, -1] * _rowdot(y, y), 1.0)[:, None]
    for j in range(first, _LBFGS_MEMORY):
        d = d + (alphas[j] - rho[:, j] * _rowdot(Y[:, j], d))[:, None] * S[:, j]
    return d


def _sphere_minimize(F, Z0: np.ndarray, maxiter: int, ftol: float,
                     gtol: float = 1e-5) -> np.ndarray:
    """Minimise f over the unit sphere from every row of Z0, all starts in
    lockstep, by L-BFGS on z -> f(z/||z||_2); F(X) returns f and its
    gradient at every row x of X, shapes (p,) and (p, n).

    The direction comes from the two-loop recursion over the last
    _LBFGS_MEMORY steps.  The line search brackets and bisects for the
    weak Wolfe conditions in at most _LINE_SEARCH_TRIALS evaluations; a
    non-finite trial counts as too long a step, and when the cap is hit
    the last trial with sufficient decrease is taken.  With no such trial
    the memory is dropped and the step retried along -gradient, or, on
    that step, the search stops.  The other stops are scipy's L-BFGS-B
    rules: maxiter iterations, max|gradient| <= gtol, or a step lowering
    the value by at most ftol * max(|f_old|, |f_new|, 1).  A non-finite
    start returns its row unchanged.  Returns the final z of every start,
    which may be zero or non-finite.

    Each round calls F once, on one point of every start still running:
    its first point, or its next line-search trial.  Row p of the result
    is the end point of the walk from Z0[p] alone, bit for bit: every
    start keeps its own memory, step and bracket, the row dots are
    np.dot's ddot (_rowdot), and the memory's empty slots add nothing
    (_two_loop).
    """
    # overflow to inf and inf - inf are part of the iteration, as in scalar
    # float arithmetic
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        Z = np.array(Z0, dtype=float)
        p, n = Z.shape
        fz, G = _on_sphere(F, Z)
        S = np.full((p, _LBFGS_MEMORY, n), -0.0)
        Y, rho = np.zeros((p, _LBFGS_MEMORY, n)), np.zeros((p, _LBFGS_MEMORY))
        count, its, trials = (np.zeros(p, dtype=int) for _ in range(3))
        slope, t, lo, hi, step_t, step_f = (np.zeros(p) for _ in range(6))
        D, step_g, found = np.zeros((p, n)), np.zeros((p, n)), np.zeros(p, dtype=bool)
        turn = np.flatnonzero(np.isfinite(fz) & np.isfinite(G).all(axis=1))
        search = turn[:0]

        def no_step(k):
            """The rows of k whose line search found no step: those with
            memory drop it and turn again; the others stop."""
            k = k[count[k] > 0]
            S[k], Y[k], rho[k], count[k] = -0.0, 0.0, 0.0, 0
            return k

        while True:
            while turn.size:  # start an iteration: at most twice per round
                k = turn[(its[turn] < maxiter) & (np.max(np.abs(G[turn]), axis=1) > gtol)]
                its[k] += 1
                D[k] = _two_loop(G[k], S[k], Y[k], rho[k], count[k])
                slope[k] = _rowdot(G[k], D[k])
                t[k] = np.where(count[k] > 0, 1.0, 1.0 / np.sqrt(_rowdot(G[k], G[k])))
                lo[k], hi[k], trials[k], found[k] = 0.0, np.inf, 0, False
                descent = slope[k] < 0.0
                search = np.concatenate([search, k[descent]])
                turn = no_step(k[~descent])
            if not search.size:
                return Z

            k = search
            f_t, g_t = _on_sphere(F, Z[k] + t[k, None] * D[k])
            ok = (f_t <= fz[k] + 1e-4 * t[k] * slope[k]) & np.isfinite(g_t).all(axis=1)
            kk = k[ok]
            step_t[kk], step_f[kk], step_g[kk], found[kk] = t[kk], f_t[ok], g_t[ok], True
            wolfe = np.zeros(len(k), dtype=bool)
            wolfe[ok] = _rowdot(g_t[ok], D[kk]) >= 0.9 * slope[kk]
            hi[k[~ok]] = t[k[~ok]]
            lo[k[ok & ~wolfe]] = t[k[ok & ~wolfe]]
            trials[k] += 1
            ended = wolfe | (trials[k] >= _LINE_SEARCH_TRIALS)
            search = k[~ended]
            t[search] = np.where(hi[search] < np.inf, 0.5 * (lo[search] + hi[search]),
                                 2.0 * t[search])

            k = k[ended]
            turn, k = no_step(k[~found[k]]), k[found[k]]
            s = step_t[k, None] * D[k]
            y = step_g[k] - G[k]
            sy = _rowdot(s, y)  # > 0 when the Wolfe curvature condition holds
            kp = k[sy > 0.0]
            for mem, new in ((S, s[sy > 0.0]), (Y, y[sy > 0.0]), (rho, 1.0 / sy[sy > 0.0])):
                mem[kp, :-1] = mem[kp, 1:]
                mem[kp, -1] = new
            count[kp] = np.minimum(count[kp] + 1, _LBFGS_MEMORY)
            done = fz[k] - step_f[k] <= ftol * np.maximum(
                np.maximum(np.abs(fz[k]), np.abs(step_f[k])), 1.0)
            Z[k], fz[k], G[k] = Z[k] + s, step_f[k], step_g[k]
            turn = np.concatenate([turn, k[~done]])


def _newton_polish(data: np.ndarray, B: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Square-system Newton refinement from every row x of X and its
    least-squares eigenvalue, all rows in lockstep, at most 12 steps, with
    the largest component pinned, given B = _tail_symmetric(A) for the
    Jacobian.  Returns per row the x of smallest sup-norm residual; each
    step contracts once, at its new point, and solves all rows' systems in
    one stacked solve (_solve_rows).  A row stops at a singular system or
    once its residual is at most 1e-15 * max(1, |lambda|)."""
    m, (p, n) = data.ndim, X.shape
    j = np.argmax(np.abs(X), axis=1)
    ax, xm, lam = _fit(data, X)
    g = ax - lam[:, None] * xm
    best_x, best_res = X.copy(), np.max(np.abs(g), axis=1)
    live, diag = np.arange(p), np.arange(n)
    for _ in range(12):
        if not live.size:
            break
        x, q = X[live], len(live)
        P = np.zeros((q, n, n))
        P[:, diag, diag] = x ** (m - 2)
        K = np.zeros((q, n + 1, n + 1))
        K[:, :n, :n] = ((m - 1) * _contract_batch(B, x, m - 2)
                        - (lam[live] * (m - 1))[:, None, None] * P)
        K[:, :n, n] = -xm[live]
        K[np.arange(q), n, j[live]] = 1.0
        rhs = np.zeros((q, n + 1))
        rhs[:, :n] = -g[live]
        delta, solved = _solve_rows(K, rhs)
        live, delta = live[solved], delta[solved]
        X[live] = X[live] + delta[:, :n]
        lam[live] = lam[live] + delta[:, n]
        xm[live] = X[live] ** (m - 1)
        g[live] = _contract_batch(data, X[live], m - 1) - lam[live, None] * xm[live]
        res = np.max(np.abs(g[live]), axis=1)
        better = res < best_res[live]
        k = live[better]
        best_x[k], best_res[k] = X[k], res[better]
        live = live[~(res <= 1e-15 * np.fmax(1.0, np.abs(lam[live])))]
    return best_x


def find_h_eigenpairs(A: Tensor, budget: SearchBudget = SearchBudget()) -> list:
    """Multistart search for H-eigenpairs with residual <= budget.tol.

    Starts are budget.sphere_starts(n): the coordinate directions, the
    uniform vector, and budget.starts seeded random points; start k draws
    from sub-seed seed ^ k.  The minimiser and the Newton polish run all
    starts in lockstep, and the results merge in start order, so the
    output is deterministic.  An empty list means "none found", not "none
    exist".  A start whose polished point or residual is not finite is
    dropped.
    """
    data, B = A.data, _tail_symmetric(A)
    Z = _sphere_minimize(lambda X: _residual_objective(data, B, X),
                         np.array(budget.sphere_starts(A.dim)),
                         maxiter=budget.iters, ftol=1e-18, gtol=1e-14)
    nz = np.sqrt(_rowdot(Z, Z))
    keep = (nz >= 1e-12) & np.isfinite(Z).all(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):  # a start that overflows finds no pair
        polished = _newton_polish(data, B, Z[keep] / nz[keep, None])
        X = np.array([canonicalize_direction(x) for x in polished
                      if float(np.max(np.abs(x))) >= 1e-12 and np.all(np.isfinite(x))])
        if not len(X):
            return []
        ax, xm, lams = _fit(data, X)
        residuals = np.max(np.abs(ax - lams[:, None] * xm), axis=1)
    found: list[EigenPair] = []
    for x, lam, residual in zip(X, lams, residuals):
        if not residual <= budget.tol:
            continue
        if any(np.max(np.abs(x - p.vector)) <= DEDUP_RADIUS for p in found):
            continue
        found.append(EigenPair(value=float(lam), vector=x, residual=float(residual)))
    return found


def verify_eigenpair(A: Tensor, pair: EigenPair, tol: float) -> bool:
    """True iff the pair's residual passes a scale-aware check."""
    x = as_vector(pair.vector, dim=A.dim)
    if float(np.max(np.abs(x))) == 0.0:
        raise DegenerateInput("eigenvector must be nonzero")
    ax = contract_m1(A, x)
    lhs = float(np.max(np.abs(ax - pair.value * hadamard_power(x, A.order - 1))))
    return lhs <= tol * max(1.0, float(np.max(np.abs(ax))))
