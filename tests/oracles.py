"""Independent brute-force oracles.

Everything here deliberately avoids the library's own kernels: contractions
are plain Python loops, matrix eigenvalues come from determinant
interpolation, the complementarity oracle is a dense grid scan.  These are
the reference implementations the fast paths are checked against.
"""

import itertools

import numpy as np


def brute_contract_m1(data: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Loop-based (m-1)-fold contraction."""
    m = data.ndim
    n = data.shape[0]
    out = np.zeros(n)
    for idx in itertools.product(range(n), repeat=m):
        prod = data[idx]
        for k in idx[1:]:
            prod *= x[k]
        out[idx[0]] += prod
    return out


def brute_contract_full(data: np.ndarray, x: np.ndarray) -> float:
    v = brute_contract_m1(data, x)
    return float(sum(x[i] * v[i] for i in range(len(x))))


def principal_minors_all_positive(M: np.ndarray, tol: float = 0.0) -> bool:
    """P-matrix test by enumerating every principal submatrix determinant."""
    n = M.shape[0]
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            sub = M[np.ix_(subset, subset)]
            if np.linalg.det(sub) <= tol:
                return False
    return True


def min_principal_minor(M: np.ndarray) -> float:
    n = M.shape[0]
    best = np.inf
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            best = min(best, float(np.linalg.det(M[np.ix_(subset, subset)])))
    return best


def char_poly_coefficients(M: np.ndarray) -> np.ndarray:
    """Coefficients of det(M - t I) by determinant evaluation at n+1 nodes
    and an exact Vandermonde solve (no eigenvalue routine involved)."""
    n = M.shape[0]
    nodes = np.arange(n + 1, dtype=float)
    vals = np.array([np.linalg.det(M - t * np.eye(n)) for t in nodes])
    V = np.vander(nodes, n + 1, increasing=False)
    return np.linalg.solve(V, vals)


def char_poly_real_roots(M: np.ndarray, imag_tol: float = 1e-8) -> np.ndarray:
    roots = np.roots(char_poly_coefficients(M))
    real = roots[np.abs(roots.imag) <= imag_tol * (1.0 + np.abs(roots))].real
    return np.sort(real)


def psd_by_char_poly(M: np.ndarray, tol: float = 1e-9) -> bool:
    """Symmetric PSD test: every characteristic root is >= -tol."""
    sym = 0.5 * (M + M.T)
    roots = np.roots(char_poly_coefficients(sym))
    return bool(np.all(roots.real >= -tol))


def power_bracket_longrun(
    data: np.ndarray, shift: float = 1e-12, max_iter: int = 1_000_000, tol: float = 1e-9
):
    """Independent long-run bracketing power iteration at a tiny shift.

    Returns (lo, hi) for the shifted tensor; the unshifted radius lies in
    [lo - shift * n^(m-1), hi].
    """
    m = data.ndim
    n = data.shape[0]
    shifted = data + shift
    x = np.ones(n)
    lo = hi = 0.0
    for _ in range(max_iter):
        y = shifted
        for _ in range(m - 1):
            y = y.dot(x)
        ratios = y / x ** (m - 1)
        lo, hi = float(ratios.min()), float(ratios.max())
        if hi - lo <= tol * max(1.0, hi):
            break
        x = y ** (1.0 / (m - 1))
        x /= x.max()
    return lo, hi


def tcp_grid_argmin(data: np.ndarray, q: np.ndarray, lo=0.0, hi=2.0, step=1e-3):
    """Dense grid scan (n = 2 only) minimizing the natural residual
    ||min(x, A x^{m-1} + q)||_inf over [lo, hi]^2; the first minimum in
    row-major grid order wins.

    F_i is a homogeneous polynomial of degree m-1 in (x_0, x_1): its
    coefficient of x_0^k x_1^(m-1-k) is the sum of a_{i j2..jm} over the
    index tuples (j2..jm) with k zeros.  So F_i on the whole grid is one
    product of two tick-power tables."""
    assert data.shape[0] == 2
    m = data.ndim
    ticks = np.arange(lo, hi + step / 2, step)
    zeros = (np.indices(data.shape[1:]) == 0).sum(axis=0).ravel()
    k = np.arange(m)
    x0_powers, x1_powers = ticks[:, None] ** k, ticks[:, None] ** (m - 1 - k)
    res = np.zeros((ticks.size, ticks.size))
    for i, x_i in enumerate((ticks[:, None], ticks[None, :])):
        coef = np.bincount(zeros, weights=data[i].ravel(), minlength=m)
        F = (x0_powers * coef) @ x1_powers.T + q[i]
        res = np.maximum(res, np.abs(np.minimum(x_i, F)))
    a, b = np.unravel_index(int(np.argmin(res)), res.shape)
    return np.array([ticks[a], ticks[b]]), float(res[a, b])


def simplex_min_bruteforce(data: np.ndarray, depth: int) -> float:
    """Minimum of the degree-m form over the rational simplex grid, with the
    form evaluated by the loop-based contraction."""
    n = data.shape[0]
    best = np.inf
    for comp in _compositions(depth, n):
        x = np.array(comp, dtype=float) / depth
        best = min(best, brute_contract_full(data, x))
    return float(best)


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head, *rest)


def tcp_solve_from_reference(inst, x0, budget, analytic):
    """The damped Gauss-Newton loop as first written: every F evaluation goes
    through the public, validating ``tcp_F`` and every Jacobian through
    ``jacobian_F``.  ``tcp._solve_from`` must reproduce it bit for bit.

    Returns (solution or None, iterations used, best (merit, natres, x))."""
    from ptensor.tcp import TcpSolution, jacobian_F, tcp_F

    def fb_vector(x, f):
        return np.sqrt(x * x + f * f) - x - f

    def fb_partials(x, f):
        norm = np.sqrt(x * x + f * f)
        origin = -1.0 + 1.0 / np.sqrt(2.0)
        da = np.where(norm > 0.0, np.divide(x, norm, out=np.zeros_like(x), where=norm > 0.0) - 1.0,
                      origin)
        db = np.where(norm > 0.0, np.divide(f, norm, out=np.zeros_like(f), where=norm > 0.0) - 1.0,
                      origin)
        return da, db

    def acceptable(x, tol):
        f = tcp_F(inst, x)
        nat = float(np.max(np.abs(np.minimum(x, f))))
        feas = (float(np.min(x)), float(np.min(f)))
        gap = abs(float(np.dot(x, f)))
        ok = (
            nat <= tol
            and feas[0] >= -tol
            and feas[1] >= -tol
            and gap <= tol * (1.0 + float(np.linalg.norm(x)) * float(np.linalg.norm(f)))
        )
        return ok, nat, feas, gap

    x = x0.astype(float).copy()
    mu = 1e-8
    best = (np.inf, np.inf, x.copy())
    method = "fb_gauss_newton_" + ("analytic" if analytic else "fd")
    stall = 0
    it = 0
    while it < budget.iters:
        it += 1
        f = tcp_F(inst, x)
        r = fb_vector(x, f)
        merit = 0.5 * float(np.dot(r, r))
        nat = float(np.max(np.abs(np.minimum(x, f))))
        if (merit, nat) < best[:2]:
            best = (merit, nat, x.copy())
        ok, nat, feas, gap = acceptable(x, budget.tol)
        if ok:
            return (
                TcpSolution(
                    x=x.copy(),
                    natural_residual=nat,
                    feasibility=feas,
                    complementarity_gap=gap,
                    iterations=it,
                    method=method,
                    merit=merit,
                ),
                it,
                best,
            )
        da, db = fb_partials(x, f)
        J = jacobian_F(inst, x, analytic=analytic)
        Jpsi = np.diag(da) + db[:, None] * J
        grad = Jpsi.T.dot(r)
        H = Jpsi.T.dot(Jpsi)
        H[np.diag_indices_from(H)] += mu * (1.0 + float(np.trace(H)) / H.shape[0])
        try:
            d = np.linalg.solve(H, -grad)
        except np.linalg.LinAlgError:
            mu = max(mu * 100.0, 1e-6)
            continue
        slope = float(np.dot(grad, d))
        if slope >= 0.0:
            mu = max(mu * 100.0, 1e-6)
            continue
        t = 1.0
        accepted = False
        while t >= 1e-13:
            xn = x + t * d
            fn = tcp_F(inst, xn)
            rn = fb_vector(xn, fn)
            mn = 0.5 * float(np.dot(rn, rn))
            if mn <= merit + 1e-4 * t * slope:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            mu = max(mu * 10.0, 1e-8)
            stall += 1
            if stall >= 5:
                break
            continue
        if merit - mn <= 1e-18 * max(1.0, merit):
            stall += 1
            if stall >= 5:
                x = xn
                break
        else:
            stall = 0
        x = xn
        mu = max(mu * 0.3, 1e-12)
    ok, nat, feas, gap = acceptable(x, budget.tol)
    if ok:
        f = tcp_F(inst, x)
        r = fb_vector(x, f)
        return (
            TcpSolution(
                x=x.copy(),
                natural_residual=nat,
                feasibility=feas,
                complementarity_gap=gap,
                iterations=it,
                method=method,
                merit=0.5 * float(np.dot(r, r)),
            ),
            it,
            best,
        )
    return None, it, best


def descend_reference(A, x0, budget, weak):
    """``pcheck._descend`` as first written: every contraction goes through
    the public, validating ``contract_m1``, ``support`` and the full
    ``contract_m1_jacobian``, of which the gradient uses one row.
    ``pcheck._descend`` must reproduce it bit for bit."""
    from ptensor.core import contract_m1, contract_m1_jacobian, support

    def _term_gradient(A, x, i, ax):
        m = A.order
        J = contract_m1_jacobian(A, x)
        g = x[i] ** (m - 1) * J[i]
        g[i] += (m - 1) * x[i] ** (m - 2) * ax[i]
        return g

    x = x0 / np.linalg.norm(x0)
    best_x, best_val = x.copy(), np.inf
    for it in range(budget.iters):
        ax = contract_m1(A, x)
        t = x ** (A.order - 1) * ax
        if weak:
            sup = support(x, budget.tau_rel)
            local = sup[int(np.argmax(t[sup]))]
        else:
            local = int(np.argmax(t))
        val = float(t[local])
        if val < best_val:
            best_val, best_x = val, x.copy()
        g = _term_gradient(A, x, int(local), ax)
        gn = float(np.linalg.norm(g))
        if gn == 0.0:
            break
        x = x - g / (gn * (it + 10.0))
        nx = float(np.linalg.norm(x))
        if nx < 1e-14:
            break
        x = x / nx
    return best_x, best_val


def ascend_reference(A, x0, budget, floor, best_x, best_val):
    """The projected ascent of ``pcheck.check_s`` from one start as first
    written, inside the loop over starts: it updates the best point and
    value carried over from the earlier starts, and every contraction goes
    through the public, validating ``contract_m1`` and the full
    ``contract_m1_jacobian``."""
    from ptensor.classes import _project_simplex
    from ptensor.core import contract_m1, contract_m1_jacobian

    x = _project_simplex(x0, floor)
    for it in range(budget.iters):
        ax = contract_m1(A, x)
        val = float(np.min(ax))
        if val > best_val:
            best_val, best_x = val, x.copy()
        active = int(np.argmin(ax))
        g = contract_m1_jacobian(A, x)[active]
        gn = float(np.linalg.norm(g))
        if gn == 0.0:
            break
        x = _project_simplex(x + g / (gn * (it + 10.0)), floor)
    return best_x, best_val
