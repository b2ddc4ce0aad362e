"""Independent brute-force oracles.

Everything here deliberately avoids the library's own kernels: contractions
are plain Python loops, matrix eigenvalues come from determinant
interpolation, the complementarity oracle is a dense grid scan.  These are
the reference implementations the fast paths are checked against.
"""

import itertools
import math
from fractions import Fraction

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


def jacobian_fd(inst, x):
    """Forward-difference Jacobian of F(x) = A x^{m-1} + q with step
    1e-6 * (1 + sup|x|), the solver's Jacobian for tensors not symmetric in
    modes 2..m before the exact one replaced it."""
    from ptensor.tcp import tcp_F

    x = np.asarray(x, dtype=float)
    f = tcp_F(inst, x)
    h = 1e-6 * (1.0 + float(np.max(np.abs(x))))
    J = np.empty((x.size, x.size))
    for j in range(x.size):
        xp = x.copy()
        xp[j] += h
        J[:, j] = (tcp_F(inst, xp) - f) / h
    return J


def tcp_residual_problems(data: np.ndarray, q: np.ndarray, x, tol: float) -> list:
    """Independent check of a complementarity solution: x >= -tol,
    F(x) >= -tol and |min(x, F(x))| <= tol, with F recomputed by
    brute_contract_m1 plus q.  Each bound allows for rounding in any
    summation order: 4 (n^(m-1) + m) eps (|A| |x|^(m-1))_i + 4 eps |q_i|.
    Returns the conditions that fail."""
    m, n = data.ndim, data.shape[0]
    x = np.asarray(x, dtype=float)
    eps = float(np.finfo(float).eps)
    f = brute_contract_m1(data, x) + q
    mag = brute_contract_m1(np.abs(data), np.abs(x))
    slack = tol + 4.0 * (n ** (m - 1) + m) * eps * mag + 4.0 * eps * np.abs(q)
    out = []
    if np.any(x < -slack):
        out.append("x has a component below -tol")
    if np.any(f < -slack):
        out.append("F(x) has a component below -tol")
    if np.any(np.abs(np.minimum(x, f)) > slack):
        out.append("natural residual exceeds tol")
    return out


def symmetrize_brute(data: np.ndarray) -> np.ndarray:
    """The mean of all m! transposes of data, summed in transpose order with
    Neumaier's compensated summation so the oracle's own rounding stays
    near one ulp at orders 7-8, where plain summation of m! terms drifts."""
    total = np.zeros_like(data)
    comp = np.zeros_like(data)
    count = 0
    for perm in itertools.permutations(range(data.ndim)):
        term = data.transpose(perm)
        new = total + term
        comp += np.where(np.abs(total) >= np.abs(term), (total - new) + term, (term - new) + total)
        total = new
        count += 1
    return (total + comp) / count


def jacobian_mode_sum(data: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The Jacobian of v -> A v^{m-1} as the library first computed it: for
    each mode k = 1..m-1, data with mode k moved next to the row mode,
    contracted with v in the other m-2 modes, summed over k."""
    m = data.ndim
    J = np.zeros(data.shape[:2])
    for k in range(1, m):
        D = data.transpose(0, k, *range(1, k), *range(k + 1, m))
        for _ in range(m - 2):
            D = D.dot(v)
        J += D
    return J


def _dyadic_ints(values):
    """Integers c_k and a shift s with values[k] == c_k / 2**s exactly."""
    fr = [Fraction(float(v)) for v in values]
    s = max(f.denominator.bit_length() - 1 for f in fr)
    return [f.numerator << (s - f.denominator.bit_length() + 1) for f in fr], s


def jacobian_exact(data: np.ndarray, x: np.ndarray) -> list:
    """The Jacobian of x -> A x^{m-1} in exact rational arithmetic on the
    stored float64 entries, as an n x n list of Fractions: J_ij is the sum
    over modes k = 2..m of the terms a_{i ... j ...} (j in mode k) times
    the product of x over the other modes, from the definition alone."""
    m, n = data.ndim, data.shape[0]
    a, sa = _dyadic_ints(data.reshape(-1))
    xs, sx = _dyadic_ints(x)
    J = [[0] * n for _ in range(n)]
    for flat, idx in enumerate(itertools.product(range(n), repeat=m)):
        if a[flat] == 0:
            continue
        for k in range(1, m):
            term = a[flat]
            for pos in range(1, m):
                if pos != k:
                    term *= xs[idx[pos]]
            J[idx[0]][idx[k]] += term
    scale = 2 ** (sa + (m - 2) * sx)
    return [[Fraction(v, scale) for v in row] for row in J]


def jacobian_rounding_excess(data: np.ndarray, x: np.ndarray, *jacobians) -> list:
    """The entries (k, i, j) where the k-th float64 Jacobian of
    x -> A x^{m-1} is farther from jacobian_exact than an a-priori rounding
    bound allows: gamma_K times the exact Jacobian of |A| at |x|, with
    gamma_K = K u / (1 - K u), u = 2^-53 and K = (m-1)! + (m-2) n + 2.
    K covers an orbit mean of A over modes 2..m (at most (m-1)! roundings),
    m-2 contraction stages of length n in any summation order, and the
    factor m-1; the mode sum of m-1 contractions needs fewer."""
    m, n = data.ndim, data.shape[0]
    K = math.factorial(m - 1) + (m - 2) * n + 2
    u = Fraction(1, 2**53)
    gamma = K * u / (1 - K * u)
    exact, mag = jacobian_exact(data, x), jacobian_exact(np.abs(data), np.abs(x))
    return [(k, i, j) for k, J in enumerate(jacobians) for i in range(n) for j in range(n)
            if abs(Fraction(float(J[i, j])) - exact[i][j]) > gamma * mag[i][j]]


def tcp_solve_from_reference(inst, x0, budget):
    """The damped Gauss-Newton loop as first written: every F evaluation goes
    through the public, validating ``tcp_F`` and every Jacobian through
    ``jacobian_F``.  Each row of ``tcp._solve_batch`` must reproduce it bit
    for bit.

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
    method = "fb_gauss_newton_analytic"
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
        J = jacobian_F(inst, x)
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
        if merit - mn <= 1e-9 * merit:
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


def solve_tcp_reference(inst, budget=None):
    """``tcp.solve_tcp`` as written when the starts ran one after another:
    ``tcp_solve_from_reference`` from each start in turn, walked until one
    solves.  ``solve_tcp`` must report the same bytes, and raise exactly
    where this raises."""
    from ptensor.budget import SearchBudget
    from ptensor.tcp import NoSolutionFound, _starts, _zero_solution

    if budget is None:
        budget = SearchBudget()
    if np.all(inst.q >= 0.0):
        return _zero_solution(inst)
    starts = _starts(inst, budget)
    total_it = 0
    best = (np.inf, np.inf, np.zeros(inst.A.dim))
    for x0 in starts:
        sol, used, local_best = tcp_solve_from_reference(inst, x0, budget)
        total_it += used
        if local_best[:2] < best[:2]:
            best = local_best
        if sol is not None:
            sol.iterations = total_it
            return sol
    return NoSolutionFound(
        best_merit=best[0],
        best_x=best[2],
        best_natural_residual=best[1],
        iterations=total_it,
        starts_tried=len(starts),
        detail="no iterate met the acceptance test; legitimate for tensors "
        "without the strong sign property",
    )


def explore_solutions_reference(inst, budget=None, certified_p=None):
    """``tcp.explore_solutions`` as written when the starts ran one after
    another, each through ``tcp_solve_from_reference``, so the first start
    that raises raises here.  ``explore_solutions`` must report the same
    bytes, and raise whenever this raises."""
    from ptensor.budget import DEDUP_RADIUS, SearchBudget
    from ptensor.pcheck import _certificates
    from ptensor.tcp import SolutionSet, _starts, _zero_solution

    if budget is None:
        budget = SearchBudget()
    if certified_p is None:
        certified_p = bool(np.all(inst.A.diagonal() > 0.0) and _certificates(inst.A, weak=False))
    sols = []

    def push(sol):
        for s in sols:
            if float(np.max(np.abs(s.x - sol.x))) <= DEDUP_RADIUS:
                return
        sols.append(sol)

    if np.all(inst.q >= 0.0):
        push(_zero_solution(inst))
    starts = _starts(inst, budget)
    for x0 in starts:
        sol, _, _ = tcp_solve_from_reference(inst, x0, budget)
        if sol is not None:
            push(sol)
    box = None
    if sols:
        xs = np.array([s.x for s in sols])
        box = [[float(xs[:, j].min()), float(xs[:, j].max())] for j in range(xs.shape[1])]
    diagnostic = None
    if certified_p and not sols:
        diagnostic = (
            "tensor has the strong sign property, so the solution set is nonempty; "
            "finding none is a solver failure, not emptiness"
        )
    return SolutionSet(solutions=sols, bounding_box=box, starts_tried=len(starts),
                       diagnostic=diagnostic)


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


def refutation_search_reference(A, budget, weak, stored):
    """``pcheck._refutation_search`` as written when the descents ran one
    start after another: the battery functional one candidate at a time,
    then one ``descend_reference`` per start, each walked as it returns.
    ``pcheck.check_p`` and ``check_p0`` must report byte for byte what they
    report with this search in place.  A candidate that passes the float
    threshold is snapped, and refutes exactly when the snapped point passes
    ``pcheck._fails_exactly`` on the stored entries."""
    from ptensor.pcheck import (_fails_exactly, _snap_witness, _threshold, candidate_battery,
                                phi_p, phi_p0)

    m = A.order
    func = (lambda x: phi_p0(A, x, budget.tau_rel)) if weak else (lambda x: phi_p(A, x))

    def refutes(x: np.ndarray, val: float) -> bool:
        thr = _threshold(x, m, budget.tol)
        if weak:
            return val < -thr
        return val <= thr

    def points():
        pool = []
        for cand in candidate_battery(A.dim):
            v = func(cand)
            pool.append((v, cand))
            yield cand, v
        pool.sort(key=lambda t: t[0])
        starts = [c / np.linalg.norm(c) for _, c in pool[:8]]
        starts += budget.sphere_starts(A.dim)[A.dim + 1:]
        for x0 in starts:
            yield descend_reference(A, x0, budget, weak=weak)

    best_val, best_x = np.inf, None
    for x, val in points():
        if val < best_val:
            best_val, best_x = val, x
        if refutes(x, val):
            w = _snap_witness(x, budget.tau_rel)
            wval = func(w)
            if _fails_exactly(stored, w, weak):
                return w, wval, min(best_val, wval)

    floor = best_val
    if best_x is not None:
        floor = func(_snap_witness(best_x, budget.tau_rel))
    return None, None, float(min(best_val, floor))


def check_s_reference(A, budget=None):
    """``pcheck.check_s`` as written when the ascents ran one start after
    another: each candidate is certified raw, then ascended alone with
    ``ascend_reference``, its best merged into the running best, which is
    certified next.  ``pcheck.check_s`` must report the same bytes."""
    from ptensor.budget import SearchBudget
    from ptensor.classes import _m_splitting, is_z_tensor
    from ptensor.core import contract_m1
    from ptensor.pcheck import CERTIFIED, LIKELY_NOT, S, PVerdict
    from ptensor.spectral import nqz_spectral_radius

    if budget is None:
        budget = SearchBudget()
    n = A.dim
    floor = 1e-8

    def gmin(x):
        return float(np.min(contract_m1(A, x)))

    def certify(x):
        w = x / float(np.max(np.abs(x)))
        ax = contract_m1(A, w)
        if np.all(w > 0.0) and np.all(ax > 0.0) and float(np.min(ax)) > budget.tol:
            return PVerdict(
                S,
                CERTIFIED,
                witness=w,
                functional_value=float(np.min(ax)),
                search_margin=float(np.min(ax)),
                budget=budget,
            )
        return None

    ones = np.ones(n)
    out = certify(ones)
    if out is not None:
        return out

    candidates = []
    if is_z_tensor(A).certified:
        perron = nqz_spectral_radius(_m_splitting(A)[1]).perron_vector
        candidates.append(np.maximum(perron, floor))
    for k in range(budget.starts):
        candidates.append(np.maximum(budget.start_rng(k).random(n), floor))

    best_x, best_val = ones / n, gmin(ones / n)
    for x0 in candidates:
        out = certify(x0)
        if out is not None:
            return out
        x, val = ascend_reference(A, x0, budget, floor, None, -np.inf)
        if val > best_val:
            best_val, best_x = val, x
        out = certify(best_x)
        if out is not None:
            return out
    return PVerdict(S, LIKELY_NOT, search_margin=best_val, budget=budget)


def _form_gradient_reference(S, x):
    from ptensor.core import contract_m1

    return S.order * contract_m1(S, x)


def is_copositive_reference(A, budget=None):
    """``classes.is_copositive`` as first written, on the symmetric part S
    of A: the grid and the descent evaluate the form of S, the descent
    takes the gradient m S x^{m-1} at x and then evaluates the form at the
    new point with ``contract_full``; the verdict re-evaluates the form of
    A.  The library must return the same report."""
    from ptensor.budget import SearchBudget
    from ptensor.classes import LIKELY, REFUTED, ClassReport, _project_simplex, simplex_grid
    from ptensor.core import contract_full, contract_m1_batch, symmetrize

    if budget is None:
        budget = SearchBudget()
    n = A.dim
    S = A if A.symmetric else symmetrize(A)
    pts = simplex_grid(n, budget.grid_depth)
    vals = np.einsum("pi,pi->p", pts, contract_m1_batch(S, pts))
    order = np.argsort(vals, kind="stable")
    best_x = pts[order[0]].copy()
    best_val = float(vals[order[0]])

    n_starts = min(budget.starts, pts.shape[0])
    for idx in order[:n_starts]:
        x = pts[idx].copy()
        for it in range(budget.iters):
            g = _form_gradient_reference(S, x)
            step = 1.0 / ((it + 10.0) * max(1.0, float(np.linalg.norm(g))))
            x_new = _project_simplex(x - step * g)
            val_new = contract_full(S, x_new)
            if val_new < best_val:
                best_val, best_x = val_new, x_new.copy()
            x = x_new

    check = contract_full(A, best_x)  # witness re-evaluation
    metrics = {
        "min_value": check,
        "grid_points": int(pts.shape[0]),
        "argmin": [float(v) for v in best_x],
    }
    if check < -budget.tol:
        return ClassReport(
            "copositive",
            REFUTED,
            witness=best_x,
            detail=f"form value {check:.6g} < 0 at a nonnegative point",
            metrics=metrics,
        )
    label = "LIKELY_STRICT" if check > budget.tol else "LIKELY_COPOSITIVE"
    return ClassReport(
        "copositive",
        LIKELY,
        label=label,
        detail=f"simplex search minimum {check:.6g} (search only, not a proof)",
        metrics=metrics,
    )


# the sequential sphere minimiser's memory and line-search caps
_LBFGS_MEMORY = 10
_LINE_SEARCH_TRIALS = 20


def sphere_minimize_reference(f, z0: np.ndarray, maxiter: int, ftol: float,
                              gtol: float = 1e-5) -> np.ndarray:
    """``spectral._sphere_minimize`` as first written, one start at a time:
    minimise f over the unit sphere by L-BFGS on z -> f(z/||z||_2);
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


def is_psd_reference(A, budget=None):
    """``classes.is_psd`` as first written: its sphere objective evaluates
    the form of the symmetric part S of A with ``contract_full`` and the
    gradient m S x^{m-1} with a second contraction.  The library must
    return the same report."""
    from ptensor.budget import SearchBudget
    from ptensor.classes import LIKELY, REFUTED, ClassReport
    from ptensor.core import contract_full, symmetrize

    if budget is None:
        budget = SearchBudget()
    m, n = A.order, A.dim

    probes = budget.sphere_starts(n)

    if m % 2 == 1:
        for x in probes:
            val = contract_full(A, x)
            if val != 0.0:
                w = -x if val > 0.0 else x
                wval = contract_full(A, w)
                if wval < 0.0:
                    return ClassReport(
                        "psd",
                        REFUTED,
                        witness=w,
                        detail=f"odd order: form value {wval:.6g} < 0 after sign flip",
                        metrics={"min_value": wval},
                    )
        return ClassReport(
            "psd",
            LIKELY,
            label="LIKELY_PSD",
            detail="odd order with numerically zero form on all probes",
            metrics={"min_value": 0.0},
        )

    best_x, best_val = probes[0], contract_full(A, probes[0])
    for x0 in probes:
        v0 = contract_full(A, x0)
        if v0 < best_val:
            best_val, best_x = v0, x0
    S = A if A.symmetric else symmetrize(A)
    for x0 in probes[: max(4, min(len(probes), budget.starts))]:
        z = sphere_minimize_reference(
            lambda x: (contract_full(S, x), _form_gradient_reference(S, x)), x0,
            maxiter=budget.iters, ftol=1e-16)
        nz = float(np.linalg.norm(z))
        x = z / nz if nz != 0.0 and np.all(np.isfinite(z)) else x0
        val = contract_full(A, x)
        if val < best_val:
            best_val, best_x = val, x

    check = contract_full(A, best_x)
    metrics = {"min_value": check, "argmin": [float(v) for v in best_x]}
    if check < -budget.tol:
        return ClassReport(
            "psd",
            REFUTED,
            witness=best_x,
            detail=f"form value {check:.6g} < 0 on the unit sphere",
            metrics=metrics,
        )
    label = "LIKELY_PD" if check > budget.tol else "LIKELY_PSD"
    return ClassReport(
        "psd",
        LIKELY,
        label=label,
        detail=f"sphere search minimum {check:.6g} (search only, not a proof)",
        metrics=metrics,
    )


def find_h_eigenpairs_reference(A, budget=None):
    """``spectral.find_h_eigenpairs`` as first written: its objective, its
    Newton polish and its final fit go through the public, validating
    ``contract_m1``, ``contract_m1_jacobian`` and ``eig_residual``, and each
    polish step contracts its point twice.  The library must return the
    same pairs."""
    from ptensor.budget import DEDUP_RADIUS, SearchBudget
    from ptensor.core import canonicalize_direction, contract_m1, contract_m1_jacobian
    from ptensor.spectral import EigenPair, eig_residual

    def _least_squares_value(ax, xm):
        denom = float(np.dot(xm, xm))
        if denom == 0.0:
            return 0.0
        return float(np.dot(ax, xm)) / denom

    def _residual_objective(A, x):
        m = A.order
        ax = contract_m1(A, x)
        xm = x ** (m - 1)
        lam = _least_squares_value(ax, xm)
        g = ax - lam * xm
        r = float(np.dot(g, g))
        grad_x = 2.0 * contract_m1_jacobian(A, x).T.dot(g)
        grad_x -= 2.0 * lam * (m - 1) * x ** (m - 2) * g
        return r, grad_x

    def _newton_polish(A, x, lam):
        m, n = A.order, A.dim
        j = int(np.argmax(np.abs(x)))
        best_x, best_lam = x.copy(), lam
        best_res = eig_residual(A, lam, x)
        for _ in range(12):
            ax = contract_m1(A, x)
            xm = x ** (m - 1)
            g = ax - lam * xm
            K = np.zeros((n + 1, n + 1))
            K[:n, :n] = contract_m1_jacobian(A, x) - lam * (m - 1) * np.diag(x ** (m - 2))
            K[:n, n] = -xm
            K[n, j] = 1.0
            rhs = np.zeros(n + 1)
            rhs[:n] = -g
            rhs[n] = 0.0
            try:
                delta = np.linalg.solve(K, rhs)
            except np.linalg.LinAlgError:
                break
            x = x + delta[:n]
            lam = lam + float(delta[n])
            res = eig_residual(A, lam, x)
            if res < best_res:
                best_x, best_lam, best_res = x.copy(), lam, res
            if res <= 1e-15 * max(1.0, abs(lam)):
                break
        return best_x, best_lam, best_res

    if budget is None:
        budget = SearchBudget()
    m = A.order
    found = []
    for z0 in budget.sphere_starts(A.dim):
        z = sphere_minimize_reference(lambda x: _residual_objective(A, x), z0,
                                      maxiter=budget.iters, ftol=1e-18, gtol=1e-14)
        if float(np.linalg.norm(z)) < 1e-12 or not np.all(np.isfinite(z)):
            continue
        x = z / np.linalg.norm(z)
        lam = _least_squares_value(contract_m1(A, x), x ** (m - 1))
        x, lam, _ = _newton_polish(A, x, lam)
        if float(np.max(np.abs(x))) < 1e-12 or not np.all(np.isfinite(x)):
            continue
        x = canonicalize_direction(x)
        lam = _least_squares_value(contract_m1(A, x), x ** (m - 1))
        residual = eig_residual(A, lam, x)
        if residual > budget.tol:
            continue
        if any(np.max(np.abs(x - p.vector)) <= DEDUP_RADIUS for p in found):
            continue
        found.append(EigenPair(value=lam, vector=x, residual=residual))
    return found


def _row_diag_position(i, n, m):
    # flat position of (i, ..., i) within the row-major slice A[i]
    return sum(i * n**k for k in range(m - 1))


def is_diagonally_dominant_reference(A, strict=False):
    """``classes.is_diagonally_dominant`` as first written: one Python loop
    over the rows, stopping at the first failing row."""
    from ptensor.classes import CERTIFIED, REFUTED, ClassReport

    name = "strictly_diagonally_dominant" if strict else "diagonally_dominant"
    rows = np.abs(A.data.reshape(A.dim, -1))
    m, n = A.order, A.dim
    for i in range(n):
        dpos = _row_diag_position(i, n, m)
        diag = rows[i, dpos]
        off = float(rows[i].sum() - diag)
        ok = diag > off if strict else diag >= off
        if not ok:
            op = ">" if strict else ">="
            return ClassReport(
                name,
                REFUTED,
                witness=i,
                detail=f"row {i}: |diagonal| = {diag:.6g} fails {op} off-row sum {off:.6g}",
                metrics={"row": i, "diagonal_abs": diag, "off_row_sum": off},
            )
    return ClassReport(name, CERTIFIED, detail="all rows pass the dominance inequality")


def is_b_tensor_reference(A, strict=False):
    """``classes.is_b_tensor`` as first written: one Python loop over the
    rows, the sign condition before the average condition in each row."""
    from ptensor.classes import CERTIFIED, REFUTED, ClassReport

    name = "b_tensor" if strict else "b0_tensor"
    m, n = A.order, A.dim
    rows = A.data.reshape(n, -1)
    for i in range(n):
        rs = float(rows[i].sum())
        ok_sum = rs > 0.0 if strict else rs >= 0.0
        if not ok_sum:
            return ClassReport(
                name,
                REFUTED,
                witness=(i,),
                detail=f"row {i} sum {rs:.6g} fails the sign condition",
                metrics={"row": i, "row_sum": rs},
            )
        avg = rs / n ** (m - 1)
        masked = rows[i].copy()
        dpos = _row_diag_position(i, n, m)
        masked[dpos] = -np.inf
        jflat = int(np.argmax(masked))
        mx = float(masked[jflat])
        ok_avg = avg > mx if strict else avg >= mx
        if not ok_avg:
            jtup = np.unravel_index(jflat, (n,) * (m - 1))
            witness = (i, *(int(t) for t in jtup))
            op = ">" if strict else ">="
            return ClassReport(
                name,
                REFUTED,
                witness=witness,
                detail=f"row {i}: average {avg:.6g} fails {op} entry {mx:.6g} at {witness}",
                metrics={"row": i, "row_average": avg, "max_off_entry": mx},
            )
    return ClassReport(name, CERTIFIED, detail="all row sum and row average inequalities hold")
