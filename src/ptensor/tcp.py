"""Tensor complementarity solver and solution-set exploration.

For an instance (A, q) the problem is to find x with

    x >= 0,   F(x) = A x^{m-1} + q >= 0,   <x, F(x)> = 0.

The solver minimizes the Fischer-Burmeister merit function
psi(a, b) = sqrt(a^2 + b^2) - a - b,  merit = 0.5 * sum psi(x_i, F_i)^2,
whose zeros are exactly the solutions, by damped Gauss-Newton steps with
Armijo backtracking and seeded multistart restarts.  The Jacobian of F is
exact: (m-1) * (B x^{m-2}), with B = core._tail_symmetric(A), A averaged
over its modes 2..m, so that B x^{m-1} = A x^{m-1}.  A start stops after
five steps in a row that either fail the line search or lower the merit by
at most 1e-9 of its value.

All starts run in lockstep (_solve_batch): each iteration takes one
batched step for every start still running, and each line search tries
t = 1 for every start, then the rest of the halving ladder at once for
the starts where it failed.  Every start's result is bit for bit what the
loop from that start alone gives; the batch kernels keep the operation
order of the single-vector ones.  solve_tcp runs the zero start alone, and
the other starts together only when it fails, then walks the results in
start order.

The public functions (tcp_F, natural_residual, fb_merit, jacobian_F)
validate x.  The solver skips that validation and evaluates F once per
trial point, together with the partial contraction A x^{m-2}; the accepted
trial's F is reused for the acceptance test and, when B is A's own array,
its partial contraction for the Jacobian of the next iteration.

Existence holds whenever A has the strong sign property, but the solver
runs for any tensor; not finding a solution is reported as a result, not
an error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .budget import DEDUP_RADIUS, SearchBudget
from .core import (
    Tensor,
    _contract_batch,
    _matvec_batch,
    _solve_rows,
    _tail_symmetric,
    as_vector,
)
from .errors import DegenerateInput, ParseError
from .pcheck import _certificates

_FB_ORIGIN_PARTIAL = -1.0 + 1.0 / np.sqrt(2.0)  # fixed subgradient at (0, 0)


@dataclass
class TcpInstance:
    A: Tensor
    q: np.ndarray

    def __post_init__(self):
        self.q = as_vector(self.q, dim=self.A.dim)


@dataclass
class TcpSolution:
    """Accepted complementarity point with its residual diagnostics."""

    x: np.ndarray
    natural_residual: float
    feasibility: tuple  # (min_i x_i, min_i F_i(x))
    complementarity_gap: float
    iterations: int
    method: str
    merit: float

    def to_json_dict(self) -> dict:
        return {
            "status": "solved",
            "x": [float(v) for v in self.x],
            "natural_residual": float(self.natural_residual),
            "feasibility": [float(self.feasibility[0]), float(self.feasibility[1])],
            "complementarity_gap": float(self.complementarity_gap),
            "iterations": int(self.iterations),
            "method": self.method,
            "merit": float(self.merit),
        }


@dataclass
class NoSolutionFound:
    """Best effort outcome when no iterate met the acceptance test.

    A legitimate result for tensors without the strong sign property; it
    carries the best merit seen and the matching iterate."""

    best_merit: float
    best_x: np.ndarray
    best_natural_residual: float
    iterations: int
    starts_tried: int
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {
            "status": "no_solution_found",
            "best_merit": float(self.best_merit),
            "best_x": [float(v) for v in self.best_x],
            "best_natural_residual": float(self.best_natural_residual),
            "iterations": int(self.iterations),
            "starts_tried": int(self.starts_tried),
            "detail": self.detail,
        }


@dataclass
class SolutionSet:
    """Distinct solutions found by multistart, with a descriptive bounding
    box (a finite sample cannot certify compactness; the box is statistics,
    not a proof)."""

    solutions: list
    bounding_box: list | None
    starts_tried: int
    diagnostic: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "status": "explored",
            "count": len(self.solutions),
            "solutions": [s.to_json_dict() for s in self.solutions],
            "bounding_box": self.bounding_box,
            "starts_tried": int(self.starts_tried),
            "diagnostic": self.diagnostic,
        }


# ---------------------------------------------------------------------------
# residuals


def _f_and_t(inst: TcpInstance, X: np.ndarray):
    """F and the partial contraction T = A x^{m-2} at every row x of X, in
    contract_m1's operation order, so F[p] is bitwise equal to
    contract_m1(A, X[p]) + q."""
    T = _contract_batch(inst.A.data, X, inst.A.order - 2)
    return _matvec_batch(T, X) + inst.q, T


def tcp_F(inst: TcpInstance, x) -> np.ndarray:
    """F(x) = A x^{m-1} + q."""
    return _f_and_t(inst, as_vector(x, dim=inst.A.dim)[None])[0][0]


def _natres(x: np.ndarray, f: np.ndarray):
    """Sup-norm of min(x, F) over the last axis."""
    return np.max(np.abs(np.minimum(x, f)), axis=-1)


def natural_residual(inst: TcpInstance, x) -> float:
    """Sup-norm of min(x, F(x)); zero exactly at solutions."""
    X = as_vector(x, dim=inst.A.dim)[None]
    return float(_natres(X, _f_and_t(inst, X)[0])[0])


def _fb_vector(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    return np.sqrt(x * x + f * f) - x - f


def fb_merit(inst: TcpInstance, x) -> float:
    """0.5 * sum of squared Fischer-Burmeister values; zero iff x solves the
    complementarity system exactly."""
    X = as_vector(x, dim=inst.A.dim)[None]
    r = _fb_vector(X, _f_and_t(inst, X)[0])[0]
    return 0.5 * float(np.dot(r, r))


def _fb_partials(x: np.ndarray, f: np.ndarray):
    norm = np.sqrt(x * x + f * f)
    da = np.where(norm > 0.0, np.divide(x, norm, out=np.zeros_like(x), where=norm > 0.0) - 1.0,
                  _FB_ORIGIN_PARTIAL)
    db = np.where(norm > 0.0, np.divide(f, norm, out=np.zeros_like(f), where=norm > 0.0) - 1.0,
                  _FB_ORIGIN_PARTIAL)
    return da, db


# ---------------------------------------------------------------------------
# Jacobian of F


def _jacobian(A: Tensor, B: np.ndarray, X: np.ndarray, T: np.ndarray) -> np.ndarray:
    """jacobian_F at every row of X, given B = _tail_symmetric(A) and
    T = A x^{m-2} per row: (m-1) * (B x^{m-2}), which is (m-1) * T when B
    is A's own array."""
    return (A.order - 1) * (T if B is A.data else _contract_batch(B, X, A.order - 2))


def jacobian_F(inst: TcpInstance, x) -> np.ndarray:
    """d F / d x, exact: contract_m1_jacobian(A, x) bit for bit."""
    A, X = inst.A, as_vector(x, dim=inst.A.dim)[None]
    return _jacobian(A, _tail_symmetric(A), X, _f_and_t(inst, X)[1])[0]


# ---------------------------------------------------------------------------
# solver

# The Armijo trial steps: 1, 1/2, ..., 2^-43, the halvings of 1 that stay
# >= 1e-13.
_STEPS = np.ldexp(1.0, -np.arange(44))


def _acceptable(X: np.ndarray, F: np.ndarray, tol: float):
    """The acceptance test on every row: (ok, natural residual, min x,
    min F, |<x, F>|)."""
    nat = _natres(X, F)
    fx, ff = X.min(axis=1), F.min(axis=1)
    gap = np.abs(np.vecdot(X, F))
    ok = ((nat <= tol) & (fx >= -tol) & (ff >= -tol)
          & (gap <= tol * (1.0 + np.sqrt(np.vecdot(X, X)) * np.sqrt(np.vecdot(F, F)))))
    return ok, nat, fx, ff, gap


def _trials(inst: TcpInstance, x, d, merit, slope, steps):
    """The trial points x + t d for every row and every t in steps, in one
    batch.  Returns a mask of the rows where some trial passes Armijo's test
    merit(x + t d) <= merit + 1e-4 t slope, and per row the first passing
    trial's (x, F, merit, T) (the first trial's for the other rows)."""
    (p, n), s = x.shape, len(steps)
    Xn = (x[:, None, :] + steps[None, :, None] * d[:, None, :]).reshape(p * s, n)
    Fn, Tn = _f_and_t(inst, Xn)
    Rn = _fb_vector(Xn, Fn)
    Mn = 0.5 * np.vecdot(Rn, Rn)
    passed = Mn.reshape(p, s) <= merit[:, None] + 1e-4 * steps * slope[:, None]
    pick = np.arange(p) * s + passed.argmax(axis=1)
    return passed.any(axis=1), Xn[pick], Fn[pick], Mn[pick], Tn[pick]


def _line_search(inst: TcpInstance, x, d, merit, slope):
    """Armijo backtracking along d from every row of x over _STEPS: the
    trial t = 1 for every row, then the rest of the ladder in one batch for
    the rows where it fails; the longest passing step wins.  Returns what
    _trials returns."""
    out = _trials(inst, x, d, merit, slope, _STEPS[:1])
    rest = np.flatnonzero(~out[0])
    if rest.size:
        later = _trials(inst, x[rest], d[rest], merit[rest], slope[rest], _STEPS[1:])
        for a, b in zip(out, later):
            a[rest] = b
    return out


def _solve_batch(inst: TcpInstance, X0: np.ndarray, budget: SearchBudget):
    """Damped Gauss-Newton on the FB merit from every row of X0, all starts
    in lockstep: one batched step per iteration for the starts still
    running.

    A step solves the regularised normal equations of the FB system and
    backtracks along the direction with _line_search; the accepted trial's
    (x, F, merit, T) carry into the next iteration, where F serves the
    acceptance test and T the Jacobian (see _jacobian).
    Five steps in a row that either fail the line search or lower the merit
    by at most 1e-9 of its value end a start.

    Returns one entry per start: (solution or None, iterations used, best
    (merit, natres, x)), or None for a start whose first line-search trial
    is not finite (that start, run alone, raises DegenerateInput).
    Entry p is what the loop from X0[p] alone gives, bit for bit."""
    # overflow to inf and inf - inf are part of the iteration, as in scalar
    # float arithmetic
    with np.errstate(over="ignore", invalid="ignore"):
        p, n = X0.shape
        B = _tail_symmetric(inst.A)
        X = X0.astype(float)
        F, T = _f_and_t(inst, X)
        R = _fb_vector(X, F)
        merit = 0.5 * np.vecdot(R, R)
        mu, stall, its = np.full(p, 1e-8), np.zeros(p, dtype=int), np.zeros(p, dtype=int)
        best_m, best_nat, best_x = np.full(p, np.inf), np.full(p, np.inf), X.copy()
        diag = np.arange(n)
        live, lost = np.arange(p), np.zeros(p, dtype=bool)
        for it in range(1, budget.iters + 1):
            its[live] = it
            acc = _acceptable(X[live], F[live], budget.tol)
            ok, nat = acc[:2]
            better = (merit[live] < best_m[live]) | ((merit[live] == best_m[live])
                                                     & (nat < best_nat[live]))
            k = live[better]
            best_m[k], best_nat[k], best_x[k] = merit[k], nat[better], X[k]
            live = live[~ok]
            if not live.size:
                break

            x, f = X[live], F[live]
            da, db = _fb_partials(x, f)
            Jpsi = np.zeros((len(live), n, n))
            Jpsi[:, diag, diag] = da
            Jpsi += db[:, :, None] * _jacobian(inst.A, B, x, T[live])
            JT = Jpsi.transpose(0, 2, 1)
            grad = _matvec_batch(JT, _fb_vector(x, f))
            # a stacked product of a matrix's transpose with itself goes to
            # syrk as dot does (at 1 x 1 dot takes a plain product)
            H = np.matmul(JT, Jpsi) if n > 1 else Jpsi * Jpsi
            H[:, diag, diag] += (mu[live] * (1.0 + np.trace(H, axis1=1, axis2=2) / n))[:, None]
            d, solvable = _solve_rows(H, -grad)
            slope = np.vecdot(grad, d)
            turn = ~solvable | (slope >= 0.0)
            k = live[turn]
            mu[k] = np.maximum(mu[k] * 100.0, 1e-6)

            go = ~turn
            k, x, d, slope = live[go], x[go], d[go], slope[go]
            # later trials lie between x and x + d, so one check covers them
            finite = np.isfinite(x + d).all(axis=1)
            lost[k[~finite]] = True
            live = live[~lost[live]]
            k, x, d, slope = k[finite], x[finite], d[finite], slope[finite]
            passed, Xn, Fn, Mn, Tn = _line_search(inst, x, d, merit[k], slope)
            kf = k[~passed]
            mu[kf] = np.maximum(mu[kf] * 10.0, 1e-8)
            stall[kf] += 1
            k = k[passed]
            small = merit[k] - Mn[passed] <= 1e-9 * merit[k]
            stall[k] = np.where(small, stall[k] + 1, 0)
            X[k], F[k], merit[k], T[k] = Xn[passed], Fn[passed], Mn[passed], Tn[passed]
            mu[k] = np.maximum(mu[k] * 0.3, 1e-12)
            live = live[stall[live] < 5]

        # a start's X and F do not change after it leaves the running set
        out = []
        for k, (ok, nat, fx, ff, gap) in enumerate(zip(*_acceptable(X, F, budget.tol))):
            best = (float(best_m[k]), float(best_nat[k]), best_x[k].copy())
            sol = TcpSolution(
                x=X[k].copy(), natural_residual=float(nat), feasibility=(float(fx), float(ff)),
                complementarity_gap=float(gap), iterations=int(its[k]),
                method="fb_gauss_newton_analytic", merit=float(merit[k])) if ok else None
            out.append(None if lost[k] else (sol, int(its[k]), best))
    return out


def _zero_solution(inst: TcpInstance) -> TcpSolution:
    x = np.zeros(inst.A.dim)
    return TcpSolution(
        x=x,
        natural_residual=0.0,
        feasibility=(0.0, float(np.min(inst.q))),
        complementarity_gap=0.0,
        iterations=0,
        method="trivial_nonnegative_q",
        merit=0.0,
    )


def _starts(inst: TcpInstance, budget: SearchBudget) -> np.ndarray:
    """The zero start, then seeded random nonnegative starts scaled to
    (1 + max|q|)^(1/(m-1)), the size at which A x^{m-1} can balance q."""
    scale = (1.0 + float(np.max(np.abs(inst.q)))) ** (1.0 / (inst.A.order - 1))
    n = inst.A.dim
    return np.array([np.zeros(n)]
                    + [budget.start_rng(k).random(n) * scale for k in range(budget.starts)])


def solve_tcp(inst: TcpInstance, budget: SearchBudget | None = None):
    """Solve one instance; returns TcpSolution or NoSolutionFound.

    Pipeline: x = 0 immediately when q >= 0; otherwise damped Gauss-Newton
    on the FB merit from the zero start, restarting from seeded projected
    random nonnegative points on failure."""
    if budget is None:
        budget = SearchBudget()
    if np.all(inst.q >= 0.0):
        return _zero_solution(inst)
    starts = _starts(inst, budget)

    def results():
        # the zero start often decides an instance alone; the rest run
        # only when it fails, then all together
        yield from _solve_batch(inst, starts[:1], budget)
        yield from _solve_batch(inst, starts[1:], budget)

    total_it = 0
    best = (np.inf, np.inf, np.zeros(inst.A.dim))
    for res in results():
        if res is None:
            raise DegenerateInput("vector entries must be finite")
        sol, used, local_best = res
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


def explore_solutions(
    inst: TcpInstance,
    budget: SearchBudget | None = None,
    certified_p: bool | None = None,
) -> SolutionSet:
    """Multistart solve with deduplication at sup-norm radius 1e-6.

    certified_p marks instances whose tensor is known to have the strong
    sign property (existence is then guaranteed); when unset, the check_p
    decision without its search decides: a positive diagonal and a P rule
    of pcheck's certificate table that fires.  For such instances an empty
    result is flagged as a solver failure, never as emptiness."""
    if budget is None:
        budget = SearchBudget()
    if certified_p is None:
        certified_p = bool(np.all(inst.A.diagonal() > 0.0) and _certificates(inst.A, weak=False))
    sols: list[TcpSolution] = []

    def push(sol: TcpSolution):
        for s in sols:
            if float(np.max(np.abs(s.x - sol.x))) <= DEDUP_RADIUS:
                return
        sols.append(sol)

    if np.all(inst.q >= 0.0):
        push(_zero_solution(inst))
    starts = _starts(inst, budget)
    results = _solve_batch(inst, starts, budget)
    if any(res is None for res in results):
        raise DegenerateInput("vector entries must be finite")
    for sol, _, _ in results:
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
    return SolutionSet(
        solutions=sols,
        bounding_box=box,
        starts_tried=len(starts),
        diagnostic=diagnostic,
    )


# ---------------------------------------------------------------------------
# instance files


def parse_tcp_instance(obj, base_dir=None) -> TcpInstance:
    """Instance file {"tensor": <tensor object or path>, "q": [...]}."""
    from pathlib import Path

    from .tensorio import parse_numbers, parse_tensor, read_tensor

    if not isinstance(obj, dict) or "tensor" not in obj or "q" not in obj:
        raise ParseError('instance file must be {"tensor": ..., "q": [...]}')
    spec = obj["tensor"]
    if isinstance(spec, str):
        path = Path(spec)
        if base_dir is not None and not path.is_absolute():
            path = Path(base_dir) / path
        A = read_tensor(path)
    else:
        A = parse_tensor(spec)
    q = obj["q"]
    if not isinstance(q, list) or len(q) != A.dim:
        raise ParseError(f"q must be a list of length {A.dim}")
    return TcpInstance(A=A, q=parse_numbers(q, "q entries"))


def read_tcp_instance(path) -> TcpInstance:
    from pathlib import Path

    from .tensorio import _load_json

    return parse_tcp_instance(_load_json(path), base_dir=Path(path).parent)
