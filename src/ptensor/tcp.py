"""Tensor complementarity solver and solution-set exploration.

For an instance (A, q) the problem is to find x with

    x >= 0,   F(x) = A x^{m-1} + q >= 0,   <x, F(x)> = 0.

The solver minimizes the Fischer-Burmeister merit function
psi(a, b) = sqrt(a^2 + b^2) - a - b,  merit = 0.5 * sum psi(x_i, F_i)^2,
whose zeros are exactly the solutions, by damped Gauss-Newton steps with
Armijo backtracking and seeded multistart restarts.  The Jacobian of F is
the exact (m-1) * (A x^{m-2}) matrix when A is symmetric in its last m-1
modes, and forward finite differences otherwise.

The public functions (tcp_F, natural_residual, fb_merit, jacobian_F)
validate x.  The solver loop skips that validation and evaluates F once
per trial point, together with the partial contraction A x^{m-2}; the
accepted trial's F is reused for the acceptance test, for the Jacobian and
for the next iteration.

Existence holds whenever A has the strong sign property, but the solver
runs for any tensor; not finding a solution is reported as a result, not
an error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .budget import DEDUP_RADIUS, SearchBudget
from .core import Tensor, _contract, as_vector, symmetric_within
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


def _f_and_t(inst: TcpInstance, x: np.ndarray):
    """F(x) and the partial contraction T = A x^{m-2}, in contract_m1's
    operation order, so F is bitwise equal to contract_m1(A, x) + q."""
    t = _contract(inst.A.data, x, inst.A.order - 2)
    return t.dot(x) + inst.q, t


def tcp_F(inst: TcpInstance, x) -> np.ndarray:
    """F(x) = A x^{m-1} + q."""
    return _f_and_t(inst, as_vector(x, dim=inst.A.dim))[0]


def _natres(x: np.ndarray, f: np.ndarray) -> float:
    return float(np.max(np.abs(np.minimum(x, f))))


def natural_residual(inst: TcpInstance, x) -> float:
    """Sup-norm of min(x, F(x)); zero exactly at solutions."""
    v = as_vector(x, dim=inst.A.dim)
    return _natres(v, _f_and_t(inst, v)[0])


def _fb_vector(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    return np.sqrt(x * x + f * f) - x - f


def fb_merit(inst: TcpInstance, x) -> float:
    """0.5 * sum of squared Fischer-Burmeister values; zero iff x solves the
    complementarity system exactly."""
    v = as_vector(x, dim=inst.A.dim)
    r = _fb_vector(v, _f_and_t(inst, v)[0])
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


def _mode_symmetric(A: Tensor) -> bool:
    """Symmetric in modes 2..m to 1e-13 relative: then the Jacobian is the
    exact (m-1) * (A x^{m-2})."""
    return A.symmetric or symmetric_within(A.data, 1e-13, first_mode=1)


def _jacobian(inst: TcpInstance, x: np.ndarray, f: np.ndarray, t: np.ndarray,
              analytic: bool) -> np.ndarray:
    """jacobian_F at x, given (f, t) = _f_and_t(inst, x)."""
    if analytic:
        return (inst.A.order - 1) * t
    h = 1e-6 * (1.0 + float(np.max(np.abs(x))))
    if not np.all(np.isfinite(x + h)):  # a non-finite difference point, as tcp_F rejects
        raise DegenerateInput("vector entries must be finite")
    J = np.empty((x.size, x.size))
    for j in range(x.size):
        xp = x.copy()
        xp[j] += h
        J[:, j] = (_f_and_t(inst, xp)[0] - f) / h
    return J


def jacobian_F(inst: TcpInstance, x, analytic: bool | None = None) -> np.ndarray:
    """d F / d x.  Analytic (m-1) * (A x^{m-2}) for mode-symmetric tensors,
    forward differences with step 1e-6 * (1 + sup|x|) otherwise."""
    v = as_vector(x, dim=inst.A.dim)
    if analytic is None:
        analytic = _mode_symmetric(inst.A)
    return _jacobian(inst, v, *_f_and_t(inst, v), analytic)


# ---------------------------------------------------------------------------
# solver


def _acceptable(x: np.ndarray, f: np.ndarray, tol: float):
    nat = _natres(x, f)
    feas = (float(np.min(x)), float(np.min(f)))
    gap = abs(float(np.dot(x, f)))
    ok = (
        nat <= tol
        and feas[0] >= -tol
        and feas[1] >= -tol
        and gap <= tol * (1.0 + float(np.linalg.norm(x)) * float(np.linalg.norm(f)))
    )
    return ok, nat, feas, gap


def _solve_from(inst: TcpInstance, x0: np.ndarray, budget: SearchBudget, analytic: bool):
    """Damped Gauss-Newton on the FB merit from one start.

    Each trial point costs one _f_and_t call; the accepted trial's
    (x, F, r, merit, T) carry into the next iteration, where F serves the
    acceptance test and the Jacobian (T for the analytic one, F as the
    finite-difference base point).

    Returns (solution or None, iterations used, best (merit, natres, x))."""
    x = x0.astype(float).copy()
    f, T = _f_and_t(inst, x)
    r = _fb_vector(x, f)
    merit = 0.5 * float(np.dot(r, r))
    mu = 1e-8
    best = (np.inf, np.inf, x.copy())
    method = "fb_gauss_newton_" + ("analytic" if analytic else "fd")
    stall = 0
    it = 0

    def solved(nat, feas, gap):
        sol = TcpSolution(x=x.copy(), natural_residual=nat, feasibility=feas,
                          complementarity_gap=gap, iterations=it, method=method, merit=merit)
        return sol, it, best

    while it < budget.iters:
        it += 1
        ok, nat, feas, gap = _acceptable(x, f, budget.tol)
        if (merit, nat) < best[:2]:
            best = (merit, nat, x.copy())
        if ok:
            return solved(nat, feas, gap)
        da, db = _fb_partials(x, f)
        J = _jacobian(inst, x, f, T, analytic)
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
            # later trials lie between x and x + d, so one check covers them
            if t == 1.0 and not np.all(np.isfinite(xn)):
                raise DegenerateInput("vector entries must be finite")
            fn, Tn = _f_and_t(inst, xn)
            rn = _fb_vector(xn, fn)
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
        else:
            stall = 0
        x, f, r, merit, T = xn, fn, rn, mn, Tn
        if stall >= 5:
            break
        mu = max(mu * 0.3, 1e-12)
    ok, nat, feas, gap = _acceptable(x, f, budget.tol)
    if ok:
        return solved(nat, feas, gap)
    return None, it, best


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


def _starts(inst: TcpInstance, budget: SearchBudget) -> list:
    """The zero start, then seeded random nonnegative starts scaled to
    (1 + max|q|)^(1/(m-1)), the size at which A x^{m-1} can balance q."""
    scale = (1.0 + float(np.max(np.abs(inst.q)))) ** (1.0 / (inst.A.order - 1))
    n = inst.A.dim
    return [np.zeros(n)] + [budget.start_rng(k).random(n) * scale for k in range(budget.starts)]


def solve_tcp(inst: TcpInstance, budget: SearchBudget | None = None):
    """Solve one instance; returns TcpSolution or NoSolutionFound.

    Pipeline: x = 0 immediately when q >= 0; otherwise damped Gauss-Newton
    on the FB merit from the zero start, restarting from seeded projected
    random nonnegative points on failure."""
    if budget is None:
        budget = SearchBudget()
    if np.all(inst.q >= 0.0):
        return _zero_solution(inst)
    analytic = _mode_symmetric(inst.A)
    starts = _starts(inst, budget)
    total_it = 0
    best = (np.inf, np.inf, np.zeros(inst.A.dim))
    for x0 in starts:
        sol, used, local_best = _solve_from(inst, x0, budget, analytic)
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
    analytic = _mode_symmetric(inst.A)
    sols: list[TcpSolution] = []

    def push(sol: TcpSolution):
        for s in sols:
            if float(np.max(np.abs(s.x - sol.x))) <= DEDUP_RADIUS:
                return
        sols.append(sol)

    if np.all(inst.q >= 0.0):
        push(_zero_solution(inst))
    starts = _starts(inst, budget)
    for x0 in starts:
        sol, _, _ = _solve_from(inst, x0, budget, analytic)
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
