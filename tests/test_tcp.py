"""Complementarity solver: residuals, merit, solves, exploration."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptensor import (
    NoSolutionFound,
    SearchBudget,
    SolutionSet,
    TcpInstance,
    TcpSolution,
    Tensor,
    all_ones_tensor,
    fb_merit,
    identity_tensor,
    natural_residual,
    solve_tcp,
    tcp_F,
    explore_solutions,
)
from ptensor import tcp
from ptensor.budget import DEDUP_RADIUS
from ptensor.classes import cauchy_tensor, is_diagonally_dominant
from ptensor.errors import DegenerateInput, DimensionError
from ptensor.generators import (
    random_cauchy_generating_vector,
    random_m_tensor,
    random_sdd_tensor,
    random_tensor,
)
from ptensor.tcp import jacobian_F
from ptensor.tensorio import parse_tcp_instance
from ptensor.core import (
    _contract,
    _tail_symmetric,
    contract_m1_jacobian,
    outer_power,
    symmetrize,
    symmetry_deviation,
)
from oracles import (
    explore_solutions_reference,
    jacobian_fd,
    solve_tcp_reference,
    tcp_grid_argmin,
    tcp_residual_problems,
    tcp_solve_from_reference,
)

FAST = SearchBudget(seed=0, starts=8, iters=200)


def identity_instance():
    return TcpInstance(identity_tensor(3, 2), np.array([-1.0, -1.0]))


# ---------------------------------------------------------------------------
# F and merit


def test_tcp_F_examples(ref_tensor):
    inst = identity_instance()
    assert np.array_equal(tcp_F(inst, np.array([1.0, 1.0])), [0.0, 0.0])
    inst2 = TcpInstance(ref_tensor, np.zeros(3))
    out = tcp_F(inst2, np.array([0.0, 1.0, -1.0]))
    assert np.allclose(out, [2.0, -0.5, -1.0], atol=1e-12)
    # x = 0 returns q, so q >= 0 is immediately solved by zero
    q = np.array([0.3, 0.0, 2.0])
    inst3 = TcpInstance(ref_tensor, q)
    assert np.array_equal(tcp_F(inst3, np.zeros(3)), q)


def test_fb_merit_zero_at_solutions():
    inst = identity_instance()
    assert fb_merit(inst, np.array([1.0, 1.0])) == 0.0
    inst2 = TcpInstance(identity_tensor(3, 2), np.array([1.0, 1.0]))
    assert fb_merit(inst2, np.zeros(2)) == 0.0


def test_fb_merit_frozen_value():
    # scalar oracle: x_i = 2, F_i = 3 per coordinate, psi = sqrt(13) - 5,
    # merit = 0.5 * 2 * psi^2 = (sqrt(13) - 5)^2
    inst = identity_instance()
    expected = (np.sqrt(13.0) - 5.0) ** 2
    assert fb_merit(inst, np.array([2.0, 2.0])) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(1.9444876, abs=1e-6)


def test_merit_and_natural_residual_agree_on_zeros(rng):
    instances = [
        TcpInstance(random_sdd_tensor(3, 3, seed=2), np.array([-0.5, 0.2, -1.0])),
        TcpInstance(identity_tensor(3, 2), np.array([-1.0, -1.0])),
        TcpInstance(random_sdd_tensor(4, 2, seed=8), np.array([0.3, -0.7])),
    ]
    for inst in instances:
        for _ in range(1000):
            x = rng.uniform(-1.0, 2.0, size=inst.A.dim)
            merit = fb_merit(inst, x)
            nat = natural_residual(inst, x)
            assert (merit <= 1e-18) == (nat <= 1e-9)


# ---------------------------------------------------------------------------
# solving


def test_solve_identity_instance():
    sol = solve_tcp(identity_instance(), FAST)
    assert isinstance(sol, TcpSolution)
    assert np.max(np.abs(sol.x - 1.0)) <= 1e-7
    assert sol.natural_residual <= 1e-10


def test_solve_nonnegative_q_is_zero(ref_tensor):
    sol = solve_tcp(TcpInstance(ref_tensor, np.array([0.5, 0.0, 1.0])), FAST)
    assert sol.method == "trivial_nonnegative_q"
    assert np.array_equal(sol.x, np.zeros(3))
    assert sol.natural_residual == 0.0


def test_solve_certified_p_tensor_with_grid_oracle():
    A = 5.0 * identity_tensor(3, 2) - all_ones_tensor(3, 2)
    inst = TcpInstance(A, np.array([-1.0, -1.0]))
    sol = solve_tcp(inst, FAST)
    assert isinstance(sol, TcpSolution)
    assert sol.natural_residual <= 1e-8
    xg, res = tcp_grid_argmin(A.data, inst.q)
    assert np.max(np.abs(sol.x - xg)) <= 2e-3
    # componentwise analysis gives exactly (1, 1)
    assert np.max(np.abs(sol.x - 1.0)) <= 1e-7


def test_solution_satisfies_all_three_conditions():
    A = random_sdd_tensor(4, 3, seed=9)
    inst = TcpInstance(A, np.array([-0.3, 0.4, -0.9]))
    sol = solve_tcp(inst, FAST)
    assert isinstance(sol, TcpSolution)
    f = tcp_F(inst, sol.x)
    tol = FAST.tol
    assert np.min(sol.x) >= -tol
    assert np.min(f) >= -tol
    assert abs(float(np.dot(sol.x, f))) <= tol * (1 + np.linalg.norm(sol.x) * np.linalg.norm(f))
    assert natural_residual(inst, sol.x) <= tol


def test_no_solution_found_is_a_result():
    inst = TcpInstance(-1.0 * identity_tensor(3, 2), np.array([-1.0, -1.0]))
    out = solve_tcp(inst, SearchBudget(seed=0, starts=4, iters=80))
    assert isinstance(out, NoSolutionFound)
    assert out.best_merit > 0.0
    assert out.starts_tried == 5
    obj = out.to_json_dict()
    assert obj["status"] == "no_solution_found"


def test_jacobian_analytic_vs_fd(rng):
    for seed in range(20):
        m = 3 if seed % 2 == 0 else 4
        A = symmetrize(Tensor(rng.uniform(-1, 1, size=(3,) * m)))
        inst = TcpInstance(A, rng.uniform(-1, 1, size=3))
        x = rng.uniform(0.2, 1.0, size=3)
        Ja = jacobian_F(inst, x)
        Jf = jacobian_fd(inst, x)
        scale = max(1.0, float(np.max(np.abs(Ja))))
        assert np.max(np.abs(Ja - Jf)) <= 1e-5 * scale


@settings(max_examples=150, deadline=None)
@given(m=st.integers(2, 5), n=st.integers(1, 4), symmetric=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_jacobian_is_exact(m, n, symmetric, seed):
    """jacobian_F is contract_m1_jacobian bit for bit on every tensor,
    flagged symmetric (where it reuses the partial contraction A x^{m-2})
    or not."""
    rng = np.random.default_rng(seed)
    A = Tensor(rng.uniform(-1, 1, size=(n,) * m))
    if symmetric:
        A = symmetrize(A)
    inst = TcpInstance(A, rng.uniform(-1, 1, size=n))
    x = rng.uniform(-2, 2, size=n)
    J, exact = jacobian_F(inst, x), contract_m1_jacobian(A, x)
    assert np.array_equal(J, exact)
    assert np.array_equal(np.signbit(J), np.signbit(exact))


# The solution set of explore_solutions(random_m_tensor(4, 4, 3), q = -1) with
# the default budget, as found with the finite-difference Jacobian.
MTENSOR_4X4_SOLUTIONS = [
    [0.994155080021388, 1.0070372881869183, 0.9787177482759908, 1.0194017575974377],
]


def test_explore_mtensor_solution_set_unchanged():
    inst = TcpInstance(random_m_tensor(4, 4, 3), -np.ones(4))
    ss = explore_solutions(inst, SearchBudget())
    assert len(ss.solutions) == len(MTENSOR_4X4_SOLUTIONS)
    for s, ref in zip(ss.solutions, MTENSOR_4X4_SOLUTIONS):
        assert float(np.max(np.abs(s.x - np.array(ref)))) <= DEDUP_RADIUS
        assert s.method == "fb_gauss_newton_analytic"
        assert tcp_residual_problems(inst.A.data, inst.q, s.x, SearchBudget().tol) == []


def test_homogeneity_of_shifted_map(rng):
    A = Tensor(rng.uniform(-1, 1, size=(3, 3, 3)))
    inst = TcpInstance(A, rng.uniform(-1, 1, size=3))
    f0 = tcp_F(inst, np.zeros(3))
    x = rng.uniform(-1, 1, size=3)
    g1 = tcp_F(inst, x) - f0
    for t in (0.5, 2.0, 3.7):
        gt = tcp_F(inst, t * x) - f0
        assert np.max(np.abs(gt - t ** (A.order - 1) * g1)) <= 1e-10 * max(
            1.0, float(np.max(np.abs(gt)))
        )


@pytest.mark.parametrize("fn", [tcp_F, jacobian_F, natural_residual, fb_merit])
def test_public_residuals_validate_x(fn):
    inst = TcpInstance(identity_tensor(3, 2), np.array([-1.0, -1.0]))
    with pytest.raises(DimensionError):
        fn(inst, np.ones(3))
    with pytest.raises(DegenerateInput):
        fn(inst, np.array([np.nan, 1.0]))


# The solver runs all starts in lockstep and reuses F across acceptance,
# Jacobian and line search; the reference loop runs one start and evaluates
# everything afresh through the public functions.
SOLVER_LOOP_CASES = {
    # most starts fail and end on the stall rule
    "mtensor-4x4": (random_m_tensor(4, 4, 3), -np.ones(4)),
    "sdd-5x4": (random_sdd_tensor(5, 4, 3), -np.ones(4)),
    "cauchy-3x4": (cauchy_tensor(random_cauchy_generating_vector(4, 2), 3),
                   np.random.default_rng(11).standard_normal(4) - 0.5),
    "identity-2x2": (identity_tensor(2, 2), np.array([-1.0, -2.0])),
}


@pytest.mark.parametrize("case", sorted(SOLVER_LOOP_CASES))
def test_solver_loop_matches_reference_bitwise(case):
    A, q = SOLVER_LOOP_CASES[case]
    inst = TcpInstance(A, q)
    budget = SearchBudget()
    capped = stalled = 0
    starts = tcp._starts(inst, budget)
    for x0, (sol, it, best) in zip(starts, tcp._solve_batch(inst, starts, budget), strict=True):
        ref_sol, ref_it, ref_best = tcp_solve_from_reference(inst, x0, budget)
        assert it == ref_it
        assert (sol is None) == (ref_sol is None)
        if sol is not None:
            assert np.array_equal(sol.x, ref_sol.x)
            assert sol.iterations == ref_sol.iterations
            assert sol.merit == ref_sol.merit
            assert sol.to_json_dict() == ref_sol.to_json_dict()
            assert tcp_residual_problems(A.data, q, sol.x, budget.tol) == []
        assert best[:2] == ref_best[:2]
        assert np.array_equal(best[2], ref_best[2])
        capped += it == budget.iters
        stalled += sol is None and it < budget.iters
    if case == "mtensor-4x4":
        assert capped == 0
        assert stalled > 0


def _mixed(rng, shape):
    """Entries of mixed magnitude, a fifth of them signed zeros."""
    a = rng.uniform(-1, 1, size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    a[rng.random(shape) < 0.2] *= 0.0
    return a


@settings(max_examples=60, deadline=None)
@given(m=st.integers(2, 6), n=st.integers(1, 5), symmetric=st.booleans(),
       iters=st.integers(1, 60), scale=st.sampled_from([1.0, 1e150, 1e300]),
       seed=st.integers(0, 2**32 - 1))
def test_solve_batch_rows_match_reference_bitwise(m, n, symmetric, iters, scale, seed):
    """Every row of the lockstep solver is the reference loop from that row
    alone, down to the sign of a zero: the iteration count, the solution's
    report, the best tuple, and a raise where the reference raises.  Flagged
    symmetric tensors (whose Jacobian reuses the partial contraction) and
    unflagged ones, m = 2..6, n = 1..5; tensors, q and starts of mixed
    magnitude with signed zeros, the zero start and a negative zero start,
    and tensors scaled up to 1e300, where first trials overflow."""
    if n**m > 3125:
        n = 3
    rng = np.random.default_rng(seed)
    A = Tensor(_mixed(rng, (n,) * m) * scale)
    if symmetric:
        A = symmetrize(A)
    inst = TcpInstance(A, _mixed(rng, n))
    X0 = np.vstack([np.zeros(n), -np.zeros(n), np.abs(_mixed(rng, (3, n))), _mixed(rng, (2, n))])
    budget = SearchBudget(iters=iters)
    for x0, got in zip(X0, tcp._solve_batch(inst, X0, budget), strict=True):
        try:
            ref = tcp_solve_from_reference(inst, x0, budget)
        except DegenerateInput:
            assert got is None
            continue
        assert got is not None
        (sol, it, best), (ref_sol, ref_it, ref_best) = got, ref
        assert it == ref_it
        assert (sol is None) == (ref_sol is None)
        if sol is not None:
            assert json.dumps(sol.to_json_dict()) == json.dumps(ref_sol.to_json_dict())
        assert best[:2] == ref_best[:2]
        assert np.array_equal(best[2], ref_best[2])
        assert np.array_equal(np.signbit(best[2]), np.signbit(ref_best[2]))


# (m, n) -> NoSolutionFound reports among the 12 instances of that shape
TCP_CORPUS = {(2, 1): 0, (2, 3): 4, (3, 1): 0, (3, 3): 1, (4, 2): 1, (4, 4): 3, (5, 3): 2,
              (3, 6): 0, (6, 3): 2}


@pytest.mark.parametrize("shape", sorted(TCP_CORPUS))
def test_solve_and_explore_match_sequential_walk(shape):
    """solve_tcp and explore_solutions report the bytes of the sequential
    walks over the reference loop: random_tensor at seeds 0-5, symmetric and
    not, with q = default_rng(100 + seed).standard_normal(n)."""
    m, n = shape
    unsolved = 0
    for seed in range(6):
        for symmetric in (True, False):
            inst = TcpInstance(random_tensor(m, n, seed=seed, symmetric=symmetric),
                               np.random.default_rng(100 + seed).standard_normal(n))
            got, ref = solve_tcp(inst).to_json_dict(), solve_tcp_reference(inst).to_json_dict()
            assert json.dumps(got) == json.dumps(ref)
            unsolved += ref["status"] == "no_solution_found"
            got = explore_solutions(inst).to_json_dict()
            assert json.dumps(got) == json.dumps(explore_solutions_reference(inst).to_json_dict())
    assert unsolved == TCP_CORPUS[shape]


# Instances near the float64 limit, with the sequential outcome per start
# (S solved, - not solved, R raised) and whether solve_tcp raises.
RAISE_CASES = {
    "zero-start-solves": (Tensor([[1e100]]), [-1e77], "SRRRRRRRRRRRRRRRR", False),
    "second-start-raises": (Tensor([[1e100]]), [-1e150], "-RRRRRRRRRRRRRRRR", True),
    "every-start-raises": (Tensor([[3.0]]), [-1e160], "RRRRRRRRRRRRRRRRR", True),
    "order-3": (random_tensor(3, 2, seed=0, symmetric=True) * 1e300,
                np.random.default_rng(0).standard_normal(2), "-RRRRRRRRRRRRRRRR", True),
}


@pytest.mark.parametrize("case", sorted(RAISE_CASES))
def test_solver_raises_where_the_sequential_walk_raised(case):
    """solve_tcp raises DegenerateInput exactly when the walk reaches a
    start whose first trial is not finite, and reports the walk's bytes
    otherwise; explore_solutions raises whenever any start raised."""
    A, q, outcomes, solve_raises = RAISE_CASES[case]
    inst = TcpInstance(A, q)
    budget = SearchBudget()
    starts = tcp._starts(inst, budget)
    got = ""
    for x0, res in zip(starts, tcp._solve_batch(inst, starts, budget), strict=True):
        try:
            ref = tcp_solve_from_reference(inst, x0, budget)
        except DegenerateInput:
            ref = None
        assert (res is None) == (ref is None)
        got += "R" if res is None else "-" if res[0] is None else "S"
    assert got == outcomes
    if solve_raises:
        for solve in (solve_tcp, solve_tcp_reference):
            with pytest.raises(DegenerateInput):
                solve(inst)
    else:
        assert json.dumps(solve_tcp(inst).to_json_dict()) == json.dumps(
            solve_tcp_reference(inst).to_json_dict())
    for explore in (explore_solutions, explore_solutions_reference):
        with pytest.raises(DegenerateInput):
            explore(inst)


@pytest.mark.parametrize("seed,symmetric", [(1, True), (2, False), (3, True), (3, False)])
def test_solver_emits_no_numpy_warnings(seed, symmetric):
    """Overflow to inf in the solver's batched arithmetic (mu, the diagonal
    shift, the FB terms) is part of the iteration, as it is in scalar float
    arithmetic, and stays silent."""
    inst = TcpInstance(random_tensor(6, 3, seed=seed, symmetric=symmetric),
                       np.random.default_rng(100 + seed).standard_normal(3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solve_tcp(inst)
        explore_solutions(inst)


# ---------------------------------------------------------------------------
# exploration


def test_explore_identity_unique_solution():
    ss = explore_solutions(identity_instance(), SearchBudget(seed=0, starts=20, iters=200))
    assert isinstance(ss, SolutionSet)
    assert len(ss.solutions) == 1
    assert np.max(np.abs(ss.solutions[0].x - 1.0)) <= 1e-7
    lo, hi = ss.bounding_box[0]
    assert abs(lo - 1.0) <= 1e-7 and abs(hi - 1.0) <= 1e-7


def test_explore_contains_zero_for_nonnegative_q(ref_tensor):
    ss = explore_solutions(TcpInstance(ref_tensor, np.array([1.0, 0.5, 0.2])), FAST)
    assert any(np.array_equal(s.x, np.zeros(3)) for s in ss.solutions)


def test_explore_matrix_lcp():
    inst = TcpInstance(identity_tensor(2, 2), np.array([-1.0, -2.0]))
    ss = explore_solutions(inst, FAST)
    assert len(ss.solutions) == 1
    assert np.max(np.abs(ss.solutions[0].x - np.array([1.0, 2.0]))) <= 1e-8


def test_explore_solutions_pairwise_distinct():
    A = random_sdd_tensor(3, 2, seed=4)
    ss = explore_solutions(TcpInstance(A, np.array([-1.0, -0.2])), FAST)
    for i, a in enumerate(ss.solutions):
        for b in ss.solutions[i + 1:]:
            assert np.max(np.abs(a.x - b.x)) > 1e-6


def test_explore_diagnostic_only_for_certified_failures():
    A = random_sdd_tensor(3, 2, seed=4)
    ss = explore_solutions(TcpInstance(A, np.array([-1.0, -0.2])), FAST)
    assert ss.diagnostic is None


def test_explore_decides_existence_by_the_p_certificate_rules():
    """Existence is decided by check_p's certificate rules: this M-tensor
    is not diagonally dominant but is a nonsingular H-tensor, so a search
    that finds nothing is a solver failure."""
    A = random_m_tensor(4, 4, 3)
    assert not is_diagonally_dominant(A, strict=True).certified
    inst = TcpInstance(A, -np.ones(4))
    ss = explore_solutions(inst, SearchBudget(starts=1, iters=1))
    assert not ss.solutions and ss.diagnostic is not None
    assert "solver failure" in ss.diagnostic


# ---------------------------------------------------------------------------
# instance files


def test_parse_tcp_instance_inline(ref_tensor, tmp_path):
    from ptensor.tensorio import tensor_to_json_dict, write_tensor

    obj = {"tensor": tensor_to_json_dict(ref_tensor), "q": [0.0, -1.0, 2.0]}
    inst = parse_tcp_instance(obj)
    assert inst.A.dim == 3 and np.array_equal(inst.q, [0.0, -1.0, 2.0])

    tpath = tmp_path / "t.json"
    write_tensor(ref_tensor, tpath)
    inst2 = parse_tcp_instance({"tensor": "t.json", "q": [0.0, 0.0, 0.0]}, base_dir=tmp_path)
    assert np.array_equal(inst2.A.data, ref_tensor.data)

    from ptensor import ParseError

    with pytest.raises(ParseError):
        parse_tcp_instance({"tensor": tensor_to_json_dict(ref_tensor), "q": [1.0]})
    with pytest.raises(ParseError):
        parse_tcp_instance({"q": [1.0]})
    with pytest.raises(ParseError, match="q entries must be finite"):
        parse_tcp_instance({"tensor": tensor_to_json_dict(ref_tensor), "q": [0, 10**400, 0]})


@pytest.mark.parametrize("m", [3, 4])
def test_tail_symmetric_is_a_on_partial_symmetry(m):
    # every slice A[i] is a scaled symmetric outer power: symmetric in
    # modes 2..m exactly, but not in mode 1
    n = 3
    rng = np.random.default_rng(m)
    data = np.stack([rng.uniform(0.5, 2.0) * outer_power(rng.uniform(-1.0, 1.0, n), m - 1).data
                     for _ in range(n)])
    A = Tensor(data)
    assert symmetry_deviation(A.data) > 0.0
    assert np.array_equal(_tail_symmetric(A), data)
    x = rng.uniform(-2.0, 2.0, n)
    J = jacobian_F(TcpInstance(A, rng.uniform(-1.0, 1.0, n)), x)
    assert np.array_equal(J, (m - 1) * _contract(data, x, m - 2))
    scale = max(1.0, float(np.max(np.abs(data))))
    bumped = data.copy()
    bumped[(0, 1) + (2,) * (m - 2)] += 2e-13 * scale
    B = _tail_symmetric(Tensor(bumped))
    assert not np.array_equal(B, bumped)
    assert np.array_equal(B, B.swapaxes(1, 2)) and np.array_equal(B, B.swapaxes(-1, -2))
