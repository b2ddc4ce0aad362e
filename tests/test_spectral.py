"""Spectral radius iteration and H-eigenpair search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ptensor import (
    DegenerateInput,
    NotNonnegative,
    SearchBudget,
    Tensor,
    all_ones_tensor,
    diagonal_tensor,
    identity_tensor,
    zero_tensor,
)
from ptensor.spectral import (
    EigenPair,
    _residual_objective,
    _sphere_minimize,
    eig_residual,
    find_h_eigenpairs,
    nqz_spectral_radius,
    verify_eigenpair,
)
from ptensor.classes import _form
from ptensor.core import _jacobian_stack, contract_full, symmetrize
from ptensor.generators import random_m_tensor, random_sdd_tensor, random_tensor
from oracles import (
    char_poly_real_roots,
    find_h_eigenpairs_reference,
    power_bracket_longrun,
    sphere_minimize_reference,
)


def test_rho_all_ones():
    res = nqz_spectral_radius(all_ones_tensor(3, 2))
    assert res.converged
    assert abs(res.rho - 4.0) <= 1e-8


def test_rho_diagonal_reducible():
    res = nqz_spectral_radius(diagonal_tensor([3.0, 5.0], 3))
    assert res.converged
    assert abs(res.rho - 5.0) <= 1e-6
    assert np.all(res.perron_vector > 0.0)


def test_rho_zero_tensor():
    res = nqz_spectral_radius(zero_tensor(3, 2))
    assert res.rho == 0.0 and res.converged


def test_rho_rejects_negative_entries():
    with pytest.raises(NotNonnegative):
        nqz_spectral_radius(-1.0 * identity_tensor(3, 2))


def test_rho_matches_longrun_oracle():
    rng = np.random.default_rng(77)
    data = rng.uniform(0.0, 1.0, size=(3, 3, 3))
    res = nqz_spectral_radius(Tensor(data))
    lo, hi = power_bracket_longrun(data, shift=1e-12)
    # unshifted radius sits in [lo - 1e-12 * 9, hi]
    assert lo - 1e-11 - 1e-6 <= res.rho <= hi + 1e-6


def test_bracket_monotone():
    """The bracket after k steps nests in the one after k - 1, for every k
    up to the converged iteration count."""
    rng = np.random.default_rng(3)
    B = Tensor(rng.uniform(0.0, 1.0, size=(3, 3, 3)))
    res = nqz_spectral_radius(B)
    assert res.converged and res.iterations > 1
    brackets = [nqz_spectral_radius(B, max_iter=k).bracket for k in range(1, res.iterations + 1)]
    assert brackets[-1] == res.bracket
    for (lo0, hi0), (lo1, hi1) in zip(brackets, brackets[1:]):
        assert lo1 >= lo0 - 1e-12
        assert hi1 <= hi0 + 1e-12


def test_rho_scale_covariance():
    rng = np.random.default_rng(9)
    data = rng.uniform(0.1, 1.0, size=(3, 3, 3))
    base = nqz_spectral_radius(Tensor(data)).rho
    for c in (0.5, 1.7, 2.0):
        scaled = nqz_spectral_radius(Tensor(c * data)).rho
        assert abs(scaled - c * base) <= 1e-8 * max(1.0, abs(c * base))


def test_converged_false_on_tiny_budget():
    rng = np.random.default_rng(5)
    res = nqz_spectral_radius(Tensor(rng.uniform(0.0, 1.0, size=(3, 3, 3))), max_iter=2)
    assert not res.converged


def test_find_pairs_diagonal_tensor():
    D = diagonal_tensor([1.0, 2.0, 3.0], 3)
    pairs = find_h_eigenpairs(D, SearchBudget(seed=0, starts=50))
    lams = sorted(round(p.value, 8) for p in pairs)
    assert lams == [1.0, 2.0, 3.0]
    for p in pairs:
        i = int(np.argmax(np.abs(p.vector)))
        assert abs(p.vector[i] - 1.0) <= 1e-9


def test_find_pairs_identity_even_order():
    pairs = find_h_eigenpairs(identity_tensor(4, 2), SearchBudget(seed=0, starts=20))
    assert pairs
    for p in pairs:
        assert abs(p.value - 1.0) <= 1e-8


def test_find_pairs_reference_all_positive(ref_tensor):
    pairs = find_h_eigenpairs(ref_tensor, SearchBudget(seed=0, starts=60))
    assert pairs
    for p in pairs:
        assert p.value > 0.0


def test_every_found_pair_verifies(ref_tensor):
    budget = SearchBudget(seed=0, starts=40)
    for A in (ref_tensor, diagonal_tensor([1.0, 2.0], 4), identity_tensor(3, 3)):
        for p in find_h_eigenpairs(A, budget):
            assert verify_eigenpair(A, p, budget.tol)
            # stored residual recomputable, normalized vector
            assert abs(eig_residual(A, p.value, p.vector) - p.residual) <= 1e-12
            assert abs(np.max(np.abs(p.vector)) - 1.0) <= 1e-12


def test_matrix_pairs_subset_of_char_poly_roots(rng):
    for n in (2, 3, 4):
        M = rng.uniform(-1, 1, size=(n, n))
        M = 0.5 * (M + M.T)
        A = Tensor(M, symmetric=True)
        roots = char_poly_real_roots(M)
        pairs = find_h_eigenpairs(A, SearchBudget(seed=1, starts=40))
        assert pairs
        for p in pairs:
            assert np.min(np.abs(roots - p.value)) <= 1e-6


def test_verify_eigenpair_examples():
    I3 = identity_tensor(3, 2)
    e0 = np.array([1.0, 0.0])
    assert verify_eigenpair(I3, EigenPair(1.0, e0, 0.0), 1e-9)
    assert not verify_eigenpair(I3, EigenPair(2.0, e0, 0.0), 1e-9)
    with pytest.raises(DegenerateInput):
        verify_eigenpair(I3, EigenPair(1.0, np.zeros(2), 0.0), 1e-9)


def test_deterministic_across_runs(ref_tensor):
    b = SearchBudget(seed=4, starts=25)
    p1 = find_h_eigenpairs(ref_tensor, b)
    p2 = find_h_eigenpairs(ref_tensor, b)
    assert len(p1) == len(p2)
    for a, b_ in zip(p1, p2):
        assert a.value == b_.value
        assert np.array_equal(a.vector, b_.vector)


_SEARCH_CASES = [
    (kind, m, n)
    for m, n in [(2, 3), (2, 4), (3, 3), (3, 4), (4, 3), (4, 4), (3, 6)]
    for kind in ("random", "symmetric", "sdd", "m")
]


def _search_case(kind, m, n):
    s = 8000 + 100 * m + 10 * n
    if kind == "sdd":
        return random_sdd_tensor(m, n, seed=s)
    if kind == "m":
        return random_m_tensor(m, n, seed=s)
    return random_tensor(m, n, seed=s, symmetric=kind == "symmetric")


@pytest.mark.parametrize("case", _SEARCH_CASES, ids=str)
@pytest.mark.parametrize(
    "budget", [SearchBudget(), SearchBudget(seed=3, starts=4, iters=30)], ids=["default", "small"]
)
def test_find_h_eigenpairs_matches_validating_reference(case, budget):
    """The search on the private kernels, one contraction per point,
    returns the pairs of the search as first written, bit for bit."""
    A = _search_case(*case)
    got = [p.to_json_dict() for p in find_h_eigenpairs(A, budget)]
    assert got == [p.to_json_dict() for p in find_h_eigenpairs_reference(A, budget)]


# ---------------------------------------------------------------------------
# the sphere minimiser


def _rayleigh(M):
    """The Rayleigh quotient x . M x and its gradient 2 M x at every row x
    of X, for a symmetric M, each row from its own dots."""
    def f(X):
        MX = np.vecdot(X[:, None, :], M)
        return np.vecdot(X, MX), 2.0 * MX
    return f


@settings(max_examples=200, deadline=None)
@given(
    B=st.integers(2, 6).flatmap(
        lambda n: arrays(np.int64, (n, n), elements=st.integers(-1000, 1000))),
    k=st.integers(-20, 20),
    seed=st.integers(0, 2**32 - 1),
)
def test_sphere_minimize_reaches_smallest_eigenvalue(B, k, seed):
    """Every local minimum of a Rayleigh quotient on the sphere is global,
    so from a random start the minimiser ends at the smallest eigenvalue.
    Entries are integers times 2^k: with an entry whose square underflows,
    LAPACK's eigvalsh itself can be off in the fifth digit."""
    M = 2.0 ** k * 0.5 * (B + B.T)
    z0 = np.random.default_rng(seed).standard_normal(M.shape[0])
    z = _sphere_minimize(_rayleigh(M), z0[None], maxiter=200, ftol=1e-18, gtol=1e-14)[0]
    x = z / np.linalg.norm(z)
    bound = np.linalg.eigvalsh(M)[0] + 1e-9 * max(1.0, np.linalg.norm(M))
    assert x @ M @ x <= bound


def test_sphere_minimize_is_deterministic():
    """is_psd's objective, the form of the symmetric part of a
    non-symmetric A, ends at the same point on every run, one where A's own
    form is lower than at the start."""
    A = random_tensor(4, 4, seed=5)
    S = symmetrize(A)
    z0 = np.random.default_rng(5).standard_normal(4)
    z1, z2 = (_sphere_minimize(lambda X: _form(S, X), z0[None], maxiter=200, ftol=1e-16)[0]
              for _ in range(2))
    assert np.array_equal(z1, z2)
    assert not np.array_equal(z1, z0)
    assert contract_full(A, z1 / np.linalg.norm(z1)) < contract_full(A, z0 / np.linalg.norm(z0))


def test_sphere_minimize_non_finite_start_returns_it():
    z0 = np.array([0.6, 0.8])
    z = _sphere_minimize(lambda X: (np.full(len(X), np.inf), np.zeros(X.shape)), z0[None],
                         maxiter=50, ftol=1e-16)[0]
    assert np.array_equal(z, z0)
    nan_grad = _sphere_minimize(lambda X: (np.ones(len(X)), np.full(X.shape, np.nan)), z0[None],
                                maxiter=50, ftol=1e-16)[0]
    assert np.array_equal(nan_grad, z0)


def test_sphere_minimize_non_finite_trial_counts_as_failed_step():
    """A value that is infinite away from the start shortens the step
    instead of raising or moving there."""
    rayleigh = _rayleigh(np.diag([1.0, -1.0]))

    def f(X):
        val, g = rayleigh(X)
        return np.where(X[:, 1] > 0.9, np.inf, val), g

    z0 = np.array([1.0, 0.1])
    z = _sphere_minimize(f, z0[None], maxiter=100, ftol=1e-18)[0]
    x = z / np.linalg.norm(z)
    assert np.all(np.isfinite(z)) and x[1] <= 0.9
    assert f(x[None])[0][0] < f((z0 / np.linalg.norm(z0))[None])[0][0]


def _bits(Z):
    """The bytes of Z, so that equality also compares the sign of a zero
    and the payload of a nan."""
    return np.ascontiguousarray(Z, dtype=float).tobytes()


def _rowwise(F):
    """F on one vector: what the sequential minimiser takes."""
    def f(x):
        val, g = F(x[None])
        return float(val[0]), g[0]
    return f


def _with_traps(F, cut, low):
    """F with four regions added on the sphere: a cap x_0 >= 1 - 1e-9
    where the gradient is zero (a start there stops on gtol before its
    first step), a cap x_0 <= -(1 - 1e-9) where it is nan (a non-finite
    start), the region x_1 > cut where the value is inf, so that long
    trials fail as non-finite, and where x_{n-1} < 0 and the value is below
    low, the gradient reversed: a step that ends there leaves memory whose
    next line search fails, so the memory is dropped."""
    def trapped(X):
        val, g = F(X)
        g = np.where(((val < low) & (X[:, -1] < 0.0))[:, None], -g, g)
        g = np.where(X[:, :1] >= 1.0 - 1e-9, 0.0, g)
        g = np.where(X[:, :1] <= -(1.0 - 1e-9), np.nan, g)
        return np.where(X[:, 1] > cut, np.inf, val), g
    return trapped


def _objective(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "rayleigh":
        M = rng.integers(-1000, 1001, (n, n)) * 2.0 ** int(rng.integers(-20, 21))
        return _rayleigh(0.5 * (M + M.T))
    if kind == "form":
        S = symmetrize(random_tensor(4, n, seed=seed))
        return lambda X: _form(S, X)
    A = random_tensor(int(rng.integers(2, 5)), n, seed=seed)
    stack = _jacobian_stack(A)
    return lambda X: _residual_objective(stack, X)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["rayleigh", "form", "residual"]),
    n=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
    starts=st.integers(16, 24),
    maxiter=st.integers(2, 12),
    cut=st.floats(0.1, 0.4),
    ftol=st.sampled_from([1e-18, 1e-16, 1e-8]),
    gtol=st.sampled_from([1e-14, 1e-5]),
)
def test_sphere_minimize_rows_are_the_sequential_walks(kind, n, seed, starts, maxiter, cut,
                                                       ftol, gtol):
    """Every row of the lockstep minimiser is the point that the
    sequential minimiser returns from that row alone, bit for bit.  Each
    batch holds a zero row, a start with an inf entry, a start where the
    gradient is nan, one where it is zero (a gtol stop before the first
    step) and random starts on Rayleigh, form or residual objectives with
    the traps of _with_traps.  On 90 draws of these settings, 96 % of the
    batches met a non-finite trial, 97 % a memory drop and 79 % a start
    that reached maxiter (73 % all three)."""
    F0 = _objective(kind, n, seed)
    rng = np.random.default_rng(seed ^ 0x5eed)
    R = rng.standard_normal((starts, n))
    F = _with_traps(F0, cut, float(np.min(F0(R / np.linalg.norm(R, axis=1)[:, None])[0])))
    e0 = np.eye(n)[0]
    Z0 = np.concatenate([[np.zeros(n), np.r_[np.inf, np.ones(n - 1)], -e0, e0], R])
    Z0 = Z0[rng.permutation(len(Z0))]
    Z = _sphere_minimize(F, Z0, maxiter=maxiter, ftol=ftol, gtol=gtol)
    f = _rowwise(F)
    with np.errstate(invalid="ignore"):  # the inf start's z / ||z||
        walks = [sphere_minimize_reference(f, z0, maxiter, ftol, gtol) for z0 in Z0]
    for z, walk in zip(Z, walks):
        assert _bits(z) == _bits(walk)
