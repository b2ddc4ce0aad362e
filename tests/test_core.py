"""Tensor storage, contractions and structural transforms."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ptensor import (
    DegenerateInput,
    SearchBudget,
    DimensionError,
    Tensor,
    all_ones_tensor,
    comparison_tensor,
    contract_full,
    contract_m1,
    contract_m1_jacobian,
    embed_vector,
    hadamard_power,
    identity_tensor,
    is_diagonal_index,
    outer_power,
    principal_subtensor,
    support,
    symmetrize,
    zero_tensor,
)
from ptensor.core import (
    _contract,
    _contract_batch,
    _orbit_index_map,
    _orbit_mean,
    _tail_symmetric,
    contract_m1_batch,
    diagonal_index,
    symmetry_deviation,
)
from ptensor.generators import random_m_tensor, random_sdd_tensor, random_tensor
from oracles import (
    brute_contract_full,
    brute_contract_m1,
    jacobian_mode_sum,
    jacobian_rounding_excess,
    symmetrize_brute,
)


def test_tensor_validation():
    with pytest.raises(DimensionError):
        Tensor(np.zeros(3))  # order 1
    with pytest.raises(DimensionError):
        Tensor(np.zeros((2, 3)))  # not hypercubic
    with pytest.raises(DegenerateInput):
        Tensor(np.array([[np.nan, 0.0], [0.0, 0.0]]))


def test_tensor_is_immutable():
    A = identity_tensor(3, 2)
    with pytest.raises(ValueError):
        A.data[0, 0, 0] = 5.0


def test_values_row_major_linearization():
    data = np.arange(8.0).reshape(2, 2, 2)
    A = Tensor(data)
    # idx = i1*n^2 + i2*n + i3
    for idx in itertools.product(range(2), repeat=3):
        flat = idx[0] * 4 + idx[1] * 2 + idx[2]
        assert A.values[flat] == data[idx]


def test_is_diagonal_index():
    assert is_diagonal_index((1, 1, 1))
    assert not is_diagonal_index((0, 1, 1))


def test_contract_m1_identity_case():
    A = identity_tensor(3, 2)
    out = contract_m1(A, np.array([2.0, 3.0]))
    assert np.array_equal(out, np.array([4.0, 9.0]))


def test_contract_m1_reference_values(ref_tensor):
    y = np.array([0.0, 1.0, -1.0])
    out = contract_m1(ref_tensor, y)
    # second and third components are the known exact refutation values
    assert abs(out[1] - (-0.5)) <= 1e-12
    assert abs(out[2] - (-1.0)) <= 1e-12
    # first component from the loop oracle (= 2: the two pure off terms)
    oracle = brute_contract_m1(ref_tensor.data, y)
    assert abs(out[0] - 2.0) <= 1e-12
    assert np.allclose(out, oracle, atol=1e-12)


def test_contract_m1_dimension_mismatch(ref_tensor):
    with pytest.raises(DimensionError):
        contract_m1(ref_tensor, np.ones(4))


def test_contract_full_examples(ref_tensor):
    assert contract_full(zero_tensor(3, 3), np.array([1.0, -2.0, 0.5])) == 0.0
    assert contract_full(identity_tensor(4, 2), np.array([1.0, 1.0])) == 2.0
    y = np.array([0.0, 1.0, -1.0])
    val = contract_full(ref_tensor, y)
    assert abs(val - 0.5) <= 1e-12
    assert abs(val - brute_contract_full(ref_tensor.data, y)) <= 1e-12


def test_hadamard_power():
    assert np.array_equal(hadamard_power([2.0, -3.0], 2), [4.0, 9.0])
    assert np.array_equal(hadamard_power([2.0, -3.0], 3), [8.0, -27.0])
    x = np.array([0.3, -1.7, 2.0])
    assert np.array_equal(hadamard_power(x, 1), x)
    with pytest.raises(ValueError):
        hadamard_power(x, -1)


def test_principal_subtensor_identity_and_single(ref_tensor):
    n = ref_tensor.dim
    full = principal_subtensor(ref_tensor, range(n))
    assert np.array_equal(full.data, ref_tensor.data)
    single = principal_subtensor(ref_tensor, [0])
    assert single.dim == 1
    assert single.data.reshape(-1)[0] == 100.0


def test_principal_subtensor_reference_block(ref_tensor):
    sub = principal_subtensor(ref_tensor, [1, 2])
    # read off by brute-force index mapping
    s = [1, 2]
    for idx in itertools.product(range(2), repeat=3):
        mapped = tuple(s[i] for i in idx)
        assert sub.data[idx] == ref_tensor.data[mapped]
    assert sub.data[0, 0, 0] == 3.0
    assert sub.data[0, 0, 1] == 3.0
    assert sub.data[0, 1, 1] == 2.5
    assert sub.data[1, 1, 1] == 1.0
    assert sub.symmetric


def test_principal_subtensor_errors(ref_tensor):
    with pytest.raises(IndexError):
        principal_subtensor(ref_tensor, [0, 5])
    with pytest.raises(IndexError):
        principal_subtensor(ref_tensor, [1, 1])
    with pytest.raises(IndexError):
        principal_subtensor(ref_tensor, [])


def test_principal_subtensor_composes(rng):
    A = Tensor(rng.uniform(-1, 1, size=(4, 4, 4)))
    once = principal_subtensor(principal_subtensor(A, [0, 1, 3]), [0, 2])
    direct = principal_subtensor(A, [0, 3])
    assert np.array_equal(once.data, direct.data)


def test_comparison_tensor_examples():
    # nonnegative-diagonal Z-tensor maps to itself
    A = 5.0 * identity_tensor(3, 2) - all_ones_tensor(3, 2)
    assert np.array_equal(comparison_tensor(A).data, A.data)
    assert A.data[0, 0, 0] == 4.0 and A.data[0, 0, 1] == -1.0


def test_comparison_tensor_idempotent_and_sign_canonical(rng):
    for _ in range(5):
        A = Tensor(rng.uniform(-2, 2, size=(3, 3, 3)))
        M = comparison_tensor(A)
        assert np.array_equal(comparison_tensor(M).data, M.data)
        diag = M.diagonal()
        assert np.all(diag >= 0.0)
        off = M.data.copy()
        idx = np.arange(3)
        off[idx, idx, idx] = 0.0
        assert np.all(off <= 0.0)


def test_symmetrize_matrix_example():
    A = Tensor(np.array([[0.0, 1.0], [0.0, 0.0]]))
    S = symmetrize(A)
    assert np.array_equal(S.data, np.array([[0.0, 0.5], [0.5, 0.0]]))
    assert S.symmetric


def test_symmetrize_preserves_form_and_projects(rng):
    A = Tensor(rng.uniform(-1, 1, size=(2, 2, 2)))
    S = symmetrize(A)
    for _ in range(10):
        x = rng.uniform(-1, 1, size=2)
        assert abs(contract_full(A, x) - contract_full(S, x)) <= 1e-12
    SS = symmetrize(S)
    assert np.max(np.abs(SS.data - S.data)) <= 1e-15
    # symmetric input passes through
    assert symmetry_deviation(symmetrize(S).data) == 0.0


@pytest.mark.parametrize("shape", [(3, 3), (6, 4), (7, 2), (7, 3), (8, 2)])
def test_symmetrize_is_the_mean_of_all_transposes(shape):
    """The orbit mean equals the m!-transpose average to 1e-13 of the largest
    entry, at orders up to 8."""
    m, n = shape
    A = Tensor(np.random.default_rng(m * 10 + n).uniform(-1, 1, size=(n,) * m))
    S = symmetrize(A)
    assert S.symmetric and symmetry_deviation(S.data) == 0.0
    scale = max(1.0, float(np.max(np.abs(A.data))))
    assert np.max(np.abs(S.data - symmetrize_brute(A.data))) <= 1e-13 * scale


def test_symmetrize_exactly_invariant_at_order_12(rng):
    S = symmetrize(Tensor(rng.uniform(-1, 1, size=(2,) * 12)))
    assert symmetry_deviation(S.data) == 0.0
    for _ in range(5):
        assert np.array_equal(S.data.transpose(rng.permutation(12)), S.data)


def test_outer_power_examples():
    e0 = np.array([1.0, 0.0])
    T = outer_power(e0, 3)
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 0] = 1.0
    assert np.array_equal(T.data, expected)
    ones = outer_power(np.array([1.0, 1.0]), 3)
    assert np.array_equal(ones.data, np.ones((2, 2, 2)))
    U = outer_power(np.array([1.0, 2.0]), 3)
    assert U.data[1, 1, 0] == 4.0
    with pytest.raises(ValueError):
        outer_power(e0, 1)


def test_support_examples():
    assert np.array_equal(support(np.array([0.0, 1.0, -1.0])), [1, 2])
    assert np.array_equal(support(np.array([1e-20, 1.0])), [1])
    assert np.array_equal(support(np.array([3.0, 3.0, 3.0])), [0, 1, 2])
    with pytest.raises(DegenerateInput):
        support(np.zeros(3))


def test_embed_vector():
    z = embed_vector([1.0, -2.0], [0, 2], 4)
    assert np.array_equal(z, [1.0, 0.0, -2.0, 0.0])


def test_homogeneity_invariant(rng):
    A = Tensor(rng.uniform(-1, 1, size=(3, 3, 3)))
    x = rng.uniform(-1, 1, size=3)
    for _ in range(10):
        t = rng.uniform(-2, 2)
        if abs(t) < 1e-3:
            continue
        lhs = contract_m1(A, t * x)
        rhs = t ** (A.order - 1) * contract_m1(A, x)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))


def test_inner_product_consistency(rng):
    for m in (2, 3, 4):
        A = Tensor(rng.uniform(-1, 1, size=(3,) * m))
        x = rng.uniform(-1, 1, size=3)
        lhs = float(np.dot(x, contract_m1(A, x)))
        assert abs(lhs - contract_full(A, x)) <= 1e-12


def test_jacobian_matches_finite_differences(rng):
    for m in (2, 3, 4):
        A = Tensor(rng.uniform(-1, 1, size=(3,) * m))
        x = rng.uniform(0.2, 1.0, size=3)
        J = contract_m1_jacobian(A, x)
        h = 1e-7
        for j in range(3):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fd = (contract_m1(A, xp) - contract_m1(A, xm)) / (2 * h)
            assert np.max(np.abs(J[:, j] - fd)) <= 1e-5 * max(1.0, np.max(np.abs(J)))


_MIXED = st.one_of(
    st.just(0.0),
    st.floats(-1e-6, 1e-6, allow_subnormal=False),
    st.floats(-1.0, 1.0),
    st.floats(-1e6, 1e6),
)
_ROW_SHAPES = [(m, n) for m in range(2, 7) for n in range(1, 9) if n**m <= 300_000]


@settings(max_examples=200, deadline=None)
@given(shape=st.sampled_from(_ROW_SHAPES), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_jacobian_row_equals_full_jacobian_row_bitwise(shape, seed, data):
    """The row path the descents use, (m-1) * _contract_batch(B, X, m-2,
    rows) with B = _tail_symmetric(A), gives row i of
    contract_m1_jacobian exactly, for every i, on unflagged tensors and
    (odd seeds) flagged symmetric ones."""
    m, n = shape
    rng = np.random.default_rng(seed)
    A = Tensor(rng.uniform(-1, 1, size=(n,) * m) * 10.0 ** rng.integers(-6, 7, size=(n,) * m))
    x = data.draw(arrays(np.float64, n, elements=_MIXED))
    if seed % 2:
        A = symmetrize(A)
    J = contract_m1_jacobian(A, x)
    rows = (m - 1) * _contract_batch(_tail_symmetric(A), np.tile(x, (n, 1)), m - 2,
                                     rows=np.arange(n))
    assert np.array_equal(rows, J)
    assert np.array_equal(np.signbit(rows), np.signbit(J))


_LOCKSTEP_SHAPES = [(m, n) for m in range(2, 9) for n in range(1, 9) if n**m <= 40_000]


@settings(max_examples=150, deadline=None)
@given(shape=st.sampled_from(_LOCKSTEP_SHAPES), p=st.integers(0, 30),
       seed=st.integers(0, 2**32 - 1))
@example(shape=(8, 3), p=30, seed=0)
@example(shape=(4, 3), p=1, seed=1)
@example(shape=(4, 3), p=2, seed=2)
@example(shape=(6, 8), p=130, seed=3)
@example(shape=(5, 1), p=7, seed=4)
@example(shape=(3, 15), p=40, seed=5)
@example(shape=(3, 16), p=40, seed=6)
@example(shape=(3, 6), p=193, seed=7)
@example(shape=(3, 6), p=742, seed=8)
def test_batched_kernels_equal_single_vector_kernels_bitwise(shape, p, seed):
    """Row r of the lockstep kernels is exactly the single-vector kernel at
    X[r], down to the sign of a zero: _contract_batch gives
    _contract(data, X[r], k) for k = m-1 and k = m-2 (the solver's partial
    contraction), and with rows it gives entry i = rows[r] of the k = m-2
    one, so (m-1) times it is row i of contract_m1_jacobian, at orders 2-8,
    for 0-30 rows (entries of mixed magnitude, a fifth of them signed
    zeros) and repeated row indices.  The examples pin the edges of the
    first-stage product: one row (which keeps the ddot path) and two; three
    row chunks of 61 at (6, 8); n = 1; n = 15 and 16, on either side of
    core._PRODUCT_MAX_DIM; and 193 and 742 rows (the sign battery at
    n = 6), past core._PRODUCT_MAX_ROWS."""
    m, n = shape
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1, 1, size=(n,) * m) * 10.0 ** rng.integers(-6, 7, size=(n,) * m)
    X = rng.uniform(-1, 1, size=(p, n)) * 10.0 ** rng.integers(-6, 7, size=(p, n))
    for a in (A, X):
        a[rng.random(a.shape) < 0.2] *= 0.0
    rows = rng.integers(0, n, size=p)
    B = _tail_symmetric(Tensor(A))
    C, R = _contract_batch(A, X, m - 1), _contract_batch(A, X, m - 2, rows=rows)
    T, J = _contract_batch(A, X, m - 2), (m - 1) * _contract_batch(B, X, m - 2, rows=rows)
    assert C.shape == R.shape == J.shape == (p, n)
    assert T.shape == (p, n, n)
    for x, i, c, r, t, j in zip(X, rows, C, R, T, J):
        for got, ref in ((c, _contract(A, x, m - 1)),
                         (r, _contract(A, x, m - 2)[i]),
                         (t, _contract(A, x, m - 2)),
                         (j, contract_m1_jacobian(Tensor(A), x)[i])):
            assert np.array_equal(got, ref)
            assert np.array_equal(np.signbit(got), np.signbit(ref))


@pytest.mark.parametrize("probe", [False, True])
def test_contract_batch_takes_the_product_only_where_the_probe_holds(probe, monkeypatch):
    """_contract_batch's first stage is core._first_stage only when
    core._product_sums_as_ddot holds (forced false here, or this BLAS's own
    answer); either way every stage gives the same bits, with and without
    rows, at the product's edges."""
    from ptensor import core

    calls = []
    first_stage = core._first_stage
    monkeypatch.setattr(core, "_first_stage",
                        lambda d, x: calls.append(len(x)) or first_stage(d, x))
    if not probe:
        monkeypatch.setattr(core, "_product_sums_as_ddot", lambda: False)
    rng = np.random.default_rng(9)
    for (m, n), p in (((3, 15), 2), ((4, 5), 193), ((6, 8), 130)):
        A = rng.uniform(-1, 1, size=(n,) * m) * 10.0 ** rng.integers(-6, 7, size=(n,) * m)
        X = rng.uniform(-1, 1, size=(p, n))
        A[rng.random(A.shape) < 0.2] *= 0.0
        rows = rng.integers(0, n, size=p)
        C, R = _contract_batch(A, X, m - 1), _contract_batch(A, X, m - 2, rows=rows)
        for x, i, c, r in zip(X, rows, C, R):
            assert c.tobytes() == _contract(A, x, m - 1).tobytes()
            assert r.tobytes() == _contract(A, x, m - 2)[i].tobytes()
    assert bool(calls) == (probe and core._product_sums_as_ddot())
    assert max(calls, default=0) <= core._PRODUCT_MAX_ROWS


def _tail_symmetric_data(rng, m, n):
    """Entries symmetric in modes 2..m exactly but, for m >= 3 and n >= 2,
    not in mode 1: every slice A[i] is symmetrized on its own."""
    data = rng.uniform(-1, 1, size=(n,) * m) * 10.0 ** rng.integers(-3, 4, size=(n,) * m)
    if m == 2:
        return data
    return np.stack([symmetrize(Tensor(a)).data for a in data])


_JACOBIAN_SHAPES = [(m, n) for m in range(2, 7) for n in range(1, 6)]


@settings(max_examples=60, deadline=None)
@given(shape=st.sampled_from(_JACOBIAN_SHAPES), kind=st.sampled_from(["flagged", "unflagged",
                                                                        "tail"]),
       seed=st.integers(0, 2**32 - 1))
@example(shape=(6, 5), kind="unflagged", seed=0)
@example(shape=(6, 5), kind="tail", seed=1)
def test_jacobian_is_within_rounding_of_the_exact_one(shape, kind, seed):
    """contract_m1_jacobian, (m-1) * B x^{m-2}, lies within an a-priori
    rounding bound of the exact rational Jacobian, at m = 2..6, n = 1..5,
    on symmetric tensors flagged as such, on unflagged tensors, and on
    tensors symmetric in modes 2..m only; so does the mode sum of m-1
    contractions it replaced."""
    m, n = shape
    rng = np.random.default_rng(seed)
    if kind == "tail":
        data = _tail_symmetric_data(rng, m, n)
    else:
        data = rng.uniform(-1, 1, size=(n,) * m) * 10.0 ** rng.integers(-3, 4, size=(n,) * m)
    A = symmetrize(Tensor(data)) if kind == "flagged" else Tensor(data)
    x = rng.uniform(-2, 2, size=n)
    J, old = contract_m1_jacobian(A, x), jacobian_mode_sum(A.data, x)
    assert jacobian_rounding_excess(A.data, x, J, old) == []


@settings(max_examples=60, deadline=None)
@given(m=st.integers(2, 6), n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
@example(m=3, n=2, seed=0)
def test_symmetrize_is_idempotent_and_keeps_constant_orbits(m, n, seed):
    """symmetrize returns a symmetric tensor bit for bit, so it is
    idempotent; an orbit whose entries are all equal keeps them (a constant
    0.1 tensor stays 0.1, where a mean of three 0.1s is 0.10000000000000002);
    and B = _tail_symmetric(A) is A's own entries bit for bit when A is
    symmetric in modes 2..m, flagged or not."""
    rng = np.random.default_rng(seed)
    data = rng.uniform(-1, 1, size=(n,) * m) * 10.0 ** rng.integers(-3, 4, size=(n,) * m)
    S = symmetrize(Tensor(data))
    assert np.array_equal(symmetrize(S).data, S.data)
    assert np.array_equal(symmetrize(Tensor(S.data)).data, S.data)
    const = np.full((n,) * m, rng.uniform(-1, 1))
    assert np.array_equal(symmetrize(Tensor(const)).data, const)
    assert np.array_equal(symmetrize(Tensor(np.full((2,) * 3, 0.1))).data, np.full((2,) * 3, 0.1))
    tail = _tail_symmetric_data(rng, m, n)
    for T in (Tensor(tail), S, Tensor(S.data)):
        assert np.array_equal(_tail_symmetric(T), T.data)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tail_symmetric_orbit_means_do_not_overflow():
    """When orbit sums of the stored entries overflow, B = _tail_symmetric(A)
    averages the orbits of core._scaled's copy and scales back: on entries
    uniform in [0.5, 1) times 1.5e308 every entry of B is finite, lies
    between the least and the largest entry of its orbit, and B is
    symmetric in modes 2..m."""
    A = Tensor(np.random.default_rng(0).uniform(0.5, 1.0, (3, 3, 3)) * 1.5e308)
    B = _tail_symmetric(A)
    assert np.all(np.isfinite(B))
    assert np.array_equal(B, B.swapaxes(1, 2))
    lo = np.minimum(A.data, A.data.swapaxes(1, 2))
    hi = np.maximum(A.data, A.data.swapaxes(1, 2))
    assert np.all((lo <= B) & (B <= hi))
    assert np.all(np.isfinite(contract_m1_jacobian(A, np.array([0.3, -0.5, 0.8]) / 16)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_symmetrize_orbit_means_do_not_overflow():
    """symmetrize shares _tail_symmetric's overflow path: where an orbit
    sum of the stored entries overflows, the means are taken times 2^-e and
    scaled back, so the result is finite and exactly symmetric."""
    A = Tensor(np.random.default_rng(0).uniform(0.5, 1.0, (3, 3, 3)) * 1.5e308)
    S = symmetrize(A)
    assert np.all(np.isfinite(S.data))
    assert symmetry_deviation(S.data) == 0.0


@pytest.mark.parametrize("m, n", [(2, 3), (3, 3), (3, 4), (4, 3), (4, 4), (3, 6), (5, 3), (6, 3)])
@pytest.mark.parametrize("kind", ["random", "sdd", "m", "scaled"])
def test_tail_symmetric_is_the_unscaled_orbit_mean(kind, m, n):
    """On the tier-1 search tensors, unflagged, at scale 1 and 3e-5, B is
    the orbit mean of the stored entries bit for bit."""
    s = 8000 + 100 * m + 10 * n
    if kind == "sdd":
        A = random_sdd_tensor(m, n, seed=s)
    elif kind == "m":
        A = random_m_tensor(m, n, seed=s)
    else:
        A = random_tensor(m, n, seed=s) * (3.0e-5 if kind == "scaled" else 1.0)
    B, ref = _tail_symmetric(A), _orbit_mean(A.data, 1)
    assert np.array_equal(B, ref) and np.array_equal(np.signbit(B), np.signbit(ref))


def test_orbit_index_map_is_cached_and_read_only():
    rep = _orbit_index_map(4, 3, 1)
    assert rep is _orbit_index_map(4, 3, 1)
    assert not rep.flags.writeable
    assert not np.array_equal(rep, _orbit_index_map(4, 3, 0))


def test_tensor_arithmetic():
    A = identity_tensor(3, 2)
    B = all_ones_tensor(3, 2)
    C = 5.0 * A - B
    assert C.data[0, 0, 0] == 4.0
    assert C.data[0, 1, 0] == -1.0
    assert (-C).data[0, 0, 0] == -4.0
    assert C.symmetric


@pytest.mark.parametrize(
    "kwargs",
    [{"tol": float("nan")}, {"tol": float("inf")}, {"tol": 0.0}, {"tau_rel": float("nan")},
     {"tau_rel": 1.0}, {"tau_rel": -1e-9}, {"seed": -1}, {"starts": 0}, {"iters": 0}],
)
def test_search_budget_rejects_invalid_values(kwargs):
    with pytest.raises(ValueError):
        SearchBudget(**kwargs)


def test_search_budget_tau_rel_range_is_half_open():
    assert SearchBudget(tau_rel=0.0).tau_rel == 0.0
    assert SearchBudget(tau_rel=0.999).tau_rel == 0.999


@settings(max_examples=60, deadline=None)
@given(m=st.integers(2, 6), n=st.integers(1, 6))
def test_diagonal_index_selects_exactly_the_diagonal(m, n):
    """A.data[diagonal_index(m, n)] is the entries at the multi-indices
    is_diagonal_index accepts, in row-major order."""
    A = Tensor(np.arange(n**m, dtype=float).reshape((n,) * m))
    expect = [A.data[idx] for idx in itertools.product(range(n), repeat=m)
              if is_diagonal_index(idx)]
    assert np.array_equal(A.data[diagonal_index(m, n)], expect)


_BATCH_SHAPES = [(m, n) for m in range(2, 9) for n in range(1, 6) if n**m <= 2_200]


@settings(max_examples=80, deadline=None)
@given(shape=st.sampled_from(_BATCH_SHAPES), p=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
@example(shape=(7, 2), p=3, seed=1)
@example(shape=(8, 2), p=2, seed=2)
@example(shape=(7, 3), p=0, seed=3)
def test_contract_m1_batch_matches_brute_force_rows(shape, p, seed):
    """Each row of the batch kernel is the loop-based (m-1)-fold contraction
    of that row, to 1e-12 of the sum of absolute terms, at orders 2-8; an
    empty batch gives shape (0, n)."""
    m, n = shape
    rng = np.random.default_rng(seed)
    A = Tensor(rng.uniform(-1, 1, size=(n,) * m))
    X = rng.uniform(-1, 1, size=(p, n))
    out = contract_m1_batch(A, X)
    assert out.shape == (p, n)
    for x, row in zip(X, out):
        scale = brute_contract_m1(np.abs(A.data), np.abs(x))
        assert np.all(np.abs(row - brute_contract_m1(A.data, x)) <= 1e-12 * scale)
