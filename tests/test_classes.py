"""Structured-class predicates and constructors."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ptensor import (
    ArityError,
    DegenerateInput,
    FactorSet,
    Hypergraph,
    NotNonnegative,
    SearchBudget,
    SingularCauchy,
    Tensor,
    all_ones_tensor,
    cauchy_tensor,
    classify_m_tensor,
    contract_m1,
    cp_tensor,
    diagonal_tensor,
    identity_tensor,
    is_b_tensor,
    is_copositive,
    is_diagonally_dominant,
    is_h_tensor,
    is_psd,
    is_z_tensor,
    laplacian_tensors,
    zero_tensor,
)
from ptensor.classes import (
    LIKELY,
    REFUTED,
    _form,
    _project_simplex,
    dnn_consistency,
    simplex_grid,
)
from ptensor.core import contract_full, contract_m1_jacobian, diagonal_index, symmetrize
from ptensor.generators import random_m_tensor, random_sdd_tensor, random_tensor
from oracles import (
    _compositions,
    is_b_tensor_reference,
    is_copositive_reference,
    is_diagonally_dominant_reference,
    is_psd_reference,
    psd_by_char_poly,
    simplex_min_bruteforce,
)


def five_i_minus_j():
    return 5.0 * identity_tensor(3, 2) - all_ones_tensor(3, 2)


# ---------------------------------------------------------------------------
# diagonal dominance, Z


def test_diagonal_dominance_examples():
    assert is_diagonally_dominant(identity_tensor(3, 3), strict=True).certified
    rep = is_diagonally_dominant(all_ones_tensor(3, 2), strict=False)
    assert rep.refuted and rep.witness == 0  # 1 >= 3 fails at row 0
    assert rep.metrics["off_row_sum"] == 3.0
    assert is_diagonally_dominant(five_i_minus_j(), strict=True).certified


def test_z_tensor_examples():
    assert is_z_tensor(five_i_minus_j()).certified
    rep = is_z_tensor(all_ones_tensor(3, 2))
    assert rep.refuted and not all(i == rep.witness[0] for i in rep.witness)
    assert is_z_tensor(diagonal_tensor([2.0, -1.0], 3)).certified


# ---------------------------------------------------------------------------
# M and H


def test_m_tensor_three_regimes():
    ns = classify_m_tensor(five_i_minus_j())
    assert ns.certified and ns.label == "NONSINGULAR_M"
    assert abs(ns.metrics["s"] - 5.0) <= 1e-12
    assert abs(ns.metrics["rho"] - 4.0) <= 1e-6

    boundary = classify_m_tensor(4.0 * identity_tensor(3, 2) - all_ones_tensor(3, 2))
    assert boundary.verdict == LIKELY and boundary.label == "M"

    bad = classify_m_tensor(2.0 * identity_tensor(3, 2) - all_ones_tensor(3, 2))
    assert bad.refuted
    # witness re-fails: the min ratio at the positive witness is a lower
    # bound for rho and exceeds s
    w = bad.witness
    s = bad.metrics["s"]
    B = s * identity_tensor(3, 2) - (2.0 * identity_tensor(3, 2) - all_ones_tensor(3, 2))
    ratios = contract_m1(B, w) / w ** 2
    assert float(np.min(ratios)) > s


def test_m_tensor_requires_z():
    rep = classify_m_tensor(all_ones_tensor(3, 2))
    assert rep.refuted and "Z-tensor" in rep.detail


def test_m_tensor_pivot_invariance():
    rng = np.random.default_rng(21)
    for _ in range(5):
        bdata = rng.uniform(0.0, 1.0, size=(3, 3, 3))
        s0 = 2.0 + rng.uniform(0.0, 2.0)
        data = -bdata
        idx = np.arange(3)
        data[idx, idx, idx] += s0
        A = Tensor(data)
        r1 = classify_m_tensor(A)
        r2 = classify_m_tensor(A, s_offset=5.0)
        assert r1.verdict == r2.verdict and r1.label == r2.label
        assert abs((r2.metrics["rho"] - r1.metrics["rho"]) - 5.0) <= 1e-6


def test_h_tensor_examples():
    rep = is_h_tensor(five_i_minus_j())
    assert rep.certified and rep.label == "NONSINGULAR_H"
    assert is_h_tensor(all_ones_tensor(3, 2)).refuted


def test_strict_dominance_implies_nonsingular_h():
    for seed in range(100):
        m = (3, 4)[seed % 2]
        n = (2, 3)[(seed // 2) % 2]
        A = random_sdd_tensor(m, n, seed=seed)
        h = is_h_tensor(A)
        assert h.label == "NONSINGULAR_H", f"seed {seed}"
        assert h.metrics["diagonal_positive"]


# ---------------------------------------------------------------------------
# B / B0


def test_b_tensor_examples():
    J = all_ones_tensor(3, 2)
    assert is_b_tensor(J, strict=False).certified  # row sum 4 >= 0; average 1 >= 1
    strict = is_b_tensor(J, strict=True)
    assert strict.refuted  # 1 > 1 fails
    assert is_b_tensor(identity_tensor(3, 2), strict=True).certified
    T = all_ones_tensor(3, 2) + 2.0 * identity_tensor(3, 2)
    assert is_b_tensor(T, strict=True).certified  # average 1.5 > 1


def test_b_tensor_witness_has_row_and_tuple():
    data = np.zeros((2, 2, 2))
    data[0, 1, 1] = 5.0  # row average 5/4 < max off entry 5
    rep = is_b_tensor(Tensor(data), strict=False)
    assert rep.refuted
    assert rep.witness == (0, 1, 1)


def _row_rule_data(m, n, kind, rng):
    """Entries of one of five kinds: integers (exact ties between rows and
    entries), rows dominant with equality, constant rows (row average equal
    to every entry), mixed magnitudes, and +-1e308 (row sums overflow to
    inf or nan)."""
    size = (n,) * m
    diag = diagonal_index(m, n)
    if kind == "huge":
        return rng.integers(-1, 2, size=size) * 1e308
    if kind == "mixed":
        return rng.uniform(-1, 1, size=size) * 10.0 ** rng.integers(-4, 5, size=size)
    data = rng.integers(-3, 4, size=size).astype(float)
    if kind == "dominant_tie":
        data[diag] = np.abs(data).reshape(n, -1).sum(axis=1) - np.abs(data[diag])
    elif kind == "constant_rows":
        data[...] = rng.integers(-2, 3, size=n).reshape((n,) + (1,) * (m - 1))
    return data


@settings(max_examples=400, deadline=None)
@given(
    shape=st.sampled_from([(m, n) for m in range(2, 6) for n in range(1, 5)]),
    kind=st.sampled_from(["integer", "dominant_tie", "constant_rows", "mixed", "huge"]),
    seed=st.integers(0, 2**32 - 1),
    strict=st.booleans(),
)
def test_row_rules_match_row_loops(shape, kind, seed, strict):
    """The per-row array forms of the dominance and B rules report exactly
    what one Python loop over the rows reports, first failing row, text and
    metrics included (compared as JSON text, so nan metrics compare too)."""
    m, n = shape
    A = Tensor(_row_rule_data(m, n, kind, np.random.default_rng(seed)))
    for rule, reference in ((is_diagonally_dominant, is_diagonally_dominant_reference),
                            (is_b_tensor, is_b_tensor_reference)):
        got, ref = rule(A, strict=strict), reference(A, strict=strict)
        assert json.dumps(got.to_json_dict()) == json.dumps(ref.to_json_dict())


def test_row_rules_refute_overflowed_rows():
    """An off-row sum that overflows to inf refutes dominance, and a row
    sum that overflows to nan refutes B."""
    big = Tensor(np.full((2, 2), 1e308))  # |a_00| = 1e308 against an off-row sum of inf
    for strict in (False, True):
        assert is_diagonally_dominant(big, strict=strict).refuted
    row = np.zeros(16)
    row[[0, 8]], row[[1, 9]] = 1e308, -1e308  # the pairwise row sum is inf + (-inf)
    rep = is_b_tensor(Tensor(np.tile(row, (16, 1))))
    assert rep.refuted and np.isnan(rep.metrics["row_sum"])


# ---------------------------------------------------------------------------
# Cauchy


def test_cauchy_entries_and_metadata():
    C = cauchy_tensor(np.array([1.0, 2.0]), 3)
    assert C.data[0, 0, 0] == 1.0 / 3.0
    assert C.data[0, 0, 1] == 1.0 / 4.0
    assert C.data[0, 1, 1] == 1.0 / 5.0
    assert C.data[1, 1, 1] == 1.0 / 6.0
    assert C.claim("cp") is True and C.claim("scp") is True

    U = cauchy_tensor(np.array([1.0, 1.0]), 3)
    assert np.all(U.data == 1.0 / 3.0)
    assert U.claim("cp") is True and U.claim("scp") is False

    V = cauchy_tensor(np.array([1.0, 2.0, 3.0]), 3)
    assert V.dim == 3 and V.claim("scp") is True


def test_cauchy_singular():
    with pytest.raises(SingularCauchy):
        cauchy_tensor(np.array([1.0, -1.0]), 2)  # u_0 + u_1 = 0


# ---------------------------------------------------------------------------
# Laplacians


def test_laplacian_single_edge():
    G = Hypergraph(3, [(0, 1, 2)])
    adjacency, laplacian, signless = laplacian_tensors(G)
    assert np.array_equal(G.degrees(), [1.0, 1.0, 1.0])
    import itertools

    for perm in itertools.permutations((0, 1, 2)):
        assert adjacency.data[perm] == 0.5
    assert adjacency.data[0, 0, 1] == 0.0  # repeated-index tuples stay zero
    assert np.array_equal(laplacian.diagonal(), [1.0, 1.0, 1.0])
    assert laplacian.data[0, 1, 2] == -0.5
    # signless = degrees + adjacency = laplacian + 2 * adjacency
    assert np.array_equal(signless.data, laplacian.data + 2.0 * adjacency.data)


def test_laplacian_empty_edge_set():
    G = Hypergraph(3, [], arity=3)
    adjacency, laplacian, signless = laplacian_tensors(G)
    assert np.all(laplacian.data == 0.0) and np.all(signless.data == 0.0)
    assert np.all(adjacency.data == 0.0)


def test_laplacian_two_edges_degrees():
    G = Hypergraph(4, [(0, 1, 2), (0, 1, 3)])
    assert np.array_equal(G.degrees(), [2.0, 2.0, 1.0, 1.0])


def test_laplacian_row_sums():
    # order 3: every entry is dyadic, the contraction is exactly zero
    G = Hypergraph(4, [(0, 1, 2), (0, 1, 3), (1, 2, 3)])
    _, laplacian, _ = laplacian_tensors(G)
    out = contract_m1(laplacian, np.ones(4))
    assert np.array_equal(out, np.zeros(4))
    # order 4: 1/3! is not representable; exactness up to a few ulps only
    G4 = Hypergraph(5, [(0, 1, 2, 3), (1, 2, 3, 4)], arity=4)
    _, lap4, _ = laplacian_tensors(G4)
    assert np.max(np.abs(contract_m1(lap4, np.ones(5)))) <= 1e-14


def test_hypergraph_validation():
    with pytest.raises(ArityError):
        Hypergraph(3, [(0, 1), (0, 1, 2)])
    with pytest.raises(ArityError):
        Hypergraph(3, [(0, 0, 1)])
    with pytest.raises(ArityError):
        Hypergraph(3, [(0, 1, 5)])
    with pytest.raises(ArityError):
        Hypergraph(3, [(0, 1, 2), (2, 1, 0)])
    with pytest.raises(ArityError):
        Hypergraph(3, [], arity=None)


# ---------------------------------------------------------------------------
# completely positive


def test_cp_identity_from_basis():
    factors = [np.eye(3)[i] for i in range(3)]
    T = cp_tensor(factors, 3)
    assert np.array_equal(T.data, identity_tensor(3, 3).data)
    assert T.claim("scp") is True


def test_cp_single_factor_all_ones():
    T = cp_tensor([np.array([1.0, 1.0])], 3)
    assert np.array_equal(T.data, np.ones((2, 2, 2)))
    assert T.claim("scp") is False and T.claim("cp") is True


def test_cp_two_factors():
    T = cp_tensor([np.array([1.0, 0.0]), np.array([1.0, 1.0])], 3)
    assert T.claim("scp") is True
    assert T.data[0, 0, 0] == 2.0


def test_cp_rejects_negative_factor():
    with pytest.raises(NotNonnegative):
        cp_tensor([np.array([1.0, -0.1])], 3)
    with pytest.raises(NotNonnegative):
        FactorSet([])


def test_cp_factored_contraction_identity(rng):
    factors = [rng.uniform(0.0, 1.0, size=3) for _ in range(4)]
    for m in (3, 4):
        T = cp_tensor(factors, m)
        assert np.all(T.data >= 0.0)
        assert T.symmetry_deviation() == 0.0
        for _ in range(5):
            x = rng.uniform(-1.0, 1.0, size=3)
            direct = contract_m1(T, x)
            factored = sum(u * float(np.dot(u, x)) ** (m - 1) for u in factors)
            assert np.max(np.abs(direct - factored)) <= 1e-10 * max(1.0, np.max(np.abs(direct)))


# ---------------------------------------------------------------------------
# copositivity / definiteness searches


def test_copositive_all_ones():
    rep = is_copositive(all_ones_tensor(3, 2))
    assert rep.verdict == LIKELY and rep.label == "LIKELY_STRICT"
    assert abs(rep.metrics["min_value"] - 1.0) <= 1e-9  # (x0+x1)^3 = 1 on the simplex


def test_copositive_refuted_negative_identity():
    rep = is_copositive(-1.0 * identity_tensor(4, 2))
    assert rep.refuted
    assert rep.metrics["min_value"] <= -1.0 + 1e-12  # vertex of the simplex


def test_copositive_reference_tensor(ref_tensor):
    budget = SearchBudget(grid_depth=40)
    rep = is_copositive(ref_tensor, budget)
    assert rep.label == "LIKELY_STRICT"
    oracle = simplex_min_bruteforce(ref_tensor.data, depth=12)
    assert rep.metrics["min_value"] <= oracle + 1e-9


def test_psd_examples():
    rep = is_psd(identity_tensor(4, 2))
    assert rep.label == "LIKELY_PD"
    assert abs(rep.metrics["min_value"] - 0.5) <= 1e-6  # min sum x^4 on sphere = 1/n
    bad = is_psd(-1.0 * identity_tensor(4, 2))
    assert bad.refuted
    odd = is_psd(identity_tensor(3, 2))
    assert odd.refuted  # sign flip argument for odd order
    assert is_psd(zero_tensor(3, 2)).label == "LIKELY_PSD"


def test_psd_matrix_oracle_agreement(rng):
    for n in (3, 4):
        for _ in range(10):
            M = rng.uniform(-1, 1, size=(n, n))
            M = 0.5 * (M + M.T)
            rep = is_psd(Tensor(M, symmetric=True), SearchBudget(starts=8, iters=150))
            assert (rep.verdict != REFUTED) == psd_by_char_poly(M)


def test_dnn_consistency(ref_tensor):
    from ptensor import find_h_eigenpairs

    pairs = find_h_eigenpairs(ref_tensor, SearchBudget(seed=0, starts=40))
    rep = dnn_consistency(ref_tensor, pairs)
    assert rep.verdict == LIKELY and rep.label == "DNN_CONSISTENT"
    neg = dnn_consistency(-1.0 * identity_tensor(4, 2), [])
    assert neg.refuted


# ---------------------------------------------------------------------------
# simplex grid and projection


@pytest.mark.parametrize("n, depth, d", [(1, 5, 5), (2, 20, 20), (4, 20, 20), (7, 30, 26)])
def test_simplex_grid_matches_compositions(n, depth, d):
    """Bitwise equal to the recursive enumeration, in its order.  At (7, 30)
    the depth drops to 26, the largest with at most 10^6 points."""
    expect = np.array(list(_compositions(d, n)), dtype=float) / d
    got = simplex_grid(n, depth)
    assert got.shape == expect.shape
    assert got.tobytes() == expect.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    v=arrays(np.float64, st.integers(1, 8), elements=st.floats(-1e3, 1e3)),
    floor=st.sampled_from([0.0, 1e-8]),
)
def test_project_simplex_kkt(v, floor):
    """x = argmin ||x - v|| over {x >= floor, sum x = 1} iff x is feasible
    and v - x is one constant tau where x > floor and at most tau where
    x = floor."""
    x = _project_simplex(v, floor)
    assert np.all(x >= floor)
    assert abs(float(np.sum(x)) - 1.0) <= 1e-9
    r = v - x
    free = x > floor
    tau = float(np.max(r[free]))
    tol = 1e-9 * (1.0 + float(np.max(np.abs(v))))
    assert np.all(r[free] >= tau - tol)
    assert np.all(r[~free] <= tau + tol)


def test_project_simplex_rejects_non_finite_input():
    for bad in (np.array([0.5, np.nan]), np.array([np.inf, 0.0, 1.0])):
        with pytest.raises(DegenerateInput, match="vector entries must be finite"):
            _project_simplex(bad, 1e-8)


# ---------------------------------------------------------------------------
# the form evaluator


@settings(max_examples=200, deadline=None)
@given(
    shape=st.sampled_from([(m, n) for m in range(2, 6) for n in range(1, 6)]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_form_equals_value_and_gradient_from_two_contractions(shape, seed, data):
    """_form on the symmetric part S of a non-symmetric A gives bit for bit
    contract_full(S, x) and m S x^{m-1}; both agree with A's form value and
    its gradient A x^{m-1} + J(x)^T x within the a-priori rounding bound of
    the two computations (k = m n + m! + 2 roundings on m sum|a| max|x|^{m-1},
    and on sum|a| max|x|^m for the value, plus an underflow floor), at
    entries of mixed magnitude (10^k, |k| <= 3)."""
    m, n = shape
    rng = np.random.default_rng(seed)
    A = Tensor(rng.uniform(-1, 1, size=(n,) * m) * 10.0 ** rng.integers(-3, 4, size=(n,) * m))
    x = data.draw(arrays(np.float64, n, elements=st.floats(-1e3, 1e3)))
    S = symmetrize(A)
    val, grad = _form(S, x)
    assert val == contract_full(S, x)
    assert np.array_equal(grad, m * contract_m1(S, x))

    u = np.finfo(float).eps / 2
    k = m * n + math.factorial(m) + 2
    gamma = 2 * k * u / (1 - k * u)  # both sides round
    mx = float(np.max(np.abs(x)))
    scale = float(np.abs(A.data).sum())  # times mx^{m-1}, one factor at a time
    for _ in range(m - 1):
        scale *= mx
    old_grad = contract_m1(A, x) + contract_m1_jacobian(A, x).T.dot(x)
    assert np.all(np.abs(grad - old_grad) <= gamma * m * scale + 2.0**-1000)
    assert abs(val - contract_full(A, x)) <= gamma * scale * mx + 2.0**-1000


_FORM_CASES = [
    (kind, m, n, seed)
    for m, n in [(2, 3), (3, 4), (4, 4), (3, 6)]
    for kind in ("random", "symmetric", "sdd", "m")
    for seed in (0, 1)
]


def _form_case(kind, m, n, seed):
    s = 7000 + 100 * m + 10 * n + seed
    if kind == "sdd":
        return random_sdd_tensor(m, n, seed=s)
    if kind == "m":
        return random_m_tensor(m, n, seed=s)
    return random_tensor(m, n, seed=s, symmetric=kind == "symmetric")


_FORM_BUDGETS = pytest.mark.parametrize(
    "budget",
    [SearchBudget(), SearchBudget(seed=3, starts=4, iters=30, grid_depth=6)],
    ids=["default", "small"],
)


@pytest.mark.parametrize("case", _FORM_CASES, ids=str)
@_FORM_BUDGETS
def test_copositive_and_psd_match_two_contraction_references(case, budget):
    """is_copositive and is_psd, on one contraction per form evaluation,
    report exactly what the loops as first written report."""
    A = _form_case(*case)
    assert is_copositive(A, budget).to_json_dict() == is_copositive_reference(A, budget).to_json_dict()
    assert is_psd(A, budget).to_json_dict() == is_psd_reference(A, budget).to_json_dict()


def _exact_form(A, x):
    """The form sum a_{i1..im} x_{i1} ... x_{im} of A's stored entries at x,
    in exact rational arithmetic."""
    xs = [Fraction(float(v)) for v in x]
    total = Fraction(0)
    for idx in np.ndindex(A.data.shape):
        term = Fraction(float(A.data[idx]))
        for i in idx:
            term *= xs[i]
        total += term
    return total


@pytest.mark.parametrize("case", _FORM_CASES, ids=str)
@_FORM_BUDGETS
def test_form_search_refutations_hold_exactly(case, budget):
    """Every REFUTED copositivity or PSD report, though found on the
    symmetric part, names a witness at which the form of A's stored
    entries is negative in exact arithmetic (and nonnegative entries for
    copositivity)."""
    A = _form_case(*case)
    for rep in (is_copositive(A, budget), is_psd(A, budget)):
        if rep.refuted:
            assert _exact_form(A, rep.witness) < 0
            if rep.class_name == "copositive":
                assert np.all(rep.witness >= 0.0)


def _copositive_outcome(A, budget, search):
    """The report of one copositivity search as a dict, or the type and
    message of the error it raises."""
    try:
        return search(A, budget).to_json_dict()
    except DegenerateInput as exc:
        return ("DegenerateInput", str(exc))


def _scaled_symmetric(m, n, scale):
    return Tensor(random_tensor(m, n, seed=0, symmetric=True).data * scale, symmetric=True)


@pytest.mark.parametrize(
    "A, budget, expect",
    [
        (random_tensor(3, 1, seed=0), SearchBudget(), None),
        (random_tensor(3, 4, seed=0), SearchBudget(starts=40, grid_depth=1), None),
        (random_tensor(3, 4, seed=0), SearchBudget(starts=1, iters=1, grid_depth=1), None),
        (random_tensor(5, 4, seed=0), SearchBudget(), None),
        (random_tensor(6, 3, seed=0), SearchBudget(), None),
        *[(_scaled_symmetric(m, n, 1e300), SearchBudget(), REFUTED)
          for m, n in [(3, 4), (4, 4), (2, 3)]],
        *[(_scaled_symmetric(m, n, 1e308), SearchBudget(), "DegenerateInput")
          for m, n in [(3, 4), (4, 4)]],
        (_scaled_symmetric(2, 3, 1e308), SearchBudget(), REFUTED),
        (Tensor([[1e308] * 2] * 2, symmetric=True), SearchBudget(), "DegenerateInput"),
    ],
    ids=["n1", "starts40-depth1", "starts1-iters1-depth1", "5x4", "6x3",
         "3x4-1e300", "4x4-1e300", "2x3-1e300", "3x4-1e308", "4x4-1e308", "2x3-1e308",
         "ones-1e308"],
)
def test_copositive_edge_cases_match_reference(A, budget, expect):
    """The lockstep descent reports exactly what the descents run one after
    another report, or raises the same error: at n = 1, with more starts
    than grid points, at orders 5 and 6, and near the float64 limit, where
    an iterate overflows."""
    got = _copositive_outcome(A, budget, is_copositive)
    assert got == _copositive_outcome(A, budget, is_copositive_reference)
    if expect == "DegenerateInput":
        assert got == ("DegenerateInput", "vector entries must be finite")
    elif expect is not None:
        assert got["verdict"] == expect
