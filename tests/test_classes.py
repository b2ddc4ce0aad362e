"""Structured-class predicates and constructors."""

import itertools
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ptensor import (
    ArityError,
    FactorSet,
    Hypergraph,
    NotNonnegative,
    SearchBudget,
    SingularCauchy,
    Tensor,
    all_ones_tensor,
    cauchy_tensor,
    check_p0,
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
    CERTIFIED,
    LIKELY,
    REFUTED,
    _form,
    _m_splitting,
    _project_simplex,
    dnn_consistency,
    simplex_grid,
)
from ptensor.core import (
    _scaled,
    comparison_tensor,
    contract_full,
    contract_m1_jacobian,
    diagonal_index,
    outer_power,
    principal_subtensor,
    symmetrize,
    symmetry_deviation,
)
from ptensor.generators import (
    random_cauchy_generating_vector,
    random_m_tensor,
    random_sdd_tensor,
    random_tensor,
    reference_counterexample,
)
from oracles import (
    _compositions,
    _row_diag_position,
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


def _times_2e(v: float, e: int) -> float:
    """v * 2^e, +-inf beyond the float64 range."""
    with np.errstate(over="ignore"):
        return float(np.ldexp(v, e))


_NUMBER = re.compile(r"-?(inf|nan|\d[\d.]*(e[+-]\d+)?)")


@pytest.mark.filterwarnings("error::RuntimeWarning")
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
    metrics included (compared as JSON text).  Where the row sums of A are
    finite (every kind but huge) the report is the loop's on A bit for bit;
    on +-1e308 entries, where the rules sum an overflowing row times a
    power of two, exactly, it is the loop's on the copy A * 2^-e of
    core._scaled, with every value times 2^e (+-inf beyond float64), also
    in the detail text."""
    m, n = shape
    A = Tensor(_row_rule_data(m, n, kind, np.random.default_rng(seed)))
    S, e = _scaled(A)
    for rule, reference in ((is_diagonally_dominant, is_diagonally_dominant_reference),
                            (is_b_tensor, is_b_tensor_reference)):
        got = rule(A, strict=strict).to_json_dict()
        if kind != "huge":
            assert json.dumps(got) == json.dumps(reference(A, strict=strict).to_json_dict())
            continue
        ref = reference(S, strict=strict).to_json_dict()
        ref["metrics"] = {k: v if k == "row" else _times_2e(v, e)
                          for k, v in ref["metrics"].items()}
        assert {**got, "detail": ""} == {**ref, "detail": ""}
        assert _NUMBER.sub("#", got["detail"]) == _NUMBER.sub("#", ref["detail"])
        assert all(f"{v:.6g}" in got["detail"] for v in ref["metrics"].values())


def _exact_row_verdicts(A: Tensor, strict: bool):
    """(dominant, B rows) of A in exact rational arithmetic on its stored
    entries, with > (strict) or >= throughout."""
    n, m = A.dim, A.order

    def holds(a, b):
        return a > b if strict else a >= b

    dominant = b_rows = True
    for i, row in enumerate(A.data.reshape(n, -1)):
        row = [Fraction(float(v)) for v in row]
        j = _row_diag_position(i, n, m)
        dominant &= holds(abs(row[j]), sum(map(abs, row)) - abs(row[j]))
        average = sum(row) / n ** (m - 1)
        b_rows &= holds(sum(row), 0) and all(holds(average, v) for v in row[:j] + row[j + 1:])
    return dominant, b_rows


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_row_rules_decide_large_rows_as_exact_sums_do():
    """Near the float64 limit the dominance and B rules give the verdicts
    of the exact row sums, where float row sums of the stored entries
    overflow to inf (which refuted dominance and passed the B average test
    against any entry) or to nan."""
    big = Tensor(np.full((2, 2), 1e308))  # dominant with equality; B0, not B
    rows = Tensor(np.array([[1e308, 1e308, 1e308, 0.0]] * 4))  # row average 0.75e308
    tile = np.zeros(16)
    tile[[0, 8]], tile[[1, 9]] = 1e308, -1e308  # the pairwise float row sum is inf + (-inf)
    odd = np.full((2, 2, 2), 1e308)
    odd[0, 1, 1] = odd[1, 0, 0] = 0.0
    ones = Tensor(np.full((3, 3), 1e308))  # B0, not dominant
    # rows of small entries beside a row near the limit keep their own sums
    small = Tensor(np.array([[1e300, 1e300], [1e-30, 0.0]]))  # row 1 not dominant
    small_b = Tensor(np.array([[1e300, 1e300], [0.0, -1e-30]]))  # row 1 sum < 0
    for A in (big, rows, Tensor(np.tile(tile, (16, 1))), Tensor(odd), ones, small, small_b):
        for strict in (False, True):
            dominant, b_rows = _exact_row_verdicts(A, strict)
            assert is_diagonally_dominant(A, strict=strict).certified == dominant
            assert is_b_tensor(A, strict=strict).certified == b_rows
    assert is_diagonally_dominant(big).certified and is_b_tensor(big, strict=True).refuted
    assert is_b_tensor(rows).refuted
    rep = is_b_tensor(Tensor(np.tile(tile, (16, 1))), strict=True)
    assert rep.refuted and rep.metrics["row_sum"] == 0.0
    assert is_diagonally_dominant(small).metrics == {
        "row": 1, "diagonal_abs": 0.0, "off_row_sum": 1e-30}
    assert is_b_tensor(small_b).metrics["row_sum"] == -1e-30
    assert check_p0(small).verdict != CERTIFIED
    sub = Tensor(np.array([[8e307, -8e307, -5e-324]] * 3))  # finite row sums -2^-1074
    for strict in (False, True):
        assert is_b_tensor(sub, strict=strict).metrics["row_sum"] == -5e-324


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


def test_cauchy_entries_at_sorted_indices_are_the_left_to_right_sums():
    """Each orbit's entry is 1 / (u_{i1} + ... + u_{im}) summed left to
    right at its sorted multi-index, and every other orbit member equals it
    (a sum in another order can round differently)."""
    u = random_cauchy_generating_vector(5, 3)
    C = cauchy_tensor(u, 4)
    for idx in itertools.product(range(5), repeat=4):
        s = sorted(idx)
        assert C.data[idx] == 1.0 / (((u[s[0]] + u[s[1]]) + u[s[2]]) + u[s[3]])


def _symmetric_constructions(m, n, rng):
    """Every constructor that sets the symmetric flag, at order m and
    dimension n, and the transforms that keep it, applied to a symmetric
    tensor."""
    S = random_tensor(m, n, seed=int(rng.integers(2**31)), symmetric=True)
    edges = [e for e in itertools.combinations(range(n), m) if rng.random() < 0.5]
    subset = np.flatnonzero(rng.random(n) < 0.5)
    return [
        S, symmetrize(Tensor(rng.uniform(-1.0, 1.0, (n,) * m))),
        outer_power(rng.uniform(-1.0, 1.0, n), m),
        cauchy_tensor(rng.uniform(-3.0, 3.0, n), m),
        cp_tensor(list(rng.uniform(0.0, 1.0, (int(rng.integers(1, 4)), n))), m),
        *laplacian_tensors(Hypergraph(n, edges, arity=m)),
        diagonal_tensor(rng.uniform(-1.0, 1.0, n), m), identity_tensor(m, n),
        zero_tensor(m, n), all_ones_tensor(m, n), reference_counterexample(),
        comparison_tensor(S), principal_subtensor(S, subset if subset.size else [0]),
        _scaled(S * 1e300)[0], _m_splitting(S, float(rng.uniform(0.0, 2.0)))[1],
    ]


@settings(max_examples=60, deadline=None)
@given(m=st.integers(2, 5), n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_flagged_constructions_are_exactly_symmetric(m, n, seed):
    """The symmetric flag is a guarantee: every tensor made with it set is
    invariant under every index transposition, exactly."""
    for A in _symmetric_constructions(m, n, np.random.default_rng(seed)):
        assert A.symmetric and symmetry_deviation(A.data) == 0.0, A


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
        assert symmetry_deviation(T.data) == 0.0
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
    val, grad = (v[0] for v in _form(S, x[None]))
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


def _on_scaled_copy(search, A, budget):
    """search's report on core._scaled's copy A * 2^-e as a dict, with its
    value (min_value and the number in detail) times 2^e: what the library,
    which searches that copy, reports on A."""
    scaled, e = _scaled(A)
    out = search(scaled, budget).to_json_dict()
    v = out["metrics"]["min_value"]
    value = math.ldexp(v, e)
    out["metrics"]["min_value"] = value
    out["detail"] = out["detail"].replace(f"{v:.6g}", f"{value:.6g}", 1)
    return out


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", _FORM_CASES, ids=str)
@_FORM_BUDGETS
def test_copositive_and_psd_match_two_contraction_references(case, budget):
    """is_copositive and is_psd, on one contraction per form evaluation,
    report exactly what the loops as first written report on the scaled
    copy, times 2^e (on A itself when max|a| lies in [0.5, 1))."""
    A = _form_case(*case)
    assert is_copositive(A, budget).to_json_dict() == _on_scaled_copy(is_copositive_reference, A,
                                                                      budget)
    assert is_psd(A, budget).to_json_dict() == _on_scaled_copy(is_psd_reference, A, budget)


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
        *[(_scaled_symmetric(m, n, 1e308), SearchBudget(), REFUTED)
          for m, n in [(3, 4), (4, 4), (2, 3)]],
        (Tensor([[1e308] * 2] * 2, symmetric=True), SearchBudget(), "LIKELY_STRICT"),
    ],
    ids=["n1", "starts40-depth1", "starts1-iters1-depth1", "5x4", "6x3",
         "3x4-1e300", "4x4-1e300", "2x3-1e300", "3x4-1e308", "4x4-1e308", "2x3-1e308",
         "ones-1e308"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_copositive_edge_cases_match_reference(A, budget, expect):
    """The lockstep descent reports exactly what the descents run one after
    another report on the scaled copy, times 2^e: at n = 1, with more
    starts than grid points, at orders 5 and 6, and near the float64 limit,
    where no iterate on the scaled copy overflows."""
    got = is_copositive(A, budget).to_json_dict()
    assert got == _on_scaled_copy(is_copositive_reference, A, budget)
    if expect is not None:
        assert expect in (got["verdict"], got["label"])
