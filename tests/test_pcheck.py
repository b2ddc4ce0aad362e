"""Certify-or-refute engine: functionals, checks, scaling matrix, heredity."""

import itertools
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ptensor
from ptensor import (
    LIKELY,
    DegenerateInput,
    DiagonalNegationError,
    NotPBehaviorAt,
    SearchBudget,
    Tensor,
    all_ones_tensor,
    basis_p0_tensor,
    check_p,
    check_p0,
    check_s,
    contract_m1,
    embed_vector,
    hull_membership,
    identity_tensor,
    phi_p,
    phi_p0,
    principal_subtensor,
    scaling_matrix,
    zero_tensor,
)
from ptensor.classes import (
    UNKNOWN,
    Hypergraph,
    _m_splitting,
    cauchy_tensor,
    is_b_tensor,
    is_copositive,
    is_h_tensor,
    laplacian_tensors,
)
from ptensor.classes import cp_tensor
from ptensor.generators import (
    random_m_tensor,
    random_scp_tensor,
    random_sdd_tensor,
    random_tensor,
)
from ptensor import pcheck
from ptensor.budget import DEFAULT_TAU_REL
from ptensor.core import (
    _scaled,
    _unscaled,
    comparison_tensor,
    diagonal_index,
    support,
    symmetrize,
    symmetry_deviation,
)
from ptensor import exact
from ptensor.exact import exact_terms
from ptensor.tensorio import write_tensor
from ptensor.pcheck import CERTIFICATE_RULES, LIKELY_NOT, candidate_battery
from ptensor.spectral import find_h_eigenpairs, nqz_spectral_radius
from oracles import (
    ascend_reference,
    check_s_reference,
    descend_reference,
    min_principal_minor,
    principal_minors_all_positive,
    refutation_search_reference,
)

FAST = SearchBudget(seed=0, starts=8, iters=120)


# ---------------------------------------------------------------------------
# functionals


def test_phi_p_identity_positive(rng):
    A = identity_tensor(3, 3)
    for _ in range(5):
        x = rng.uniform(-1, 1, size=3)
        if np.max(np.abs(x)) == 0.0:
            continue
        assert phi_p(A, x) == pytest.approx(np.max(x ** 4), abs=1e-15)
        assert phi_p(A, x) > 0.0


def test_phi_p_reference_boundary(ref_tensor):
    y = np.array([0.0, 1.0, -1.0])
    # index-0 term vanishes (y_0 = 0), the others are the known -0.5 and -1
    assert phi_p(ref_tensor, y) == 0.0


def test_phi_p_negative_identity():
    A = -1.0 * identity_tensor(3, 2)
    assert phi_p(A, np.array([1.0, 1.0])) == -1.0


def test_phi_p0_examples(ref_tensor):
    y = np.array([0.0, 1.0, -1.0])
    assert phi_p0(ref_tensor, y) == -0.5
    assert phi_p0(zero_tensor(3, 3), np.array([1.0, -1.0, 0.2])) == 0.0
    assert phi_p0(identity_tensor(3, 2), np.array([1.0, 0.0])) == 1.0


def test_phi_zero_vector_raises(ref_tensor):
    with pytest.raises(DegenerateInput):
        phi_p(ref_tensor, np.zeros(3))
    with pytest.raises(DegenerateInput):
        phi_p0(ref_tensor, np.zeros(3))


def test_phi_homogeneity(rng, ref_tensor):
    for A in (ref_tensor, Tensor(rng.uniform(-1, 1, size=(3, 3, 3)))):
        x = rng.uniform(-1, 1, size=3)
        base = phi_p(A, x)
        for t in (-2.0, -0.7, 0.5, 1.9):
            scaled = phi_p(A, t * x)
            expect = t ** (2 * (A.order - 1)) * base
            assert abs(scaled - expect) <= 1e-10 * max(1.0, abs(expect))


def _scaling_matrix_definition(A, x):
    """scaling_matrix written out on the single-vector terms, or
    NotPBehaviorAt where it raises that."""
    t = x ** (A.order - 1) * contract_m1(A, x)
    if float(np.max(t)) <= 0.0:
        return NotPBehaviorAt
    delta = (t > 0.0).astype(float)
    total = float(np.sum(t))
    d = delta + (1.0 if total == 0.0 else 0.5 * float(np.sum(delta * t)) / abs(total))
    return d if float(np.sum(d * t)) > 0.0 else NotPBehaviorAt


def _bytes(v):
    return v if v is NotPBehaviorAt else np.asarray(v, dtype=float).tobytes()


@settings(max_examples=300, deadline=None)
@given(m=st.integers(2, 5), n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       tau_rel=st.one_of(st.none(), st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)))
def test_functionals_are_their_definitions(m, n, seed, tau_rel):
    """phi_p, phi_p0 and scaling_matrix equal, as bytes, their definitions
    on the single-vector terms x^(m-1) * contract_m1(A, x): the max of the
    terms, the max over core.support(x, tau_rel), and the scaling-matrix
    formula.  Tensor entries and x hold exact zeros of both signs, and x
    holds entries at and one ulp either side of tau_rel * max|x|; the
    zero vector raises DegenerateInput with the same messages."""
    rng = np.random.default_rng(seed)
    data = rng.uniform(-1.0, 1.0, (n,) * m)
    data[rng.random(data.shape) < 0.3] = 0.0
    data[rng.random(data.shape) < 0.1] = -0.0
    A = Tensor(data)
    x = rng.uniform(-1.0, 1.0, n)
    top = np.abs(x).max()
    near = (DEFAULT_TAU_REL if tau_rel is None else tau_rel) * top
    for i in range(n):
        kind = rng.integers(5)
        if np.abs(x[i]) == top or kind == 0:
            continue
        x[i] = [0.0, -0.0, np.nextafter(near, 0.0), near, np.nextafter(near, 1.0)][kind - 1]
        x[i] *= rng.choice([-1.0, 1.0])
    terms = x ** (m - 1) * contract_m1(A, x)
    assert _bytes(phi_p(A, x)) == _bytes(np.max(terms))
    sup = support(x, DEFAULT_TAU_REL if tau_rel is None else tau_rel)
    assert _bytes(phi_p0(A, x, tau_rel)) == _bytes(np.max(terms[sup]))
    try:
        got = scaling_matrix(A, x)
    except NotPBehaviorAt:
        got = NotPBehaviorAt
    assert _bytes(got) == _bytes(_scaling_matrix_definition(A, x))

    at_zero = "the sign functional is undefined at the zero vector"
    for zero in (np.zeros(n), -np.zeros(n)):
        for f, message in ((phi_p, at_zero), (lambda A, z: phi_p0(A, z, tau_rel), at_zero),
                           (scaling_matrix, "scaling matrix needs a nonzero vector")):
            with pytest.raises(DegenerateInput) as info:
                f(A, zero)
            assert str(info.value) == message


@pytest.mark.parametrize("tau_rel", [1.0, 1.5, float("nan"), -3.0])
def test_tau_rel_outside_the_unit_interval_is_rejected(tau_rel):
    """phi_p0 and core.support take tau_rel in [0, 1), as SearchBudget
    does: outside it phi_p0 gave -inf (an empty support at 1, 1.5 and NaN)
    or the plain max of the terms (at -3)."""
    A, x = identity_tensor(3, 2), np.array([1.0, 0.5])
    for f in (lambda: phi_p0(A, x, tau_rel), lambda: support(x, tau_rel)):
        with pytest.raises(ValueError) as info:
            f()
        assert str(info.value) == "tau_rel must lie in [0, 1)"


# ---------------------------------------------------------------------------
# check_p


def test_check_p_identity_certified():
    v = check_p(identity_tensor(3, 3), FAST)
    assert v.certified
    assert v.certificate_chain[0][0] == "strict_diagonal_dominance_positive_diagonal"


def test_check_p_reference_refuted(ref_tensor):
    v = check_p(ref_tensor, FAST)
    assert v.refuted
    assert v.functional_value <= FAST.tol
    # witness re-fails on independent evaluation
    assert phi_p(ref_tensor, v.witness) <= FAST.tol


def test_check_p_negative_identity():
    v = check_p(-1.0 * identity_tensor(4, 3), FAST)
    assert v.refuted
    # witness is a coordinate direction
    assert np.sum(v.witness != 0.0) == 1
    assert v.functional_value == -1.0


def test_check_p_scp_metadata_certificate():
    A = random_scp_tensor(3, 3, seed=5)
    v = check_p(A, FAST)
    assert v.certified
    assert v.certificate_chain[0][0] == "scp_construction"


def test_check_p_h_rule_on_m_tensor():
    A = random_m_tensor(3, 3, seed=11, margin=0.8)
    v = check_p(A, FAST)
    assert v.certified
    assert v.certificate_chain[0][0] in (
        "strict_diagonal_dominance_positive_diagonal",
        "nonsingular_h_positive_diagonal",
    )


def test_check_p_b_rule_odd_order():
    # B rows but not diagonally dominant: all-ones plus a small diagonal bump
    A = all_ones_tensor(3, 2) + 0.5 * identity_tensor(3, 2)
    v = check_p(A, FAST)
    assert v.certified
    assert v.certificate_chain[0][0] == "b_tensor_odd_order"


# ---------------------------------------------------------------------------
# check_p0


def test_check_p0_zero_tensor_certified():
    v = check_p0(zero_tensor(3, 3), FAST)
    assert v.certified
    assert v.certificate_chain[0][0] == "diagonal_dominance_nonnegative_diagonal"


def test_check_p0_reference_refuted(ref_tensor):
    v = check_p0(ref_tensor, FAST)
    assert v.refuted
    assert np.array_equal(v.witness, np.array([0.0, 1.0, -1.0]))
    assert v.functional_value == -0.5
    assert v.functional_value_unthresholded == -0.5


def test_check_p0_negative_diagonal_quick_kill():
    D = Tensor(np.diag([1.0, -0.5]))
    v = check_p0(D, FAST)
    assert v.refuted
    assert np.array_equal(v.witness, [0.0, 1.0])
    assert v.functional_value == -0.5


def test_check_p0_basis_tensors_never_refuted():
    cases = [
        ((0, 0, 0), False),
        ((0, 1, 1), True),
        ((0, 1, 2), True),
        ((2, 0, 1), False),
        ((1, 0, 0, 1), True),
    ]
    for indices, negate in cases:
        A = basis_p0_tensor(indices, dim=3, negate=negate)
        v = check_p0(A, FAST)
        assert not v.refuted, (indices, negate)
        # construction provenance certifies
        assert v.certified


def test_check_p0_basis_search_only_not_refuted():
    # strip the provenance: the pure search must still not refute
    A = basis_p0_tensor((0, 1, 1), dim=3, negate=True)
    B = Tensor(A.data)
    v = check_p0(B, FAST)
    assert v.verdict == LIKELY


def test_basis_p0_constructor():
    A = basis_p0_tensor((0, 0, 0), dim=2)
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 0] = 1.0
    assert np.array_equal(A.data, expected)
    N = basis_p0_tensor((0, 1, 1), dim=2, negate=True)
    assert N.data[0, 1, 1] == -1.0 and np.sum(N.data != 0.0) == 1
    with pytest.raises(DiagonalNegationError):
        basis_p0_tensor((1, 1, 1), dim=2, negate=True)
    with pytest.raises(IndexError):
        basis_p0_tensor((0, 3), dim=2)


def test_check_p0_laplacian_certified():
    G = Hypergraph(4, [(0, 1, 2), (1, 2, 3)])
    _, lap, signless = laplacian_tensors(G)
    for T in (lap, signless):
        v = check_p0(T, FAST)
        assert v.certified


def test_check_p_cauchy_scp_certified():
    C = cauchy_tensor(np.array([0.5, 1.0, 2.0]), 3)
    v = check_p(C, FAST)
    assert v.certified
    assert v.certificate_chain[0][0] == "scp_construction"


# ---------------------------------------------------------------------------
# scaling matrix


def test_scaling_matrix_identity_cases():
    I4 = identity_tensor(4, 3)
    d = scaling_matrix(I4, np.array([1.0, 0.0, 0.0]))
    assert np.array_equal(d, [1.5, 0.5, 0.5])
    ones = np.ones(3)
    d2 = scaling_matrix(I4, ones)
    assert np.array_equal(d2, [1.5, 1.5, 1.5])
    t = ones ** 3 * contract_m1(I4, ones)
    assert float(np.sum(d2 * t)) > 0.0


def test_scaling_matrix_reference(ref_tensor):
    e0 = np.array([1.0, 0.0, 0.0])
    d = scaling_matrix(ref_tensor, e0)
    assert np.array_equal(d, [1.5, 0.5, 0.5])
    t = e0 ** 2 * contract_m1(ref_tensor, e0)
    assert float(np.sum(d * t)) == pytest.approx(150.0)


def test_scaling_matrix_requires_positive_term():
    with pytest.raises(NotPBehaviorAt):
        scaling_matrix(-1.0 * identity_tensor(3, 2), np.array([1.0, 1.0]))
    with pytest.raises(DegenerateInput):
        scaling_matrix(identity_tensor(3, 2), np.zeros(2))


def test_scaling_matrix_postcondition_random(rng):
    A = Tensor(rng.uniform(-1, 1, size=(3, 3, 3)))
    for _ in range(20):
        x = rng.uniform(-1, 1, size=3)
        if np.max(np.abs(x)) == 0.0:
            continue
        t = x ** 2 * contract_m1(A, x)
        if np.max(t) <= 0.0:
            continue
        d = scaling_matrix(A, x)
        assert np.all(d > 0.0)
        assert float(np.sum(d * t)) > 0.0


# ---------------------------------------------------------------------------
# check_s


def test_check_s_identity():
    v = check_s(identity_tensor(3, 3), FAST)
    assert v.certified
    assert np.array_equal(v.witness, np.ones(3))


def test_check_s_negative_identity():
    v = check_s(-1.0 * identity_tensor(3, 2), FAST)
    assert v.verdict == LIKELY_NOT
    assert v.search_margin < 0.0


def test_check_s_m_tensor_needs_search():
    # Z-tensor whose all-ones probe fails but which is semipositive
    data = np.zeros((2, 2))
    data[0, 0] = 1.0
    data[0, 1] = -3.0
    data[1, 1] = 1.0
    v = check_s(Tensor(data), FAST)
    assert v.certified
    w = v.witness
    assert np.all(w > 0.0)
    assert np.all(contract_m1(Tensor(data), w) > 0.0)


def test_check_s_five_i_minus_j():
    A = 5.0 * identity_tensor(3, 2) - all_ones_tensor(3, 2)
    v = check_s(A, FAST)
    assert v.certified
    assert np.array_equal(v.witness, np.ones(2))  # the quick probe already works


# ---------------------------------------------------------------------------
# hull membership


def test_hull_membership(ref_tensor):
    assert hull_membership(ref_tensor).certified
    assert hull_membership(zero_tensor(3, 2)).certified
    bad = Tensor(np.diag([1.0, -1.0, 2.0]))
    rep = hull_membership(bad)
    assert rep.refuted and rep.witness == 1


# ---------------------------------------------------------------------------
# battery and invariants


def test_battery_contains_required_directions():
    battery = candidate_battery(3)
    arr = np.array(battery)
    for target in (np.eye(3)[0], -np.eye(3)[0], np.ones(3), -np.ones(3),
                   np.array([0.0, 1.0, -1.0])):
        assert any(np.array_equal(v, target) for v in arr)


@pytest.mark.parametrize("n", range(1, 9))
def test_battery_equals_the_direction_loop_bytewise(n):
    """candidate_battery(n) is, byte for byte and in order, what a loop over
    the directions gives: e_i then -e_i (whose zeros are -0.0) for each i,
    the all-ones vector and its negation, then for n <= 6 every nonzero
    sign pattern in itertools.product order."""
    ref, eye = [], np.eye(n)
    for i in range(n):
        ref += [eye[i].copy(), -eye[i]]
    ref += [np.ones(n), -np.ones(n)]
    if n <= 6:
        for pattern in itertools.product((-1.0, 0.0, 1.0), repeat=n):
            v = np.array(pattern)
            if np.any(v != 0.0):
                ref.append(v)
    battery = candidate_battery(n)
    assert battery.shape == (len(ref), n) and battery.dtype == np.float64
    assert battery.tobytes() == np.array(ref).tobytes()


def test_heredity_padded_witnesses_refute_parent(rng):
    found = 0
    trial = 0
    while found < 25 and trial < 400:
        trial += 1
        m = int(rng.choice([3, 4]))
        n = int(rng.choice([2, 3]))
        A = random_tensor(m, n, seed=int(rng.integers(1 << 30)))
        if n == 2:
            subset = [int(rng.integers(2))]
        else:
            subset = sorted(rng.choice(n, size=2, replace=False).tolist())
        sub = principal_subtensor(A, subset)
        v = check_p(sub, FAST)
        if not v.refuted:
            continue
        found += 1
        padded = embed_vector(v.witness, subset, n)
        # zero padding contributes zero terms, so the padded functional is
        # max(sub functional, 0) and still refutes at the same tolerance
        val = phi_p(A, padded)
        assert val <= max(phi_p(sub, v.witness), 0.0) + 1e-12
        assert val <= FAST.tol
        assert not check_p(A, FAST).certified
    assert found >= 25


def test_interior_shift_never_refuted():
    # weak-property-certified tensors stay unrefuted after adding 0.01 * I
    cases = []
    for seed in range(6):
        data = random_sdd_tensor(3, 3, seed=seed).data.copy()
        cases.append(Tensor(data))  # strictly dominant is also weakly certified
    G = Hypergraph(4, [(0, 1, 2), (1, 2, 3)])
    cases.append(laplacian_tensors(G)[1])
    cases.append(zero_tensor(3, 3))
    for A in cases:
        v0 = check_p0(A, FAST)
        assert not v0.refuted
        shifted = A + 0.01 * identity_tensor(A.order, A.dim)
        v1 = check_p(shifted, FAST)
        assert not v1.refuted


def test_eigenvalue_sign_consistency():
    for seed in (0, 1, 2):
        A = random_sdd_tensor(3, 3, seed=seed)
        assert check_p(A, FAST).certified
        for p in find_h_eigenpairs(A, FAST):
            assert p.value > -1e-8


def test_symmetric_certified_p_is_copositive(rng):
    # symmetric strongly certified tensors are never refuted by the
    # copositivity search
    for seed in (3, 4):
        A = random_scp_tensor(3, 3, seed=seed)
        assert check_p(A, FAST).certified
        assert not is_copositive(A, FAST).refuted


def test_p_implies_s():
    for seed in range(5):
        A = random_sdd_tensor(3, 3, seed=seed)
        assert check_p(A, FAST).certified
        v = check_s(A, FAST)
        assert v.certified
        assert np.all(v.witness > 0.0)
        assert np.all(contract_m1(A, v.witness) > 0.0)


def test_matrix_oracle_small_sample(rng):
    agreements = 0
    for i in range(60):
        n = int(rng.choice([3, 4]))
        M = rng.uniform(-1.0, 1.0, size=(n, n))
        M[np.diag_indices(n)] = rng.uniform(0.0, 2.0, size=n)
        A = Tensor(M)
        v = check_p(A, FAST)
        is_p = principal_minors_all_positive(M)
        if v.certified:
            assert is_p, f"certified a non-P matrix (trial {i})"
        elif v.refuted:
            assert min_principal_minor(M) <= 1e-7, f"refuted a P matrix (trial {i})"
            agreements += 1
        else:
            agreements += 1
    assert agreements > 0


def test_verdict_scaling_invariance(ref_tensor):
    # witness rescaling cannot change a refutation
    v = check_p0(ref_tensor, FAST)
    w = v.witness
    for t in (0.5, 2.0, -1.0):
        scaled = t * w
        val = phi_p0(ref_tensor, scaled)
        assert val < 0.0


def test_report_json_schema(ref_tensor):
    v = check_p0(ref_tensor, FAST)
    obj = v.to_json_dict()
    assert list(obj.keys()) == [
        "property", "verdict", "witness", "margin", "functional_value",
        "functional_value_unthresholded", "chain", "budget",
    ]
    assert obj["property"] == "P0" and obj["verdict"] == "REFUTED"


# ---------------------------------------------------------------------------
# certificate rule table: one constructed input per rule


def _h_not_dominant() -> Tensor:
    # the comparison tensor is a nonsingular M-tensor, but row 0 is not
    # diagonally dominant
    d = np.zeros((2, 2, 2))
    d[0, 0, 0], d[0, 1, 1], d[1, 1, 1], d[1, 0, 0] = 1.0, -2.0, 1.0, -0.1
    return Tensor(d)


RULE_CASES = [
    ("scp_construction", check_p, lambda: random_scp_tensor(3, 3, seed=5)),
    ("strict_diagonal_dominance_positive_diagonal", check_p, lambda: identity_tensor(3, 3)),
    ("nonsingular_h_positive_diagonal", check_p, _h_not_dominant),
    ("b_tensor_odd_order", check_p,
     lambda: all_ones_tensor(3, 2) + 0.5 * identity_tensor(3, 2)),
    ("b_tensor_symmetric_even_order", check_p,
     lambda: all_ones_tensor(4, 2) + 0.5 * identity_tensor(4, 2)),
    # factors spanning a plane in R^3: completely positive, not strongly
    ("cp_construction", check_p0,
     lambda: cp_tensor([np.array([1.0, 0.0, 0.0]), np.array([1.0, 1.0, 0.0])], 3)),
    ("hypergraph_laplacian", check_p0,
     lambda: laplacian_tensors(Hypergraph(4, [(0, 1, 2), (1, 2, 3)]))[1]),
    ("rank_one_basis", check_p0, lambda: basis_p0_tensor((0, 1, 1), dim=3, negate=True)),
    ("diagonal_dominance_nonnegative_diagonal", check_p0, lambda: zero_tensor(3, 3)),
    ("nonsingular_h_nonnegative_diagonal", check_p0, _h_not_dominant),
    ("b0_tensor_odd_order", check_p0, lambda: all_ones_tensor(3, 2)),
    ("b0_tensor_symmetric_even_order", check_p0, lambda: all_ones_tensor(4, 2)),
]


@pytest.mark.parametrize("rule,check,make", RULE_CASES, ids=[c[0] for c in RULE_CASES])
def test_certificate_rule_fires(rule, check, make):
    v = check(make(), FAST)
    assert v.certified
    assert v.certificate_chain[0][0] == rule


def test_check_p0_refutes_tiny_negative_diagonal():
    # t_2(e_2) = a_222 < 0 violates the weak property however small it is
    d = identity_tensor(3, 3).data.copy()
    d[2, 2, 2] = -1e-10
    A = Tensor(d)
    v = check_p0(A, FAST)
    assert v.refuted
    assert np.array_equal(v.witness, [0.0, 0.0, 1.0])
    assert v.functional_value == -1e-10
    assert hull_membership(A).refuted


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_b_rules_follow_exact_row_sums_near_float64_limit():
    """The B certificate rules fire where the rows pass in exact arithmetic,
    also where the float row sum of the stored entries overflows to +inf
    (which passed the B average test against any entry).  The 4x4 rows
    have exact average 0.75e308 < 1e308; the order-3 tensor fails both
    properties at (1, -1); [[1, 1], [1, 1]] * 1e308 is singular, so it is
    not P, refuted at (1, -1); the 3x3 all-1e308 tensor is singular and
    positive semidefinite, and its rows are B0 rows but not B rows, so P0 is
    certified by the even-order B0 rule and P refuted."""
    singular = Tensor(np.full((2, 2), 1e308))
    rows = Tensor(np.array([[1e308, 1e308, 1e308, 0.0]] * 4))
    odd = np.full((2, 2, 2), 1e308)
    odd[0, 1, 1] = odd[1, 0, 0] = 0.0
    odd = Tensor(odd)
    ones = Tensor(np.full((3, 3), 1e308))
    for A in (rows, odd):
        for strict in (False, True):
            assert is_b_tensor(A, strict=strict).refuted
    for A, checks in ((singular, (check_p,)), (odd, (check_p, check_p0))):
        for check in checks:
            v = check(A, FAST)
            assert v.refuted, (check.__name__, v.verdict)
            assert np.array_equal(v.witness, [1.0, -1.0])
    assert check_p(ones, FAST).refuted
    v = check_p0(ones, FAST)
    assert [rule for rule, _ in v.certificate_chain] == ["b0_tensor_symmetric_even_order"]


def _asymmetric_b_tensor(rng):
    """An order-4, dim-3 strict B-tensor that is not symmetric: off-diagonal
    entries uniform in [0.5, 1], each diagonal entry set so that the row
    average exceeds the row's largest off entry by 0.01 / 27."""
    d = rng.uniform(0.5, 1.0, size=(3,) * 4)
    diag = tuple([np.arange(3)] * 4)
    d[diag] = 0.0
    rows = d.reshape(3, -1)
    d[diag] = 27.0 * rows.max(axis=1) - rows.sum(axis=1) + 0.01
    return d


def test_symmetric_b_rule_needs_exact_symmetry_at_every_scale():
    """The even-order B rule (an even order symmetric B-tensor is positive
    definite) fires only for exactly symmetric tensors.  At 1e-13 these
    asymmetric B-tensors deviated from symmetry by less than the old
    absolute 1e-12 and were certified by it; at no scale are they now.
    Their symmetric parts are B-tensors too, and certified at 1e-13."""
    rng = np.random.default_rng(5)
    for _ in range(10):
        d = _asymmetric_b_tensor(rng)
        assert is_b_tensor(Tensor(d), strict=True).certified
        assert symmetry_deviation(d) > 0.0
        for scale in (1e-13, 1.0):
            v = check_p(Tensor(d * scale), FAST)
            assert "b_tensor_symmetric_even_order" not in [r for r, _ in v.certificate_chain]
        S = symmetrize(Tensor(d * 1e-13))
        assert is_b_tensor(S, strict=True).certified
        chain = check_p(S, FAST).certificate_chain
        assert [r for r, _ in chain] == ["b_tensor_symmetric_even_order"]


def test_rule_cases_cover_the_table():
    names = {rule for row in CERTIFICATE_RULES for rule in row[:2] if rule is not None}
    assert names == {case[0] for case in RULE_CASES}


# ---------------------------------------------------------------------------
# the descent and ascent loops against their first-written form


def _reference_case(m, n, scale=1.0, seed=None):
    """Seeded tensor (seed [8, m, n] unless given) with entries uniform in
    [-scale, scale] and the diagonal lifted to |a_i..i| + 0.3 * scale, the
    positive-diagonal kind of input whose checks reach the descent."""
    rng = np.random.default_rng([8, m, n] if seed is None else seed)
    return _lift_diagonal(rng.uniform(-1.0, 1.0, size=(n,) * m) * scale, 0.3 * scale)


def _lift_diagonal(data, d):
    """The tensor data with its diagonal set to |a_i..i| + d."""
    sel = tuple([np.arange(data.shape[0])] * data.ndim)
    data[sel] = np.abs(data[sel]) + d
    return Tensor(data)


def _run(f, *args):
    """f's result, or DegenerateInput if it raised that."""
    try:
        return f(*args)
    except DegenerateInput:
        return DegenerateInput


def _assert_same(got, ref):
    assert np.array_equal(got[0], ref[0])
    assert got[1] == ref[1]


REFERENCE_SHAPES = [(2, 4), (3, 6), (4, 4), (6, 4)]
LARGE_ENTRY_CASES = [(3, 4, 1e300), (4, 4, 1e308)]


@pytest.mark.parametrize("weak", [False, True], ids=["strong", "weak"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", REFERENCE_SHAPES + LARGE_ENTRY_CASES, ids=str)
def test_descent_matches_reference_bitwise(case, weak):
    """pcheck._descend, run once on all sphere starts in lockstep on the
    scaled copy that the sign searches use (core._scaled), returns for each
    start bit for bit what the loop as first written returns from that
    start alone on that copy; no start overflows, also for entries near
    the float64 limit."""
    A = _scaled(_reference_case(*case))[0]
    budget = SearchBudget()
    starts = budget.sphere_starts(A.dim)
    best_xs, best_vals = pcheck._descend(A, np.array(starts), budget, weak)
    for x0, x, val in zip(starts, best_xs, best_vals):
        _assert_same((x, val), descend_reference(A, x0, budget, weak))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", REFERENCE_SHAPES + LARGE_ENTRY_CASES, ids=str)
def test_check_s_ascent_matches_reference_bitwise(case):
    """pcheck._ascend, run once on all seeded starts of check_s in lockstep
    on its scaled copy, returns for each start bit for bit the best point
    and value of the ascent as first written from that start alone on that
    copy, and check_s's merge of those per-start bests equals that loop's
    running best; no start overflows."""
    A = _scaled(_reference_case(*case))[0]
    budget = SearchBudget()
    floor = 1e-8
    ones = np.ones(A.dim) / A.dim
    best = ref_best = (ones, float(np.min(contract_m1(A, ones))))
    starts = [np.maximum(budget.start_rng(k).random(A.dim), floor) for k in range(budget.starts)]
    best_xs, best_vals = pcheck._ascend(A, np.array(starts), budget, floor)
    for x0, got in zip(starts, zip(best_xs, best_vals)):
        _assert_same(got, ascend_reference(A, x0, budget, floor, None, -np.inf))
        ref_best = ascend_reference(A, x0, budget, floor, *ref_best)
        if got[1] > best[1]:
            best = got
        _assert_same(best, ref_best)


def _sign_search_fixed_case(m, n, d, k):
    """The seed-independent odd-order check_p input (m, n, d, k) of the
    sign-search benchmark: entries uniform in [-1, 1] from
    SeedSequence([20150723, m, n, k]), the diagonal set to |a_i..i| + d."""
    rng = np.random.default_rng([20150723, m, n, k])
    return _lift_diagonal(rng.uniform(-1.0, 1.0, size=(n,) * m), d)


SIGN_SEARCH_FIXED = [(3, 8, 0.05, 0), (3, 8, 0.05, 1), (3, 8, 0.05, 3), (3, 8, 0.05, 5),
                     (3, 6, 2.0, 1), (3, 6, 2.0, 7), (3, 8, 2.0, 1), (3, 8, 2.0, 2)]
LARGE_VERDICT_CASES = LARGE_ENTRY_CASES + [(4, 4, 1e308, [9, 4, 4, 7])]
VERDICT_CASES = ([(_reference_case, c) for c in REFERENCE_SHAPES + LARGE_VERDICT_CASES]
                 + [(_sign_search_fixed_case, c) for c in SIGN_SEARCH_FIXED])


def _report(check, A):
    """check(A)'s JSON text, or DegenerateInput if it raised that."""
    out = _run(check, A)
    return out if isinstance(out, type) else json.dumps(out.to_json_dict())


def _check_s_on_scaled_copy(A):
    """check_s_reference on core._scaled's copy of A, with its values times
    2^e: what check_s reports on A."""
    scaled, e = _scaled(A)
    v = check_s_reference(scaled)
    for name in ("functional_value", "search_margin"):
        if getattr(v, name) is not None:
            setattr(v, name, _unscaled(getattr(v, name), e, name))
    return v


def _quiet_certificates(monkeypatch):
    """Let the certificate rules, which read the stored entries, overflow
    without a warning: near the float64 limit their row sums and spectral
    iteration do.  The searches run on the scaled copy and must not."""
    certificates = pcheck._certificates

    def quiet(A, weak):
        with np.errstate(over="ignore", invalid="ignore"):
            return certificates(A, weak)

    monkeypatch.setattr(pcheck, "_certificates", quiet)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("prop", ["p", "p0", "s"])
@pytest.mark.parametrize("make,case", VERDICT_CASES,
                         ids=[make.__name__.strip("_") + str(c) for make, c in VERDICT_CASES])
def test_lockstep_verdicts_match_sequential_search(make, case, prop, monkeypatch):
    """check_p, check_p0 and check_s report byte for byte what they report
    on the search that ran one start after another (oracles), early exits
    included; near the float64 limit check_s reports what that search
    reports on the scaled copy, times 2^e, and no search overflows.  Both
    weak-property functional values are one value."""
    A = make(*case)
    check = getattr(pcheck, "check_" + prop)
    _quiet_certificates(monkeypatch)
    got = _report(check, A)
    if prop == "s":
        large = make is _reference_case and case in LARGE_VERDICT_CASES
        ref = _report(_check_s_on_scaled_copy if large else check_s_reference, A)
    else:
        monkeypatch.setattr(pcheck, "_refutation_search", refutation_search_reference)
        ref = _report(check, A)
    assert got == ref
    if prop == "p0":
        report = json.loads(got)
        assert report["functional_value"] == report["functional_value_unthresholded"]


def test_exact_terms_are_the_rational_terms():
    """exact_terms gives t_i(w) = w_i^(m-1) (A w^(m-1))_i as the rational
    sum over every multi-index, on entries of mixed binades and signed
    zeros."""
    rng = np.random.default_rng(5)
    for m, n in ((2, 3), (3, 3), (4, 2)):
        data = rng.uniform(-1, 1, size=(n,) * m) * 2.0 ** rng.integers(-40, 40, size=(n,) * m)
        data[0, ...] *= -0.0
        w = rng.uniform(-1, 1, size=n) * 2.0 ** rng.integers(-20, 20, size=n)
        ref = []
        for i in range(n):
            ax = sum(Fraction(float(data[(i,) + rest]))
                     * math.prod(Fraction(float(w[j])) for j in rest)
                     for rest in itertools.product(range(n), repeat=m - 1))
            ref.append(Fraction(float(w[i])) ** (m - 1) * ax)
        assert exact_terms(data, w) == ref


@pytest.mark.parametrize("m,n", [(3, 4), (4, 3)])
def test_exact_terms_split_slabs_larger_than_a_block(m, n, monkeypatch):
    """With exact._BLOCK = 4 every slab of exact_terms is larger than a
    block, so it is contracted block by block (two levels deep at (4, 3)),
    and the terms are still the rational sums over every multi-index, on
    zeros of both signs, subnormals and entries from 2^-1074 to near the
    float64 limit."""
    monkeypatch.setattr(exact, "_BLOCK", 4)
    sizes = []
    contract = exact._contract

    def spy(block, k, W):
        sizes.append(block.size)
        return contract(block, k, W)

    monkeypatch.setattr(exact, "_contract", spy)
    rng = np.random.default_rng(29)
    data = rng.uniform(-1, 1, size=(n,) * m) * 2.0 ** rng.integers(-1000, 1000, size=(n,) * m)
    special = [0.0, -0.0, 5e-324, -2.5e-310, 2.0**-1022, 1.7976931348623157e308, -1.5e300]
    data.reshape(-1)[rng.permutation(data.size)[:len(special)]] = special
    w = rng.uniform(-1, 1, size=n) * 2.0 ** rng.integers(-300, 300, size=n)
    w[rng.permutation(n)[:2]] = [-0.0, 5e-324]
    ref = []
    for i in range(n):
        ax = sum(Fraction(float(data[(i,) + rest]))
                 * math.prod(Fraction(float(w[j])) for j in rest)
                 for rest in itertools.product(range(n), repeat=m - 1))
        ref.append(Fraction(float(w[i])) ** (m - 1) * ax)
    assert exact_terms(data, w) == ref
    assert max(sizes) == n ** (m - 1) > 4 and min(sizes) <= 4


def test_p0_refutes_when_the_snapped_witness_fails_exactly():
    """random_tensor(3, 3, seed=1003) with its diagonal set to |a_iii| * 0.05
    is not P0: the descent reaches a point whose first entry, 6e-8 of the
    largest, is below the support threshold, with P0 functional -0.018 on
    the thresholded support but +2e-15 on the exact one.  Snapped, such
    points are witnesses whose exact functional over their support is
    negative, so check_p0 refutes instead of reporting LIKELY with a
    negative margin."""
    data = random_tensor(3, 3, seed=1003).data.copy()
    sel = diagonal_index(3, 3)
    data[sel] = np.abs(data[sel]) * 0.05
    v = check_p0(Tensor(data))
    assert v.verdict == "REFUTED" and v.functional_value < 0.0
    assert max(t for t, wi in zip(exact_terms(data, v.witness), v.witness) if wi != 0.0) < 0
    assert v.witness[0] == 0.0


@pytest.mark.parametrize("case", [(3, 8, 0.05, 0), (3, 8, 2.0, 1), (3, 8, 0.05, 5)])
def test_sign_search_refutes_only_on_an_exact_witness(case, monkeypatch):
    """check_p refutes only with a candidate whose exact max_i t_i(w) on the
    stored entries is <= 0, and the search goes on past a candidate that
    passes the float tests but not that one.  On the sign-search inputs
    (3, 8, 0.05, 0) (the fixed input default_rng([20150723, 3, 8, 0]) with
    diagonal |a_iii| + 0.05) and (3, 8, 2.0, 1), false candidates (exact
    maxima near 1e-12 > 0) come before a later one that refutes; on
    (3, 8, 0.05, 5) every candidate is false and the verdict is LIKELY."""
    seen = []
    fails_exactly = pcheck._fails_exactly

    def spy(data, w, weak):
        seen.append((w, fails_exactly(data, w, weak)))
        return seen[-1][1]

    monkeypatch.setattr(pcheck, "_fails_exactly", spy)
    A = _sign_search_fixed_case(*case)
    v = check_p(A)
    assert [ok for _, ok in seen] == [max(exact_terms(A.data, w)) <= 0 for w, _ in seen]
    assert len(seen) > 1 and not any(ok for _, ok in seen[:-1])
    if case[3] == 5:
        assert v.verdict == LIKELY and v.witness is None and not seen[-1][1]
    else:
        assert v.verdict == "REFUTED" and seen[-1][1]
        assert np.array_equal(v.witness, seen[-1][0])
        assert v.functional_value == pytest.approx(float(max(exact_terms(A.data, v.witness))),
                                                   abs=1e-9)


NEAR_LIMIT_FILES = {
    "random_3x4": lambda: Tensor(random_tensor(3, 4, seed=0, symmetric=True).data * 1e308,
                                 symmetric=True),
    "random_4x4": lambda: Tensor(random_tensor(4, 4, seed=0, symmetric=True).data * 1e308,
                                 symmetric=True),
    "ones_2x2": lambda: Tensor([[1e308] * 2] * 2, symmetric=True),
}
_BEYOND_FLOAT64 = re.compile(
    r"error: (the (functional value|search margin|form value) \S+ \* 2\*\*\d+ exceeds "
    r"the float64 range|cannot report \S+ = (inf|-inf|nan): not a finite float64)")


@pytest.mark.parametrize("name", NEAR_LIMIT_FILES)
def test_near_float64_limit_reports_or_names_the_value(tmp_path, name):
    """On finite tensors near the float64 limit, pcheck p and p0 report a
    verdict (exit 0), and analyze and pcheck s either report or exit 2 with
    a message that names the value beyond the float64 range; no run exits 1
    or prints a traceback."""
    path = tmp_path / (name + ".json")
    write_tensor(NEAR_LIMIT_FILES[name](), path)
    env = dict(os.environ)
    package_root = str(Path(ptensor.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    for argv in (["pcheck", str(path), "p"], ["pcheck", str(path), "p0"],
                 ["pcheck", str(path), "s"], ["analyze", str(path)]):
        proc = subprocess.run([sys.executable, "-m", "ptensor.cli", *argv],
                              capture_output=True, text=True, env=env)
        assert "Traceback" not in proc.stderr, proc.stderr
        assert proc.returncode in (0, 2), (argv, proc.stderr)
        if argv[0] == "pcheck" and argv[-1] != "s":
            assert proc.returncode == 0, (argv, proc.stderr)
        if proc.returncode == 2:
            assert _BEYOND_FLOAT64.fullmatch(proc.stderr.splitlines()[-1]), proc.stderr


def test_analyze_with_large_finite_entries_reports_no_eigenpairs(tmp_path):
    """A finite tensor with entries near 1e300 gets a full analyze report:
    the eigenpair search does not validate its own iterates, and the
    absolute tol accepts no pair at that scale."""
    path = tmp_path / "big.json"
    write_tensor(_reference_case(3, 4, 1e300), path)
    env = dict(os.environ)
    package_root = str(Path(ptensor.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "ptensor.cli", "analyze", str(path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["eigenpairs"]["count"] == 0


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_spectral_radius_stops_at_its_first_non_finite_bracket():
    """Near the float64 limit the H rule's iteration overflows at once; it
    stops there, unconverged, instead of running every iteration on nan
    ratios, and the H test stays UNKNOWN.  A bracket whose upper end alone
    overflows is not finite either, and does not count as converged."""
    A = _reference_case(4, 4, 1e308)
    result = nqz_spectral_radius(_m_splitting(comparison_tensor(A))[1])
    assert result.iterations == 1 and not result.converged
    assert is_h_tensor(A).verdict == UNKNOWN
    partial = nqz_spectral_radius(Tensor(np.array([[1e308, 1e308], [1.0, 1.0]])))
    assert partial.bracket[1] == np.inf and np.isfinite(partial.bracket[0])
    assert partial.iterations == 1 and not partial.converged


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_eigenpair_search_near_float64_limit_accepts_no_nan_residual():
    """Near the float64 limit some starts end at a finite point whose
    residual is nan; the search drops them like any residual above tol."""
    for case in [(3, 4, 1e308), (4, 4, 1e308)]:
        assert find_h_eigenpairs(_reference_case(*case)) == []
