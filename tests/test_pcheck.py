"""Certify-or-refute engine: functionals, checks, scaling matrix, heredity."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
from ptensor.classes import cauchy_tensor, is_copositive, laplacian_tensors, Hypergraph
from ptensor.classes import cp_tensor
from ptensor.generators import (
    random_m_tensor,
    random_scp_tensor,
    random_sdd_tensor,
    random_tensor,
)
from ptensor import pcheck
from ptensor.tensorio import write_tensor
from ptensor.pcheck import CERTIFICATE_RULES, LIKELY_NOT, candidate_battery
from ptensor.spectral import find_h_eigenpairs
from oracles import (
    ascend_reference,
    descend_reference,
    min_principal_minor,
    principal_minors_all_positive,
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


def test_rule_cases_cover_the_table():
    names = {rule for row in CERTIFICATE_RULES for rule in row[:2] if rule is not None}
    assert names == {case[0] for case in RULE_CASES}


# ---------------------------------------------------------------------------
# the descent and ascent loops against their first-written form


def _reference_case(m, n, scale=1.0):
    """Seeded tensor with entries uniform in [-scale, scale] and the
    diagonal lifted to |a_i..i| + 0.3 * scale, the positive-diagonal kind
    of input whose checks reach the descent."""
    rng = np.random.default_rng([8, m, n])
    data = rng.uniform(-1.0, 1.0, size=(n,) * m) * scale
    sel = tuple([np.arange(n)] * m)
    data[sel] = np.abs(data[sel]) + 0.3 * scale
    return Tensor(data)


def _run(f, *args):
    """f's result, or the type of the exception it raised."""
    try:
        return f(*args)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)


def _assert_same(got, ref):
    if isinstance(ref, type):
        assert got is ref
    else:
        assert not isinstance(got, type), got
        assert np.array_equal(got[0], ref[0], equal_nan=True)
        assert got[1] == ref[1] or (np.isnan(got[1]) and np.isnan(ref[1]))


REFERENCE_SHAPES = [(2, 4), (3, 6), (4, 4), (6, 4)]
LARGE_ENTRY_CASES = [(3, 4, 1e300), (4, 4, 1e308)]


@pytest.mark.parametrize("weak", [False, True], ids=["strong", "weak"])
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@pytest.mark.parametrize("case", REFERENCE_SHAPES + LARGE_ENTRY_CASES, ids=str)
def test_descent_matches_reference_bitwise(case, weak):
    """pcheck._descend, on the single Jacobian row and with one finiteness
    check per iteration, returns bit for bit what the loop as first written
    returns from every sphere start; where that loop raised (entries near
    the float64 range), it raises the same exception type."""
    A = _reference_case(*case)
    budget = SearchBudget()
    raised = 0
    for x0 in budget.sphere_starts(A.dim):
        ref = _run(descend_reference, A, x0, budget, weak)
        got = _run(pcheck._descend, A, x0, budget, weak)
        if len(case) == 2:
            assert not isinstance(ref, type), ref
        _assert_same(got, ref)
        raised += ref is DegenerateInput
    if case == LARGE_ENTRY_CASES[-1]:
        assert raised > 0  # the finiteness check is exercised


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@pytest.mark.parametrize("case", REFERENCE_SHAPES + LARGE_ENTRY_CASES, ids=str)
def test_check_s_ascent_matches_reference_bitwise(case):
    """pcheck._ascend from each seeded start of check_s returns bit for bit
    the best point and value of the ascent as first written, and check_s's
    merge of those per-start bests equals that loop's running best."""
    A = _reference_case(*case)
    budget = SearchBudget()
    floor = 1e-8
    ones = np.ones(A.dim) / A.dim
    best = ref_best = (ones, float(np.min(contract_m1(A, ones))))
    for k in range(budget.starts):
        x0 = np.maximum(budget.start_rng(k).random(A.dim), floor)
        ref = _run(ascend_reference, A, x0, budget, floor, None, -np.inf)
        got = _run(pcheck._ascend, A, x0, budget, floor)
        if len(case) == 2:
            assert not isinstance(ref, type), ref
        _assert_same(got, ref)
        if isinstance(ref, type):
            continue
        ref_best = ascend_reference(A, x0, budget, floor, *ref_best)
        if got[1] > best[1]:
            best = got
        _assert_same(best, ref_best)


def test_check_s_near_float64_limit_exits_2_without_traceback(tmp_path):
    """The ascent overflows on entries near the float64 limit; pcheck s
    reports it as pcheck p does, with exit 2 and no traceback."""
    path = tmp_path / "big.json"
    write_tensor(_reference_case(4, 4, 1e308), path)
    env = dict(os.environ)
    package_root = str(Path(ptensor.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    for prop in ("s", "p"):
        proc = subprocess.run([sys.executable, "-m", "ptensor.cli", "pcheck", str(path), prop],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 2, proc.stderr
        assert "error: vector entries must be finite" in proc.stderr
        assert "Traceback" not in proc.stderr
