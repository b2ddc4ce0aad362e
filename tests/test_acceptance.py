"""Acceptance suite.

One test per acceptance criterion, each printing a PASS line with its
runtime when its assertions hold.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import time

import numpy as np
from ptensor import (
    SearchBudget,
    TcpInstance,
    Tensor,
    all_ones_tensor,
    basis_p0_tensor,
    check_p,
    check_p0,
    check_s,
    contract_m1,
    diagonal_tensor,
    embed_vector,
    explore_solutions,
    identity_tensor,
    phi_p,
    principal_subtensor,
    zero_tensor,
)
from ptensor.cli import main
from ptensor.classes import Hypergraph, cauchy_tensor, laplacian_tensors
from ptensor.generators import (
    random_cauchy_generating_vector,
    random_cp_tensor,
    random_m_tensor,
    random_scp_tensor,
    random_sdd_tensor,
    random_tensor,
)
from ptensor.spectral import find_h_eigenpairs, nqz_spectral_radius
from ptensor.tcp import jacobian_F
from ptensor.tensorio import read_tensor, write_tensor
from ptensor.core import symmetrize
from oracles import (
    jacobian_fd,
    jacobian_rounding_excess,
    min_principal_minor,
    principal_minors_all_positive,
    tcp_grid_argmin,
    tcp_residual_problems,
)

BUDGET = SearchBudget(seed=0, starts=8, iters=120)


def _report(name: str, t0: float, limit: float | None = None):
    elapsed = time.monotonic() - t0
    suffix = f" [{elapsed:.2f} s" + (f" / limit {limit:.0f} s]" if limit else "]")
    print(f"[PASS] {name}{suffix}")
    if limit is not None:
        assert elapsed < limit, f"{name} exceeded the runtime limit"


# ---------------------------------------------------------------------------
# criterion 1: golden reproduction


def test_criterion_1_golden_reproduction(capsys):
    t0 = time.monotonic()
    code = main(["repro", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "pass"
    # exact functional values at y = (0, 1, -1)
    by_name = {c["name"]: c for c in report["checks"]}
    assert abs(by_name["functional term at index 1 equals -0.5"]["value"] - (-0.5)) <= 1e-12
    assert abs(by_name["functional term at index 2 equals -1"]["value"] - (-1.0)) <= 1e-12
    # weak-property refutation with a strictly negative functional witness
    assert report["p0_verdict"]["verdict"] == "REFUTED"
    assert report["p0_verdict"]["functional_value"] < 0.0
    # every H-eigenpair found at seed 0 with 200 starts is positive
    assert report["eigenvalues_found"]
    assert all(v > 0.0 for v in report["eigenvalues_found"])
    with capsys.disabled():
        _report("criterion 1: golden reproduction", t0, limit=10.0)


# ---------------------------------------------------------------------------
# criterion 2: matrix oracle equivalence (order 2)


def test_criterion_2_matrix_oracle_500():
    t0 = time.monotonic()
    refuted = certified = likely = 0
    for i in range(500):
        n = (3, 4, 5)[i % 3]
        rng = np.random.default_rng(1000 + i)
        if i % 5 == 4:
            # dominant-diagonal draws exercise the certified branch; plain
            # uniform matrices are essentially never P
            M = rng.uniform(-1.0, 1.0, size=(n, n))
            np.fill_diagonal(M, 0.0)
            np.fill_diagonal(M, np.abs(M).sum(axis=1) + rng.uniform(0.05, 1.0, size=n))
        else:
            M = rng.uniform(-1.0, 1.0, size=(n, n))
        A = Tensor(M)
        v = check_p(A, BUDGET)
        if v.certified:
            certified += 1
            assert principal_minors_all_positive(M), f"trial {i}: certified a non-P matrix"
        elif v.refuted:
            refuted += 1
            assert min_principal_minor(M) <= 1e-7, f"trial {i}: refuted a P matrix"
            # witness re-fails the functional
            assert phi_p(A, v.witness) <= BUDGET.tol * np.linalg.norm(v.witness) ** 2
        else:
            likely += 1  # LIKELY contradicts neither oracle outcome
    assert refuted > 200 and certified >= 100
    _report(
        f"criterion 2: matrix oracle, 500 matrices "
        f"(certified {certified}, refuted {refuted}, likely {likely})",
        t0,
        limit=60.0,
    )


# ---------------------------------------------------------------------------
# criterion 3: invariant suite


def test_criterion_3a_heredity_200():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    exercised = 0
    for i in range(200):
        m = (3, 4)[i % 2]
        n = (2, 3)[(i // 2) % 2]
        A = random_tensor(m, n, seed=2000 + i)
        if n == 2:
            subset = [int(rng.integers(2))]
        else:
            subset = sorted(rng.choice(n, size=2, replace=False).tolist())
        sub = principal_subtensor(A, subset)
        v = check_p(sub, BUDGET)
        if not v.refuted:
            continue
        exercised += 1
        padded = embed_vector(v.witness, subset, n)
        val = phi_p(A, padded)
        # zero-padded coordinates contribute zero terms: the padded value is
        # max(subtensor value, 0) and still refutes at the same tolerance
        assert val <= max(phi_p(sub, v.witness), 0.0) + 1e-12
        assert val <= BUDGET.tol
        assert not check_p(A, BUDGET).certified
    assert exercised >= 100
    _report(f"criterion 3a: heredity, {exercised}/200 refuted subtensors padded", t0)


def _p0_certified_suite():
    """100 weak-property-certified tensors for the interior test."""
    out = []
    for i in range(40):
        m = (3, 4)[i % 2]
        n = (2, 3)[(i // 2) % 2]
        out.append(random_sdd_tensor(m, n, seed=300 + i))
    for i in range(20):
        n = 4 + (i % 2)
        edges = [(0, 1, 2), (1, 2, 3)] if n == 4 else [(0, 1, 2), (2, 3, 4), (0, 3, 4)]
        g = Hypergraph(n, edges)
        which = laplacian_tensors(g)
        out.append(which[1] if i % 2 == 0 else which[2])
    for i in range(20):
        out.append(random_cp_tensor(3, 3, seed=400 + i, r=2))
    for i in range(10):
        out.append(basis_p0_tensor(((0, 1, 1), (0, 1, 2), (1, 2, 2), (0, 0, 1), (1, 0, 2))[i % 5],
                                   dim=3, negate=bool(i % 2)))
    for i in range(10):
        if i % 2 == 0:
            out.append(zero_tensor(3, 3))
        else:
            out.append(diagonal_tensor([0.0, 1.0, 2.0], 3))
    return out


def test_criterion_3b_interior_shift_100():
    t0 = time.monotonic()
    suite = _p0_certified_suite()
    assert len(suite) == 100
    for k, A in enumerate(suite):
        v0 = check_p0(A, BUDGET)
        assert v0.certified, f"suite tensor {k} is not weak-certified"
        shifted = A + 0.01 * identity_tensor(A.order, A.dim)
        v1 = check_p(shifted, BUDGET)
        assert not v1.refuted, f"suite tensor {k}: shift refuted"
    _report("criterion 3b: interior shift never refuted, 100 tensors", t0)


def _certified_p_suite():
    """The structured strong-property suite: generated nonsingular splits,
    strictly dominant rows, spanning nonnegative factorizations, distinct
    positive generating vectors."""
    suite = []
    for i in range(100):
        m = (3, 4)[i % 2]
        n = (2, 3, 4)[i % 3]
        suite.append(("m_tensor", random_m_tensor(m, n, seed=500 + i, margin=0.5 + (i % 3))))
    for i in range(100):
        m = (3, 4)[i % 2]
        n = (2, 3, 4)[i % 3]
        suite.append(("sdd", random_sdd_tensor(m, n, seed=700 + i)))
    for i in range(50):
        m = (3, 4)[i % 2]  # odd and even order
        n = (2, 3, 4)[i % 3]
        suite.append(("scp", random_scp_tensor(m, n, seed=900 + i)))
    for i in range(50):
        m = (3, 4)[i % 2]
        n = (2, 3, 4)[i % 3]
        u = random_cauchy_generating_vector(n, seed=1100 + i)
        suite.append(("cauchy", cauchy_tensor(u, m)))
    return suite


def test_criterion_3cde_structured_chains_eigen_sign_and_s():
    t0 = time.monotonic()
    suite = _certified_p_suite()
    assert len(suite) == 300
    certified = []
    for kind, A in suite:
        v = check_p(A, BUDGET)
        assert not v.refuted, f"{kind}: structured chain refuted"
        if v.certified:
            certified.append((kind, A))
    # every structured tensor should actually certify through its chain
    assert len(certified) == 300
    _report("criterion 3e: structured chains, 300 tensors, none refuted", t0)

    # 3c: eigenvalue sign on every certified tensor
    t1 = time.monotonic()
    eig_budget = SearchBudget(seed=0, starts=6, iters=120)
    pairs_seen = 0
    for kind, A in certified:
        for p in find_h_eigenpairs(A, eig_budget):
            pairs_seen += 1
            assert p.value > -1e-8, f"{kind}: found a negative eigenvalue {p.value}"
    assert pairs_seen > 100
    _report(f"criterion 3c: eigenvalue sign, {pairs_seen} found pairs all > -1e-8", t1)

    # 3d: the feasibility property follows from the strong property
    t2 = time.monotonic()
    for kind, A in certified:
        vs = check_s(A, BUDGET)
        assert vs.certified, f"{kind}: strong-certified tensor failed the feasibility search"
        w = vs.witness
        assert np.all(w > 0.0)
        assert np.all(contract_m1(A, w) > 0.0)
    _report("criterion 3d: feasibility certified for all 300 strong-certified tensors", t2)


# ---------------------------------------------------------------------------
# criterion 4: spectral radius accuracy


def test_criterion_4_spectral_radius():
    t0 = time.monotonic()
    r1 = nqz_spectral_radius(all_ones_tensor(3, 2))
    assert r1.converged and abs(r1.rho - 4.0) <= 1e-6
    r2 = nqz_spectral_radius(diagonal_tensor([3.0, 5.0], 3))
    assert r2.converged and abs(r2.rho - 5.0) <= 1e-6
    rng = np.random.default_rng(17)
    data = rng.uniform(0.1, 1.0, size=(3, 3, 3))
    base = nqz_spectral_radius(Tensor(data)).rho
    for c in (0.5, 2.0, 7.5):
        scaled = nqz_spectral_radius(Tensor(c * data)).rho
        assert abs(scaled - c * base) <= 1e-8 * max(1.0, abs(c * base))
    _report("criterion 4: spectral radius accuracy and scale covariance", t0, limit=5.0)


# ---------------------------------------------------------------------------
# criterion 5: complementarity existence at desk scale


def test_criterion_5_tcp_existence_50():
    t0 = time.monotonic()
    shapes = [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (4, 4)]
    explore_budget = SearchBudget(seed=0, starts=32, iters=150)
    checked_grid = 0
    for i in range(50):
        m, n = shapes[i % len(shapes)]
        # margin >= 0.5 bounds every solution component by (1/margin)^(1/(m-1))
        # <= sqrt(2), keeping the whole solution set inside the grid box
        A = random_sdd_tensor(m, n, seed=1300 + i, margin_low=0.5, margin_high=1.5)
        assert check_p(A, BUDGET).certified
        q = np.random.default_rng(1400 + i).uniform(-1.0, 1.0, size=n)
        inst = TcpInstance(A, q)
        ss = explore_solutions(inst, explore_budget)
        assert len(ss.solutions) >= 1, f"instance {i}: no solution found"
        for s in ss.solutions:
            assert s.natural_residual <= 1e-8
            assert tcp_residual_problems(A.data, q, s.x, explore_budget.tol) == [], f"instance {i}"
        if n == 2:
            checked_grid += 1
            xg, _ = tcp_grid_argmin(A.data, q)
            dists = [float(np.max(np.abs(s.x - xg))) for s in ss.solutions]
            assert min(dists) <= 2e-3, f"instance {i}: grid oracle disagrees"
    assert checked_grid >= 15
    _report(
        f"criterion 5: 50 certified instances solved, {checked_grid} grid cross-checks",
        t0,
        limit=300.0,
    )


# ---------------------------------------------------------------------------
# criterion 6: gradient check


def test_criterion_6_jacobian_gradient_check():
    t0 = time.monotonic()
    rng = np.random.default_rng(23)

    def tensors():
        for i in range(20):
            m = (3, 4)[i % 2]
            n = (2, 3, 4)[i % 3]
            yield symmetrize(Tensor(rng.uniform(-1.0, 1.0, size=(n,) * m)))
        # not symmetric in modes 2..m
        for i in range(20):
            make = random_tensor if i < 10 else random_sdd_tensor
            yield make((3, 4)[i % 2], (2, 3, 4)[i % 3], seed=2300 + i)

    for i, A in enumerate(tensors()):
        n = A.dim
        inst = TcpInstance(A, rng.uniform(-1.0, 1.0, size=n))
        x = rng.uniform(0.2, 1.0, size=n)
        Ja = jacobian_F(inst, x)
        Jf = jacobian_fd(inst, x)
        scale = max(1.0, float(np.max(np.abs(Ja))))
        assert np.max(np.abs(Ja - Jf)) <= 1e-5 * scale, f"tensor {i}"
        assert jacobian_rounding_excess(A.data, x, Ja) == [], f"tensor {i}"
    _report("criterion 6: Jacobian vs finite differences and exact arithmetic, 40 tensors", t0)


# ---------------------------------------------------------------------------
# criterion 7: format round trip and determinism


def test_criterion_7_roundtrip_and_determinism(tmp_path, capsys):
    t0 = time.monotonic()
    # gen -> parse bit exact for every generator kind with an in-memory twin
    twins = {
        "identity": (["gen", "identity", "--m", "3", "--n", "2"], identity_tensor(3, 2)),
        "allones": (["gen", "allones", "--m", "3", "--n", "3"], all_ones_tensor(3, 3)),
        "cauchy": (["gen", "cauchy", "--u", "1,2,3", "--m", "3"],
                   cauchy_tensor(np.array([1.0, 2.0, 3.0]), 3)),
        "mtensor": (["gen", "mtensor", "--m", "3", "--n", "2", "--seed", "11"],
                    random_m_tensor(3, 2, seed=11)),
        "basis": (["gen", "basis_p0", "--indices", "0,1,1", "--n", "2", "--negate"],
                  basis_p0_tensor((0, 1, 1), dim=2, negate=True)),
    }
    for name, (argv, twin) in twins.items():
        path = tmp_path / f"{name}.json"
        code = main(argv + ["--out", str(path)])
        capsys.readouterr()
        assert code == 0
        back = read_tensor(path)
        assert np.array_equal(back.data, twin.data), name

    # repeated runs with equal seeds produce byte-identical reports
    ref = tmp_path / "ref.json"
    from ptensor.generators import reference_counterexample

    write_tensor(reference_counterexample(), ref)
    outs = []
    for _ in range(2):
        code = main(["analyze", str(ref), "--starts", "6", "--seed", "2"])
        assert code == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    # file writes are byte-stable too
    p1, p2 = tmp_path / "g1.json", tmp_path / "g2.json"
    for p in (p1, p2):
        main(["gen", "random", "--m", "4", "--n", "3", "--seed", "9", "--out", str(p)])
        capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()
    with capsys.disabled():
        _report("criterion 7: round trip bit-exact and byte-identical reports", t0)
