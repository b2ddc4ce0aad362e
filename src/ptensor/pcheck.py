"""Certify-or-refute engine for the strong (P), weak (P0) and feasibility (S)
sign properties of a tensor.

The decision functional for a tensor A and nonzero x is

    t_i(x) = x_i^(m-1) * (A x^(m-1))_i

A  has the strong property iff max_i t_i(x) > 0 for every nonzero x, the
weak property iff max over the support of x of t_i(x) is >= 0 for every
nonzero x, and the feasibility property iff some x > 0 has
A x^(m-1) > 0 componentwise.

Deciding these properties exactly generalizes P-matrix recognition, which
is co-NP-complete, so verdicts are three valued:

    CERTIFIED  a closed list of sufficient conditions fired, each an exact
               arithmetic check or a margin-guarded spectral bound, and the
               certificate chain is recorded;
    REFUTED    a concrete witness fails the defining inequality: for the
               search's witnesses, in exact arithmetic on the stored
               entries;
    LIKELY     a deterministic candidate battery plus seeded multistart
               subgradient descent found no witness (LIKELY_NOT for the
               feasibility search, which looks for a witness, not a
               counterexample).

The closed list of certificate rules is the table CERTIFICATE_RULES: for
each rule its name under the strong and under the weak property, in the
order the rules are tried.  P and P0 run one pipeline (_check_sign) that
differs only in strict versus non-strict inequalities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .budget import DEFAULT_TAU_REL, SearchBudget, check_tau_rel
from .classes import (
    CERTIFIED,
    LIKELY,
    REFUTED,
    ClassReport,
    _m_splitting,
    _project_simplex,
    is_b_tensor,
    is_diagonally_dominant,
    is_h_tensor,
    is_z_tensor,
)
from .core import (
    Tensor,
    _contract_batch,
    _contract_pair,
    _scaled,
    _tail_symmetric,
    _unscaled,
    as_vector,
    canonicalize_direction,
    contract_m1,
    is_symmetric,
)
from .errors import DegenerateInput, DiagonalNegationError, NotPBehaviorAt
from .spectral import nqz_spectral_radius

P = "P"
P0 = "P0"
S = "S"
LIKELY_NOT = "LIKELY_NOT"


@dataclass
class PVerdict:
    """Outcome of a sign-property check.

    witness: refuting vector (P/P0) or feasible interior vector (S),
    reported sup-norm normalized with a deterministic sign.
    functional_value: the decision functional at the witness; for the weak
    property functional_value_unthresholded repeats it, since on a witness
    the thresholded and the exact support agree.
    search_margin: smallest (largest, for S) functional value seen during
    the search; calibrates how much slack a LIKELY verdict has.
    """

    prop: str
    verdict: str
    witness: np.ndarray | None = None
    certificate_chain: list = field(default_factory=list)
    search_margin: float | None = None
    functional_value: float | None = None
    functional_value_unthresholded: float | None = None
    budget: SearchBudget = field(default_factory=SearchBudget)

    @property
    def certified(self) -> bool:
        return self.verdict == CERTIFIED

    @property
    def refuted(self) -> bool:
        return self.verdict == REFUTED

    def to_json_dict(self) -> dict:
        chain = []
        for rule, info in self.certificate_chain:
            if isinstance(info, ClassReport):
                chain.append({"rule": rule, "report": info.to_json_dict()})
            else:
                chain.append({"rule": rule, "report": str(info)})
        return {
            "property": self.prop,
            "verdict": self.verdict,
            "witness": None if self.witness is None else [float(v) for v in self.witness],
            "margin": None if self.search_margin is None else float(self.search_margin),
            "functional_value": (
                None if self.functional_value is None else float(self.functional_value)
            ),
            "functional_value_unthresholded": (
                None
                if self.functional_value_unthresholded is None
                else float(self.functional_value_unthresholded)
            ),
            "chain": chain,
            "budget": self.budget.to_json_dict(),
        }


# ---------------------------------------------------------------------------
# decision functionals


def _terms(A: Tensor, X: np.ndarray, tau_rel: float | None = None):
    """(t, A x^(m-1)) for every row x of X from one batched contraction,
    t_i = x_i^(m-1) (A x^(m-1))_i; with tau_rel given, t_i = -inf off the
    row's numeric support, the i with |x_i| <= tau_rel * max|x|.  The
    functionals and the battery take them here; the terms themselves come
    from _terms_of, which the descent calls on its own contraction."""
    ax = _contract_batch(A.data, X, A.order - 1)
    return _terms_of(X, ax, A.order, tau_rel), ax


def _terms_of(X: np.ndarray, ax: np.ndarray, m: int, tau_rel: float | None) -> np.ndarray:
    """The terms t of _terms from ax = A x^(m-1): the one evaluation of
    x_i^(m-1) (A x^(m-1))_i."""
    t = X ** (m - 1) * ax
    if tau_rel is not None:
        mag = np.abs(X)
        t = np.where(mag > tau_rel * mag.max(axis=1, keepdims=True), t, -np.inf)
    return t


def _terms_at(A: Tensor, x, tau_rel: float | None = None,
              message: str = "the sign functional is undefined at the zero vector"):
    """(x as a vector, its terms) for a public functional; DegenerateInput
    with message at the zero vector."""
    v = as_vector(x, dim=A.dim)
    if float(np.max(np.abs(v))) == 0.0:
        raise DegenerateInput(message)
    return v, _terms(A, v[None], tau_rel)[0][0]


def phi_p(A: Tensor, x) -> float:
    """max_i x_i^(m-1) (A x^(m-1))_i; positive for every nonzero x iff A has
    the strong sign property.  Homogeneous of degree 2(m-1)."""
    return float(np.max(_terms_at(A, x)[1]))


def phi_p0(A: Tensor, x, tau_rel: float | None = None) -> float:
    """max over the numeric support of x of x_i^(m-1) (A x^(m-1))_i.

    tau_rel=0 gives the exact-arithmetic support (x_i != 0.0); ValueError
    unless tau_rel lies in [0, 1)."""
    if tau_rel is None:
        tau_rel = DEFAULT_TAU_REL
    check_tau_rel(tau_rel)
    return float(np.max(_terms_at(A, x, tau_rel)[1]))


def scaling_matrix(A: Tensor, x) -> np.ndarray:
    """Diagonal of a positive diagonal matrix D with
    <D x^{[m-1]}, A x^{m-1}> > 0, built from the sign pattern of the
    functional terms: D = diag(delta + eps) with delta_i = 1 exactly on the
    positive terms and eps half the bound sum(delta*t) / |sum(t)|
    (eps = 1 when the terms sum to zero).  Requires a positive term at x."""
    v, t = _terms_at(A, x, message="scaling matrix needs a nonzero vector")
    mx = float(np.max(t))
    if mx <= 0.0:
        raise NotPBehaviorAt(v, mx)
    delta = (t > 0.0).astype(float)
    total = float(np.sum(t))
    if total == 0.0:
        eps = 1.0
    else:
        eps = 0.5 * float(np.sum(delta * t)) / abs(total)
    d = delta + eps
    value = float(np.sum(d * t))
    if not value > 0.0:
        raise NotPBehaviorAt(v, value)  # unreachable for valid inputs
    return d


def hull_membership(A: Tensor) -> ClassReport:
    """Membership in the convex hull (= convex cone) of the weak-property
    class, which is exactly {diagonal >= 0}."""
    diag = A.diagonal()
    bad = np.flatnonzero(diag < 0.0)
    if bad.size:
        i = int(bad[0])
        return ClassReport(
            "p0_hull",
            REFUTED,
            witness=i,
            detail=f"diagonal entry {diag[i]:.6g} < 0 at index {i}",
        )
    return ClassReport("p0_hull", CERTIFIED, detail="all diagonal entries are >= 0")


def basis_p0_tensor(indices, dim: int, negate: bool = False) -> Tensor:
    """Rank-one basis tensor +/- e_{i1} x ... x e_{im} (a single +/-1 entry).

    The negated variant requires a non-constant index tuple: negating a
    diagonal position creates a negative diagonal entry, which already
    violates the weak property."""
    idx = tuple(int(i) for i in indices)
    m = len(idx)
    if m < 2:
        raise ValueError("need at least 2 indices")
    if any(i < 0 or i >= dim for i in idx):
        raise IndexError(f"indices {idx} out of range for dimension {dim}")
    constant = all(i == idx[0] for i in idx)
    if negate and constant:
        raise DiagonalNegationError(
            f"cannot negate the diagonal tuple {idx}: the result has a negative diagonal"
        )
    data = np.zeros((dim,) * m)
    data[idx] = -1.0 if negate else 1.0
    return Tensor(
        data,
        symmetric=constant,
        provenance={"generator": "basis_p0", "p0_by_construction": True},
        provenance_trusted=True,
    )


# ---------------------------------------------------------------------------
# candidate battery and subgradient descent

_SIGN_PATTERN_MAX_DIM = 6


def candidate_battery(n: int) -> np.ndarray:
    """Deterministic probe directions, sup-norm normalized, one per row.

    First e_0, -e_0, e_1, -e_1, ... and the all-ones vector and its
    negation; for n <= 6 then the full {-1, 0, 1}^n sign-pattern set
    without 0, last coordinate fastest, which catches every diagonal-sign
    violation and all orthant boundary behavior before any randomized
    search runs."""
    eye, ones = np.eye(n), np.ones((1, n))
    rows = [np.stack((eye, -eye), axis=1).reshape(2 * n, n), ones, -ones]
    if n <= _SIGN_PATTERN_MAX_DIM:
        patterns = np.indices((3,) * n).reshape(n, -1).T - 1.0
        rows.append(np.delete(patterns, len(patterns) // 2, axis=0))
    return np.concatenate(rows)


def _walk(X: np.ndarray, iters: int, oracle, project):
    """Projected subgradient descent from every row of X, all starts in
    lockstep: oracle(X) gives each running start's value and subgradient,
    the step is x - g / (||g|| (k+10)) at iteration k, then project.  A
    start stops when its subgradient vanishes.  Returns each start's first
    point with its lowest value, and that value; row p is what the walk
    from X[p] alone gives.  Until a start stops, the records update in
    place and no row is gathered."""
    X = project(X)
    best_x, best_val = X.copy(), np.full(len(X), np.inf)
    live = np.arange(len(X))
    for it in range(iters):
        if not live.size:
            break
        val, g = oracle(X)
        if live.size == len(best_val):
            better = val < best_val
            np.copyto(best_val, val, where=better)
            np.copyto(best_x, X, where=better[:, None])
        else:
            better = val < best_val[live]
            best_val[live[better]], best_x[live[better]] = val[better], X[better]
        gn = np.sqrt(np.vecdot(g, g))
        if gn.all():
            X = project(X - g / (gn * (it + 10.0))[:, None])
        else:
            go = gn != 0.0
            X, live = project(X[go] - g[go] / (gn[go] * (it + 10.0))[:, None]), live[go]
    return best_x, best_val


def _descend(A: Tensor, X0: np.ndarray, budget: SearchBudget, weak: bool):
    """Subgradient descent (_walk) on the max-of-terms functional over the
    2-sphere from each row of X0; the active term is the argmax over the
    support (weak) or over all terms, lowest index on ties.  Each step
    takes A x^(m-1), the terms and the active Jacobian row from one
    core._contract_pair on A stacked with B = _tail_symmetric(A), stacked
    once per search.  The callers pass _scaled's copy, whose entries are
    below 1 in magnitude, so on the sphere no iterate can overflow and
    every term is finite."""
    m, AB = A.order, np.concatenate((A.data, _tail_symmetric(A)))
    tau_rel = budget.tau_rel if weak else None

    def oracle(X):
        ax, t, local, J = _contract_pair(AB, X, lambda ax, x: _terms_of(x, ax, m, tau_rel))
        r = np.arange(len(X))
        # the gradient of t_i = x_i^(m-1) (A x^(m-1))_i at each start's active
        # i, with row i of the Jacobian (m-1) * B[i] x^(m-2); the powers of
        # the one entry x_i are Python float (libm) powers, as numpy's scalar
        # power takes them, which differ in the last bit from the array power
        xi = X[r, local].tolist()
        pw = np.array([v ** (m - 1) for v in xi] + [v ** (m - 2) for v in xi])
        g = pw[:len(xi), None] * ((m - 1) * J)
        g[r, local] += (m - 1) * pw[len(xi):] * ax[r, local]
        return t[r, local], g

    return _walk(X0, budget.iters, oracle, lambda X: X / np.sqrt(np.vecdot(X, X))[:, None])


def _snap_witness(x: np.ndarray, tau_rel: float) -> np.ndarray:
    """Canonical witness form: zero out numerically dead components, scale
    to sup-norm 1, fix the sign deterministically."""
    w = canonicalize_direction(x)
    w[np.abs(w) <= tau_rel] = 0.0
    return canonicalize_direction(w)


def _threshold(x: np.ndarray, m: int, tol: float) -> float:
    """tol * ||x||^(2(m-1)); math.sqrt(x.dot(x)) is what np.linalg.norm
    computes for a 1-D float vector."""
    return tol * math.sqrt(x.dot(x)) ** (2 * (m - 1))


# ---------------------------------------------------------------------------
# certificate rules


# The certificate rule table, tried top to bottom; the first rule that fires
# certifies.  A row is (P rule, P0 rule, test); a rule name of None means
# the row does not apply to that property.  test(A, weak) returns the
# evidence for the chain: a string when a trusted construction claim holds,
# or a class report, which fires when it is CERTIFIED; anything falsy does
# not fire.  P rules use strict inequalities, P0 rules non-strict ones.  The
# rules run only after the diagonal necessary condition has passed, so the
# diagonal is positive (P) or nonnegative (P0) in every test.
CERTIFICATE_RULES = (
    ("scp_construction", None,
     lambda A, weak: bool(A.claim("scp")) and "trusted strongly-completely-positive construction"),
    (None, "cp_construction",
     lambda A, weak: bool(A.claim("cp") or A.claim("scp"))
     and "trusted completely-positive construction"),
    (None, "hypergraph_laplacian",
     lambda A, weak: bool(A.claim("hypergraph_laplacian"))
     and "trusted uniform-hypergraph Laplacian construction"),
    (None, "rank_one_basis",
     lambda A, weak: bool(A.claim("p0_by_construction")) and "trusted rank-one basis construction"),
    ("strict_diagonal_dominance_positive_diagonal", "diagonal_dominance_nonnegative_diagonal",
     lambda A, weak: is_diagonally_dominant(A, strict=not weak)),
    ("nonsingular_h_positive_diagonal", "nonsingular_h_nonnegative_diagonal",
     lambda A, weak: is_h_tensor(A)),
    ("b_tensor_odd_order", "b0_tensor_odd_order",
     lambda A, weak: A.order % 2 == 1 and is_b_tensor(A, strict=not weak)),
    ("b_tensor_symmetric_even_order", "b0_tensor_symmetric_even_order",
     lambda A, weak: A.order % 2 == 0 and is_symmetric(A) and is_b_tensor(A, strict=not weak)),
)


def _certificates(A: Tensor, weak: bool) -> list:
    """[(rule, evidence)] for the first rule of CERTIFICATE_RULES that fires
    for the weak (P0) or strong (P) property, or []."""
    for p_rule, p0_rule, test in CERTIFICATE_RULES:
        rule = p0_rule if weak else p_rule
        evidence = rule and test(A, weak)
        if evidence and (isinstance(evidence, str) or evidence.certified):
            return [(rule, evidence)]
    return []


# ---------------------------------------------------------------------------
# the three checks


def check_p(A: Tensor, budget: SearchBudget = SearchBudget()) -> PVerdict:
    """Three-phase check of the strong sign property (see _check_sign); a
    search point with functional <= tol is a candidate witness, which
    refutes when its exact functional is <= 0, since the property requires
    strict positivity."""
    return _check_sign(A, budget, weak=False)


def check_p0(A: Tensor, budget: SearchBudget = SearchBudget()) -> PVerdict:
    """Three-phase check of the weak sign property (see _check_sign).

    Differences from the strong check: the search threshold is strictly
    negative (boundary zeros are feasible), and a snapped witness refutes
    when its exact functional over its support is < 0, so neither the
    support threshold nor rounding can refute on its own.
    """
    return _check_sign(A, budget, weak=True)


def _check_sign(A: Tensor, budget: SearchBudget, weak: bool) -> PVerdict:
    """The P (weak=False) and P0 (weak=True) pipeline.

    1. necessary condition: t_i(e_i) = a_{i...i}, so a diagonal entry
       <= 0 (P) or < 0 (P0) refutes with the coordinate direction e_i;
    2. certificates: the first rule of CERTIFICATE_RULES that fires;
    3. refutation search: the candidate battery, then multistart
       subgradient descent (_refutation_search), on the copy A * 2^-e of
       core._scaled, with tol relative to it; the functional values it
       finds are reported times 2^e.  Its witness fails the inequality
       in exact arithmetic on the stored entries (_fails_exactly); when
       it finds none the verdict is LIKELY, with the smallest functional
       value it saw as the margin.

    Steps 1 and 2 read the stored entries.  The weak property's two
    functional fields are one value: t_i(e_i) = a_{i...i} whatever the
    support threshold, and on a snapped witness the two supports agree.
    """
    prop = P0 if weak else P

    diag = A.diagonal()
    i = int(np.argmin(diag))
    if (diag[i] < 0.0) if weak else (diag[i] <= 0.0):
        op = "<" if weak else "<="
        chain = [("diagonal_necessary_condition", f"diagonal entry {diag[i]:.6g} {op} 0 at {i}")]
        w, val = np.zeros(A.dim), float(diag[i])
        w[i] = 1.0
    else:
        chain = _certificates(A, weak)
        if chain:
            return PVerdict(prop, CERTIFIED, certificate_chain=chain, budget=budget)
        scaled, e = _scaled(A)
        w, val, floor = _refutation_search(scaled, budget, weak, A.data)
        if w is None:
            return PVerdict(prop, LIKELY, search_margin=_unscaled(floor, e, "search margin"),
                            budget=budget)
        val = _unscaled(val, e, "functional value")
    return PVerdict(prop, REFUTED, witness=w, certificate_chain=chain, functional_value=val,
                    functional_value_unthresholded=val if weak else None, search_margin=val,
                    budget=budget)


def _refutation_search(A: Tensor, budget: SearchBudget, weak: bool, stored: np.ndarray):
    """Battery plus descent on A, core._scaled's copy of the tensor whose
    entries are stored.  Returns (witness, functional, floor): witness is
    the canonical refuting vector or None, floor the smallest functional
    value seen anywhere in the search.

    A search point is a candidate when its functional is <= tol * scale
    (strong) or < -tol * scale (weak, on the thresholded support).  The
    candidate is snapped (_snap_witness) and refutes exactly when the
    snapped point fails the inequality in exact arithmetic on stored
    (_fails_exactly); otherwise it is a rounding artifact, and the search
    goes on past it.
    """
    m = A.order
    func = (lambda x: phi_p0(A, x, budget.tau_rel)) if weak else (lambda x: phi_p(A, x))

    def past(x: np.ndarray, val: float) -> bool:
        """val is past the refutation threshold at x."""
        thr = _threshold(x, m, budget.tol)
        return val < -thr if weak else val <= thr

    def points():
        """(x, func(x)) for each battery candidate, then (best point, best
        value) of a descent from each of the 8 candidates with the smallest
        functional and from each seeded sphere start, all in lockstep."""
        battery = candidate_battery(A.dim)
        vals = _terms(A, battery, budget.tau_rel if weak else None)[0].max(axis=1).tolist()
        yield from zip(battery, vals)
        lowest = sorted(range(len(vals)), key=vals.__getitem__)[:8]
        starts = [battery[j] / np.linalg.norm(battery[j]) for j in lowest]
        # the battery already holds the fixed sphere starts; keep the seeded draws
        starts += budget.sphere_starts(A.dim)[A.dim + 1:]
        best_xs, best_vals = _descend(A, np.array(starts), budget, weak)
        yield from zip(best_xs, best_vals.tolist())

    best_val, best_x = np.inf, None
    for x, val in points():
        if val < best_val:
            best_val, best_x = val, x
        if past(x, val):
            w = _snap_witness(x, budget.tau_rel)
            if _fails_exactly(stored, w, weak):
                wval = func(w)
                return w, wval, min(best_val, wval)

    floor = func(_snap_witness(best_x, budget.tau_rel))
    return None, None, float(min(best_val, floor))


def _fails_exactly(data: np.ndarray, w: np.ndarray, weak: bool) -> bool:
    """Whether the terms t_i(w) on the entries data, in exact arithmetic,
    fail the inequality: max <= 0 (P), or max over the support of w < 0
    (P0)."""
    from .exact import exact_terms  # loads fractions; most searches find no candidate

    top = max(t for t, wi in zip(exact_terms(data, w), w) if wi != 0.0 or not weak)
    return top < 0 if weak else top <= 0


def _ascend(A: Tensor, X0: np.ndarray, budget: SearchBudget, floor: float):
    """Projected subgradient ascent of min_i (A x^{m-1})_i over the simplex,
    components clamped to >= floor, from each row of X0: _walk minimising
    its negation (which is exact), active term argmin, lowest index on
    ties.  Returns each start's first point with its best value, and that
    value.  check_s passes _scaled's copy, on which no step can overflow."""
    m, AB = A.order, np.concatenate((A.data, _tail_symmetric(A)))

    def oracle(X):
        ax, _, _, J = _contract_pair(AB, X, lambda ax, x: -ax)
        return -ax.min(axis=1), -(m - 1) * J

    best_x, best_val = _walk(X0, budget.iters, oracle, lambda X: _project_simplex(X, floor))
    return best_x, -best_val


def check_s(A: Tensor, budget: SearchBudget = SearchBudget()) -> PVerdict:
    """Feasibility search: is there x > 0 with A x^{m-1} > 0 componentwise?

    Quick probes (the all-ones vector, and the positive principal vector of
    s*I - A when A is a Z-tensor) come first, then projected subgradient
    ascent of min_i (A x^{m-1})_i over the simplex with components clamped
    to >= 1e-8.  Success certifies with a re-verified witness; failure is
    only LIKELY_NOT, never REFUTED, because the search looks for a witness
    of existence.  Everything runs on the copy A * 2^-e of core._scaled,
    with tol relative to it, and the values are reported times 2^e.
    """
    A, e = _scaled(A)
    n = A.dim
    floor = 1e-8

    def certify(x: np.ndarray) -> PVerdict | None:
        w = x / float(np.max(np.abs(x)))
        val = float(np.min(contract_m1(A, w)))
        if np.all(w > 0.0) and val > budget.tol:
            val = _unscaled(val, e, "functional value")
            return PVerdict(S, CERTIFIED, witness=w, functional_value=val, search_margin=val,
                            budget=budget)
        return None

    ones = np.ones(n)
    out = certify(ones)
    if out is not None:
        return out

    candidates = []
    if is_z_tensor(A).certified:
        perron = nqz_spectral_radius(_m_splitting(A)[1]).perron_vector
        candidates.append(np.maximum(perron, floor))
    for k in range(budget.starts):
        candidates.append(np.maximum(budget.start_rng(k).random(n), floor))

    # k0: the first raw candidate that certifies (rescaling preserves
    # positivity); only the candidates before it are ascended, all in
    # lockstep, and their best points are certified before it
    k0 = next((k for k, x0 in enumerate(candidates) if certify(x0)), len(candidates))
    best_xs, best_vals = _ascend(A, np.array(candidates[:k0]).reshape(k0, n), budget, floor)

    best_x = ones / n
    best_val = float(np.min(contract_m1(A, best_x)))
    for x, val in zip(best_xs, best_vals.tolist()):
        if val > best_val:
            best_val, best_x = val, x
        out = certify(best_x)
        if out is not None:
            return out
    if k0 < len(candidates):
        return certify(candidates[k0])
    return PVerdict(S, LIKELY_NOT, search_margin=_unscaled(best_val, e, "search margin"),
                    budget=budget)
