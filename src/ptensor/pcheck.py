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
    REFUTED    a concrete witness re-fails the defining inequality on
               re-evaluation;
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

from dataclasses import dataclass, field

import numpy as np

from .budget import DEFAULT_TAU_REL, SearchBudget
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
    _scaled,
    _tail_symmetric,
    _unscaled,
    as_vector,
    canonicalize_direction,
    contract_m1,
    is_symmetric,
    support,
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
    property both the support-thresholded and the exact-support values are
    kept, since the numeric support threshold is an artifact choice.
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


def _terms(A: Tensor, x: np.ndarray) -> np.ndarray:
    m = A.order
    return x ** (m - 1) * contract_m1(A, x)


def phi_p(A: Tensor, x) -> float:
    """max_i x_i^(m-1) (A x^(m-1))_i; positive for every nonzero x iff A has
    the strong sign property.  Homogeneous of degree 2(m-1)."""
    v = as_vector(x, dim=A.dim)
    if float(np.max(np.abs(v))) == 0.0:
        raise DegenerateInput("the sign functional is undefined at the zero vector")
    return float(np.max(_terms(A, v)))


def phi_p0(A: Tensor, x, tau_rel: float | None = None) -> float:
    """max over the numeric support of x of x_i^(m-1) (A x^(m-1))_i.

    tau_rel=0 gives the exact-arithmetic support (x_i != 0.0)."""
    v = as_vector(x, dim=A.dim)
    if float(np.max(np.abs(v))) == 0.0:
        raise DegenerateInput("the sign functional is undefined at the zero vector")
    if tau_rel is None:
        tau_rel = DEFAULT_TAU_REL
    return float(np.max(_terms(A, v)[support(v, tau_rel)]))


def scaling_matrix(A: Tensor, x) -> np.ndarray:
    """Diagonal of a positive diagonal matrix D with
    <D x^{[m-1]}, A x^{m-1}> > 0, built from the sign pattern of the
    functional terms: D = diag(delta + eps) with delta_i = 1 exactly on the
    positive terms and eps half the bound sum(delta*t) / |sum(t)|
    (eps = 1 when the terms sum to zero).  Requires a positive term at x."""
    v = as_vector(x, dim=A.dim)
    if float(np.max(np.abs(v))) == 0.0:
        raise DegenerateInput("scaling matrix needs a nonzero vector")
    t = _terms(A, v)
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


def candidate_battery(n: int) -> list:
    """Deterministic probe directions, sup-norm normalized.

    Always contains +/- every coordinate direction and +/- the all-ones
    vector; for n <= 6 the full {-1, 0, 1}^n sign-pattern set is included,
    which catches every diagonal-sign violation and all orthant boundary
    behavior before any randomized search runs."""
    out = []
    eye = np.eye(n)
    for i in range(n):
        out.append(eye[i].copy())
        out.append(-eye[i])
    out.append(np.ones(n))
    out.append(-np.ones(n))
    if n <= _SIGN_PATTERN_MAX_DIM:
        import itertools

        for pattern in itertools.product((-1.0, 0.0, 1.0), repeat=n):
            v = np.array(pattern)
            if np.any(v != 0.0):
                out.append(v)
    return out


def _functionals(A: Tensor, X: np.ndarray, weak: bool, tau_rel: float) -> np.ndarray:
    """phi_p (weak=False) or phi_p0 at tau_rel of every row of X, bit for
    bit, from one batched contraction."""
    t = X ** (A.order - 1) * _contract_batch(A.data, X, A.order - 1)
    if weak:
        mag = np.abs(X)
        t = np.where(mag > tau_rel * mag.max(axis=1, keepdims=True), t, -np.inf)
    return t.max(axis=1)


def _descend(A: Tensor, X0: np.ndarray, budget: SearchBudget, weak: bool):
    """Subgradient descent on the max-of-terms functional over the 2-sphere
    from each row of X0, all starts in lockstep: one batched step per
    iteration for the starts still running.

    Active term: argmax (lowest index on ties); step 1/(k+10) scaled by the
    gradient norm, then projection back to the sphere.  A start stops when
    its gradient vanishes or its step ends within 1e-14 of the origin.
    Returns each start's best point and value; row p is what the descent
    from X0[p] alone gives.  The callers pass _scaled's copy, whose entries
    are below 1 in magnitude, so on the sphere no iterate can overflow."""
    m, B = A.order, _tail_symmetric(A)
    X = X0 / np.sqrt(np.vecdot(X0, X0))[:, None]
    best_x, best_val = X.copy(), np.full(len(X), np.inf)
    live = np.arange(len(X))
    for it in range(budget.iters):
        if not live.size:
            break
        ax = _contract_batch(A.data, X, m - 1)
        t = X ** (m - 1) * ax
        r = np.arange(len(X))
        if weak:
            mag = np.abs(X)  # X is on the sphere, so every support is nonempty
            sup = mag > budget.tau_rel * mag.max(axis=1, keepdims=True)
            local = np.where(sup, t, -np.inf).argmax(axis=1)
            off = ~sup[r, local]  # every support term is -inf: take the first
            local[off] = sup[off].argmax(axis=1)
        else:
            local = t.argmax(axis=1)
        val = t[r, local]
        better = val < best_val[live]
        best_val[live[better]], best_x[live[better]] = val[better], X[better]
        # the gradient of t_i = x_i^(m-1) (A x^(m-1))_i at each start's active
        # i, with row i of the Jacobian (m-1) * B[i] x^(m-2); the powers of
        # the one entry x_i are scalar (libm) powers, which differ in the
        # last bit from the array power loop
        xi = X[r, local]
        J = (m - 1) * _contract_batch(B, X, m - 2, rows=local)
        g = np.array([v ** (m - 1) for v in xi])[:, None] * J
        g[r, local] += (m - 1) * np.array([v ** (m - 2) for v in xi]) * ax[r, local]
        gn = np.sqrt(np.vecdot(g, g))
        go = gn != 0.0
        X, g, gn, live = X[go], g[go], gn[go], live[go]
        X = X - g / (gn * (it + 10.0))[:, None]
        nx = np.sqrt(np.vecdot(X, X))
        go = ~(nx < 1e-14)
        X, live = X[go] / nx[go, None], live[go]
    return best_x, best_val


def _snap_witness(x: np.ndarray, tau_rel: float) -> np.ndarray:
    """Canonical witness form: zero out numerically dead components, scale
    to sup-norm 1, fix the sign deterministically."""
    w = canonicalize_direction(x)
    w[np.abs(w) <= tau_rel] = 0.0
    return canonicalize_direction(w)


def _threshold(x: np.ndarray, m: int, tol: float) -> float:
    return tol * float(np.linalg.norm(x)) ** (2 * (m - 1))


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


def check_p(A: Tensor, budget: SearchBudget | None = None) -> PVerdict:
    """Three-phase check of the strong sign property (see _check_sign); a
    search point with functional <= tol refutes, since the property
    requires strict positivity."""
    return _check_sign(A, budget, weak=False)


def check_p0(A: Tensor, budget: SearchBudget | None = None) -> PVerdict:
    """Three-phase check of the weak sign property (see _check_sign).

    Differences from the strong check: the refutation threshold is strictly
    negative (boundary zeros are feasible), and a witness must fail both
    the support-thresholded functional and the exact-support one, so a
    support-threshold artifact can never refute on its own.
    """
    return _check_sign(A, budget, weak=True)


def _check_sign(A: Tensor, budget: SearchBudget | None, weak: bool) -> PVerdict:
    """The P (weak=False) and P0 (weak=True) pipeline.

    1. necessary condition: t_i(e_i) = a_{i...i}, so a diagonal entry
       <= 0 (P) or < 0 (P0) refutes with the coordinate direction e_i;
    2. certificates: the first rule of CERTIFICATE_RULES that fires;
    3. refutation search: the candidate battery, then multistart
       subgradient descent (_refutation_search), on the copy A * 2^-e of
       core._scaled, with tol relative to it; the functional values it
       finds are reported times 2^e.

    Steps 1 and 2 read the stored entries.  The weak property's two
    functional fields are one value: t_i(e_i) = a_{i...i} whatever the
    support threshold, and on a snapped witness the two supports agree.
    """
    if budget is None:
        budget = SearchBudget()
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
        w, val, floor = _refutation_search(scaled, budget, weak)
        if w is None:
            return PVerdict(prop, LIKELY, search_margin=_unscaled(floor, e, "search margin"),
                            budget=budget)
        val = _unscaled(val, e, "functional value")
    return PVerdict(prop, REFUTED, witness=w, certificate_chain=chain, functional_value=val,
                    functional_value_unthresholded=val if weak else None, search_margin=val,
                    budget=budget)


def _refutation_search(A: Tensor, budget: SearchBudget, weak: bool):
    """Battery plus descent.  Returns (witness, functional, floor): witness
    is the canonical refuting vector or None, floor the smallest functional
    value seen anywhere in the search.

    For the strong property a witness needs functional <= tol * scale; for
    the weak property it needs < -tol * scale under both the thresholded
    and the exact-support functional.  The snapped witness is re-checked
    on the thresholded one alone, since there the two take the same
    support.
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
        battery = np.array(candidate_battery(A.dim))
        vals = _functionals(A, battery, weak, budget.tau_rel).tolist()
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
        if past(x, val) and (not weak or past(x, phi_p0(A, x, tau_rel=0.0))):
            w = _snap_witness(x, budget.tau_rel)
            wval = func(w)
            if past(w, wval):
                return w, wval, min(best_val, wval)

    floor = best_val
    if best_x is not None:
        floor = func(_snap_witness(best_x, budget.tau_rel))
    return None, None, float(min(best_val, floor))


def _ascend(A: Tensor, X0: np.ndarray, budget: SearchBudget, floor: float):
    """Projected subgradient ascent of min_i (A x^{m-1})_i over the simplex,
    components clamped to >= floor, from each row of X0, all starts in
    lockstep.  Active term: argmin (lowest index on ties); step 1/(k+10)
    scaled by the gradient norm.  A start stops when its gradient
    vanishes.  Returns each start's first point with its best value, and
    that value; row p is what the ascent from X0[p] alone gives.  check_s
    passes _scaled's copy, on which no step can overflow."""
    m, B = A.order, _tail_symmetric(A)
    X = _project_simplex(X0, floor)
    best_x, best_val = X.copy(), np.full(len(X), -np.inf)
    live = np.arange(len(X))
    for it in range(budget.iters):
        if not live.size:
            break
        ax = _contract_batch(A.data, X, m - 1)
        val = ax.min(axis=1)
        better = val > best_val[live]
        best_val[live[better]], best_x[live[better]] = val[better], X[better]
        g = (m - 1) * _contract_batch(B, X, m - 2, rows=ax.argmin(axis=1))
        gn = np.sqrt(np.vecdot(g, g))
        go = gn != 0.0
        X = _project_simplex(X[go] + g[go] / (gn[go] * (it + 10.0))[:, None], floor)
        live = live[go]
    return best_x, best_val


def check_s(A: Tensor, budget: SearchBudget | None = None) -> PVerdict:
    """Feasibility search: is there x > 0 with A x^{m-1} > 0 componentwise?

    Quick probes (the all-ones vector, and the positive principal vector of
    s*I - A when A is a Z-tensor) come first, then projected subgradient
    ascent of min_i (A x^{m-1})_i over the simplex with components clamped
    to >= 1e-8.  Success certifies with a re-verified witness; failure is
    only LIKELY_NOT, never REFUTED, because the search looks for a witness
    of existence.  Everything runs on the copy A * 2^-e of core._scaled,
    with tol relative to it, and the values are reported times 2^e.
    """
    if budget is None:
        budget = SearchBudget()
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

    # certify(x0) in candidate order up to the first that certifies; only
    # the candidates before it are ascended, all in lockstep
    probes = []
    for x0 in candidates:
        probes.append(certify(x0))  # raw candidate first: rescaling preserves positivity
        if probes[-1] is not None:
            break
    ascents = len(probes) - (probes[-1] is not None)
    best_xs, best_vals = _ascend(A, np.array(candidates[:ascents]).reshape(ascents, n), budget,
                                 floor)

    best_x = ones / n
    best_val = float(np.min(contract_m1(A, best_x)))
    for k, out in enumerate(probes):
        if out is not None:
            return out
        if best_vals[k] > best_val:
            best_val, best_x = float(best_vals[k]), best_xs[k]
        out = certify(best_x)
        if out is not None:
            return out
    return PVerdict(S, LIKELY_NOT, search_margin=_unscaled(best_val, e, "search margin"),
                    budget=budget)
