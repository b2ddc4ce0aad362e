"""Predicates and constructors for structured tensor classes.

Covers diagonal dominance, Z/M/H classes, B/B0 row conditions, Cauchy
tensors, uniform-hypergraph Laplacians, completely positive constructions,
and sampling-based copositivity / definiteness tests.

Verdict semantics: CERTIFIED and REFUTED are float64 checks, not exact
ones: row sums (which round; a row whose sum overflows is summed times a
power of two), a spectral-radius margin beyond the iteration's uncertainty
+ 1e-7, or a form value below -tol at the search's witness.  The
copositivity and PSD searches run on the copy A * 2^-e of core._scaled,
whose entries are below 1 in magnitude, so no iterate overflows and tol is
relative to the binade of max|a|; their values are reported times 2^e.
LIKELY marks outcomes that rest on a finite search or on a numerically
uncertain boundary.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .budget import SearchBudget
from .core import (
    Tensor,
    _contract_batch,
    _orbit_index_map,
    _rowdot,
    _scaled,
    _unscaled,
    as_vector,
    comparison_tensor,
    contract_full,
    contract_m1_batch,
    diagonal_index,
    diagonal_tensor,
    is_symmetric,
    outer_power,
    symmetrize,
)
from .errors import ArityError, NotNonnegative, SingularCauchy
from .spectral import _sphere_minimize, nqz_spectral_radius

CERTIFIED = "CERTIFIED"
LIKELY = "LIKELY"
REFUTED = "REFUTED"
UNKNOWN = "UNKNOWN"


@dataclass
class ClassReport:
    """Outcome of a structured-class test.

    verdict is the coarse grade (CERTIFIED / LIKELY / REFUTED / UNKNOWN);
    label refines it where a class has named subcases (NONSINGULAR_M, M,
    LIKELY_STRICT, ...).  REFUTED reports carry a witness that re-fails the
    defining inequality on re-evaluation.
    """

    class_name: str
    verdict: str
    label: str | None = None
    witness: object = None
    detail: str = ""
    metrics: dict = field(default_factory=dict)

    @property
    def certified(self) -> bool:
        return self.verdict == CERTIFIED

    @property
    def refuted(self) -> bool:
        return self.verdict == REFUTED

    def to_json_dict(self) -> dict:
        witness = self.witness
        if isinstance(witness, np.ndarray):
            witness = [float(v) for v in witness]
        elif isinstance(witness, tuple):
            witness = [int(v) for v in witness]
        elif isinstance(witness, (int, np.integer)):
            witness = int(witness)
        return {
            "class": self.class_name,
            "verdict": self.verdict,
            "label": self.label,
            "witness": witness,
            "detail": self.detail,
            "metrics": self.metrics,
        }


# ---------------------------------------------------------------------------
# hypergraphs and factor sets


class Hypergraph:
    """Uniform hypergraph: n_vertices and a list of arity-m vertex sets."""

    __slots__ = ("n_vertices", "arity", "edges")

    def __init__(self, n_vertices: int, edges, arity: int | None = None):
        if n_vertices < 1:
            raise ArityError("hypergraph needs at least one vertex")
        canon = []
        for e in edges:
            t = tuple(int(v) for v in e)
            if len(set(t)) != len(t):
                raise ArityError(f"edge {t} repeats a vertex")
            if any(v < 0 or v >= n_vertices for v in t):
                raise ArityError(f"edge {t} has a vertex outside [0, {n_vertices})")
            canon.append(tuple(sorted(t)))
        if arity is None:
            if not canon:
                raise ArityError("arity must be given explicitly for an empty edge set")
            arity = len(canon[0])
        if arity < 2:
            raise ArityError("edge arity must be at least 2")
        for t in canon:
            if len(t) != arity:
                raise ArityError(f"edge {t} has arity {len(t)}, expected {arity}")
        if len(set(canon)) != len(canon):
            raise ArityError("hypergraph contains a repeated edge")
        self.n_vertices = int(n_vertices)
        self.arity = int(arity)
        self.edges = tuple(canon)

    def degrees(self) -> np.ndarray:
        d = np.zeros(self.n_vertices)
        for e in self.edges:
            for v in e:
                d[v] += 1.0
        return d

    def __repr__(self):
        return f"Hypergraph(n={self.n_vertices}, m={self.arity}, edges={len(self.edges)})"


@dataclass
class FactorSet:
    """Nonnegative factor vectors u_k for completely positive constructions."""

    factors: list

    def __post_init__(self):
        if len(self.factors) < 1:
            raise NotNonnegative("factor set needs at least one vector")
        vecs = [as_vector(u) for u in self.factors]
        n = vecs[0].size
        for u in vecs:
            if u.size != n:
                raise NotNonnegative("all factors must have the same dimension")
            if np.any(u < 0.0):
                raise NotNonnegative("factors must be entrywise nonnegative")
        self.factors = vecs

    @property
    def dim(self) -> int:
        return self.factors[0].size


# ---------------------------------------------------------------------------
# row-inequality classes (float64 inequalities, rows rescaled where they overflow)


def _row_scaled(rows: np.ndarray):
    """(rows, row sums, e): each row whose sum is not finite times 2^-e_i,
    e_i the frexp exponent of its largest magnitude, and its sum retaken,
    which then cannot overflow; the other rows keep every bit (e_i = 0)."""
    if np.abs(rows).max() < 2.0**1020 / rows.shape[1]:  # no row sum can overflow
        return rows, rows.sum(axis=1), np.zeros(len(rows), dtype=int)
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(rows.sum(axis=1))
    e = np.where(finite, 0, np.frexp(np.abs(rows).max(axis=1))[1])
    rows = np.ldexp(rows, -e[:, None])
    return rows, rows.sum(axis=1), e


def _row_value(v: float, e) -> float:
    """v * 2^e, a value of a row of _row_scaled as one of the stored tensor
    (+-inf beyond float64)."""
    if e == 0:
        return float(v)
    with np.errstate(over="ignore"):
        return float(np.ldexp(v, e))


def is_diagonally_dominant(A: Tensor, strict: bool = False) -> ClassReport:
    """Row test |a_{ii...i}| >= (or >) sum of off-row absolute values, on
    the rows of _row_scaled; a failing report names the first failing row."""
    name = "strictly_diagonally_dominant" if strict else "diagonally_dominant"
    mags, total, e = _row_scaled(np.abs(A.data).reshape(A.dim, -1))
    diag = mags.reshape(A.data.shape)[diagonal_index(A.order, A.dim)]
    off = total - diag
    bad = ~(diag > off) if strict else ~(diag >= off)
    if bad.any():
        i = int(bad.argmax())
        op = ">" if strict else ">="
        d, o = _row_value(diag[i], e[i]), _row_value(off[i], e[i])
        return ClassReport(
            name,
            REFUTED,
            witness=i,
            detail=f"row {i}: |diagonal| = {d:.6g} fails {op} off-row sum {o:.6g}",
            metrics={"row": i, "diagonal_abs": d, "off_row_sum": o},
        )
    return ClassReport(name, CERTIFIED, detail="all rows pass the dominance inequality")


def is_z_tensor(A: Tensor) -> ClassReport:
    """All off-diagonal entries <= 0."""
    mask = A.data > 0.0
    mask[diagonal_index(A.order, A.dim)] = False
    offenders = np.argwhere(mask)
    if offenders.size:
        tup = tuple(int(v) for v in offenders[0])
        return ClassReport(
            "z_tensor",
            REFUTED,
            witness=tup,
            detail=f"positive off-diagonal entry {A.data[tup]:.6g} at {tup}",
        )
    return ClassReport("z_tensor", CERTIFIED, detail="all off-diagonal entries are <= 0")


def _m_splitting(A: Tensor):
    """(s, B) with A = s*I - B, s = max diagonal + 1; B is entrywise
    nonnegative when A is a Z-tensor."""
    diag = A.diagonal()
    s = float(np.max(diag)) + 1.0
    bdata = -A.data.copy()
    bdata[diagonal_index(A.order, A.dim)] = s - diag
    return s, Tensor(bdata, symmetric=A.symmetric)


def classify_m_tensor(A: Tensor) -> ClassReport:
    """Split A = s*I - B with B nonnegative (see _m_splitting) and compare s
    against rho(B).

    With tol = the iteration's uncertainty + 1e-7, labels are:
    NONSINGULAR_M when s > rho + tol (certified), M when |s - rho| <= tol
    (boundary, possibly singular, graded LIKELY because equality cannot be
    certified numerically), REFUTED when s < rho - tol.
    """
    z = is_z_tensor(A)
    if z.refuted:
        return ClassReport(
            "m_tensor",
            REFUTED,
            witness=z.witness,
            detail="not a Z-tensor: " + z.detail,
        )
    s, B = _m_splitting(A)
    res = nqz_spectral_radius(B)
    if not res.converged:
        return ClassReport(
            "m_tensor",
            UNKNOWN,
            detail="spectral radius iteration did not converge",
            metrics={"s": s, "rho": res.rho, "uncertainty": res.uncertainty},
        )
    eff_tol = res.uncertainty + 1e-7
    margin = s - res.rho
    metrics = {
        "s": s,
        "rho": res.rho,
        "rho_uncertainty": res.uncertainty,
        "margin": margin,
        "tol": eff_tol,
    }
    if margin > eff_tol:
        return ClassReport(
            "m_tensor",
            CERTIFIED,
            label="NONSINGULAR_M",
            detail=f"s = {s:.6g} exceeds rho = {res.rho:.6g} by {margin:.3g}",
            metrics=metrics,
        )
    if abs(margin) <= eff_tol:
        return ClassReport(
            "m_tensor",
            LIKELY,
            label="M",
            detail=f"s = {s:.6g} and rho = {res.rho:.6g} agree within tolerance "
            "(boundary case, possibly singular)",
            metrics=metrics,
        )
    return ClassReport(
        "m_tensor",
        REFUTED,
        witness=res.perron_vector,
        detail=f"rho = {res.rho:.6g} exceeds s = {s:.6g}",
        metrics=metrics,
    )


_H_LABELS = {"NONSINGULAR_M": "NONSINGULAR_H", "M": "H"}


def is_h_tensor(A: Tensor) -> ClassReport:
    """A is an H-tensor iff its comparison tensor passes the M test."""
    inner = classify_m_tensor(comparison_tensor(A))
    diag = A.diagonal()
    metrics = dict(inner.metrics)
    metrics["min_diagonal"] = float(np.min(diag))
    metrics["diagonal_positive"] = bool(np.all(diag > 0.0))
    metrics["diagonal_nonnegative"] = bool(np.all(diag >= 0.0))
    return ClassReport(
        "h_tensor",
        inner.verdict,
        label=_H_LABELS.get(inner.label),
        witness=inner.witness,
        detail="comparison tensor: " + inner.detail,
        metrics=metrics,
    )


def is_b_tensor(A: Tensor, strict: bool = False) -> ClassReport:
    """Row-sum / row-average dominance test.

    Requires, for every i: sum_{i2..im} a_{i i2..im} >= 0 and the row
    average (row sum / n^{m-1}) >= every off-position entry a_{i j2..jm}
    with (j2,..,jm) != (i,..,i); strict variants with > throughout, on the
    rows of _row_scaled.
    """
    name = "b_tensor" if strict else "b0_tensor"
    m, n = A.order, A.dim
    rows, rs, e = _row_scaled(A.data.reshape(n, -1))
    avg = rs / n ** (m - 1)
    masked = rows.reshape(A.data.shape).copy()
    masked[diagonal_index(m, n)] = -np.inf
    masked = masked.reshape(n, -1)
    mx = masked.max(axis=1)
    bad_sum = ~(rs > 0.0) if strict else ~(rs >= 0.0)
    bad = bad_sum | (~(avg > mx) if strict else ~(avg >= mx))
    if bad.any():
        i = int(bad.argmax())
        if bad_sum[i]:
            total = _row_value(rs[i], e[i])
            return ClassReport(
                name,
                REFUTED,
                witness=(i,),
                detail=f"row {i} sum {total:.6g} fails the sign condition",
                metrics={"row": i, "row_sum": total},
            )
        jtup = np.unravel_index(int(np.argmax(masked[i])), (n,) * (m - 1))
        witness = (i, *(int(t) for t in jtup))
        op = ">" if strict else ">="
        average, entry = _row_value(avg[i], e[i]), _row_value(mx[i], e[i])
        return ClassReport(
            name,
            REFUTED,
            witness=witness,
            detail=f"row {i}: average {average:.6g} fails {op} entry {entry:.6g} at {witness}",
            metrics={"row": i, "row_average": average, "max_off_entry": entry},
        )
    return ClassReport(name, CERTIFIED, detail="all row sum and row average inequalities hold")


# ---------------------------------------------------------------------------
# constructors


def cauchy_tensor(u, m: int) -> Tensor:
    """Symmetric tensor with entries 1 / (u_{i1} + ... + u_{im}).

    Each index sum is taken once per orbit, at its sorted multi-index
    (i1 <= ... <= im), and broadcast to the orbit, so the result is exactly
    permutation invariant (float addition is not associative).  Provenance
    records cp (generating vector positive) and scp (positive with
    mutually distinct entries); both claims feed the sign-property
    certificate chains downstream.
    """
    v = as_vector(u)
    if m < 2:
        raise ValueError("cauchy_tensor requires order m >= 2")
    denom = v
    for _ in range(m - 1):
        denom = np.add.outer(denom, v)
    denom = denom.reshape(-1)[_orbit_index_map(m, v.size, 0)].reshape(denom.shape)
    if np.any(denom == 0.0):
        raise SingularCauchy("an index sum of the generating vector is zero")
    cp = bool(np.all(v > 0.0))
    scp = cp and np.unique(v).size == v.size
    return Tensor(
        1.0 / denom,
        symmetric=True,
        provenance={"generator": "cauchy", "cp": cp, "scp": scp},
        provenance_trusted=True,
    )


def laplacian_tensors(G: Hypergraph):
    """Adjacency, Laplacian and signless Laplacian tensors of a uniform
    hypergraph.

    The adjacency tensor holds 1/(m-1)! at every permutation of every edge
    (tuples with repeated indices stay zero); the degree tensor is diagonal
    with the vertex degrees; Laplacian = degrees - adjacency and signless
    Laplacian = degrees + adjacency.
    """
    n, m = G.n_vertices, G.arity
    adj = np.zeros((n,) * m)
    val = 1.0 / math.factorial(m - 1)
    for e in G.edges:
        for perm in itertools.permutations(e):
            adj[perm] = val
    adjacency = Tensor(
        adj,
        symmetric=True,
        provenance={"generator": "hypergraph_adjacency"},
        provenance_trusted=True,
    )
    deg = diagonal_tensor(G.degrees(), m)
    lap_claims = {"generator": "hypergraph_laplacian", "hypergraph_laplacian": True}
    laplacian = Tensor(
        deg.data - adj, symmetric=True, provenance=lap_claims, provenance_trusted=True
    )
    signless = Tensor(
        deg.data + adj,
        symmetric=True,
        provenance={"generator": "hypergraph_signless_laplacian", "hypergraph_laplacian": True},
        provenance_trusted=True,
    )
    return adjacency, laplacian, signless


def cp_tensor(factors, m: int) -> Tensor:
    """Sum of m-th outer powers of nonnegative factors.

    The scp claim records whether the factors numerically span R^n: rank
    = the number of singular values of the factor matrix above 1e-10 times
    the largest factor norm.
    """
    fs = factors if isinstance(factors, FactorSet) else FactorSet(list(factors))
    if m < 2:
        raise ValueError("cp_tensor requires order m >= 2")
    n = fs.dim
    acc = np.zeros((n,) * m)
    for u in fs.factors:
        acc += outer_power(u, m).data
    thresh = 1e-10 * max(float(np.linalg.norm(u)) for u in fs.factors)
    rank = int(np.linalg.matrix_rank(np.column_stack(fs.factors), tol=thresh))
    scp = rank == n
    return Tensor(
        acc,
        symmetric=True,
        provenance={"generator": "cp", "cp": True, "scp": scp, "rank": rank},
        provenance_trusted=True,
    )


# ---------------------------------------------------------------------------
# sampling-based definiteness tests


_GRID_MAX_POINTS = 1_000_000


def simplex_grid(n: int, depth: int) -> np.ndarray:
    """All rational points k/d on the unit simplex, in lexicographic order
    of k, with d = depth lowered until there are at most _GRID_MAX_POINTS.
    Stars and bars: n-1 bar positions among d+n-1 slots split d in n parts."""
    d = max(1, int(depth))
    while d > 1 and math.comb(d + n - 1, n - 1) > _GRID_MAX_POINTS:
        d -= 1
    p = math.comb(d + n - 1, n - 1)
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(d + n - 1), n - 1)),
        dtype=np.int64, count=p * (n - 1),
    ).reshape(p, n - 1)
    ends = np.pad(bars, ((0, 0), (1, 1)), constant_values=(-1, d + n - 1))
    return (np.diff(ends, axis=1) - 1) / d


def _project_simplex(v: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Euclidean projection of v, or of each row of v, onto
    {x >= floor, sum x = 1}: the projection onto the unit simplex, shifted
    by floor and scaled by 1 - n * floor.  Its callers, the searches on
    core._scaled's copy, pass finite rows and floor 0 or 1e-8, so that
    scale is positive below n = 10^8."""
    n = v.shape[-1]
    mass = 1.0 - n * floor
    u = (v - floor) / mass
    s = np.sort(u, axis=-1)[..., ::-1]
    taus = (np.cumsum(s, axis=-1) - 1.0) / np.arange(1, n + 1)
    cond = s - taus > 0.0
    last = n - 1 - np.argmax(cond[..., ::-1], axis=-1, keepdims=True)  # the last True
    return np.maximum(u - np.take_along_axis(taus, last, axis=-1), 0.0) * mass + floor


def _form(S: Tensor, X: np.ndarray):
    """The form value x . S x^{m-1} and its gradient m S x^{m-1} at every
    row x of X, from one contraction per row, for a symmetric S (the
    searches below pass A when it is flagged symmetric and symmetrize(A),
    which has A's form, otherwise)."""
    ax = _contract_batch(S.data, X, S.order - 1)
    return _rowdot(X, ax), S.order * ax


def _search_verdict(name: str, A: Tensor, e: int, x: np.ndarray, tol: float, where: str,
                    search: str, labels: tuple, **counts) -> ClassReport:
    """The one verdict of a form-minimum search on the copy A of
    core._scaled, at its best point x: the form is re-evaluated there;
    REFUTED with witness x below -tol, else LIKELY, labelled labels[0]
    above +tol and labels[1] otherwise.  The value is reported times 2^e."""
    check = contract_full(A, x)
    value = _unscaled(check, e, "form value")
    metrics = {"min_value": value, **counts, "argmin": [float(v) for v in x]}
    if check < -tol:
        return ClassReport(name, REFUTED, witness=x, detail=f"form value {value:.6g} < 0 {where}",
                           metrics=metrics)
    return ClassReport(name, LIKELY, label=labels[0] if check > tol else labels[1],
                       detail=f"{search} search minimum {value:.6g} (search only, not a proof)",
                       metrics=metrics)


def is_copositive(A: Tensor, budget: SearchBudget = SearchBudget()) -> ClassReport:
    """Search for the minimum of the degree-m form over the unit simplex.

    The search runs on the copy A * 2^-e of core._scaled, and its values
    are reported times 2^e.  The form of S (see _form) is evaluated on
    simplex_grid(n, grid_depth); from the `starts` lowest grid points a
    projected-gradient descent takes `iters` steps of 1/((k+10) max(1, ||g||)),
    g = m S x^{m-1}, all starts in lockstep, one contraction per step.
    Each start keeps its first lowest point; the first start with the
    lowest value replaces the grid minimum only when it is strictly lower,
    which is the point the descents run one after another would keep.  On
    the scaled copy every gradient entry on the simplex is below m in
    magnitude, so no iterate can overflow.

    REFUTED when the float64 form value of the scaled copy re-evaluated at
    the best point x is below -tol (a rounding-level check, not an exact
    one); otherwise LIKELY with label LIKELY_COPOSITIVE, upgraded to
    LIKELY_STRICT when that value exceeds +tol.  Never CERTIFIED: the
    underlying decision problem is co-NP-hard and a finite search cannot
    prove nonnegativity.
    """
    A, e = _scaled(A)
    S = A if A.symmetric else symmetrize(A)
    pts = simplex_grid(A.dim, budget.grid_depth)
    vals = np.einsum("pi,pi->p", pts, contract_m1_batch(S, pts))
    order = np.argsort(vals, kind="stable")
    best_x = pts[order[0]].copy()
    best_val = float(vals[order[0]])

    X = pts[order[: budget.starts]]
    ax = _contract_batch(S.data, X, A.order - 1)
    start_x, start_val = X.copy(), np.full(len(X), np.inf)
    for it in range(budget.iters):
        G = A.order * ax
        step = 1.0 / ((it + 10.0) * np.maximum(1.0, np.sqrt(np.vecdot(G, G))))
        X = _project_simplex(X - step[:, None] * G)
        ax = _contract_batch(S.data, X, A.order - 1)
        val = np.vecdot(X, ax)
        better = val < start_val
        start_val[better], start_x[better] = val[better], X[better]
    k = int(np.argmin(start_val))
    if start_val[k] < best_val:
        best_x = start_x[k]

    return _search_verdict("copositive", A, e, best_x, budget.tol, "at a nonnegative point",
                           "simplex", ("LIKELY_STRICT", "LIKELY_COPOSITIVE"),
                           grid_points=int(pts.shape[0]))


def is_psd(A: Tensor, budget: SearchBudget = SearchBudget()) -> ClassReport:
    """Search for the minimum of the degree-m form over the unit sphere.

    Odd order: a nonzero form value v at x flips sign at -x, so any probe
    with v != 0 refutes immediately; a tensor whose form vanishes on all
    probes is graded LIKELY (for symmetric tensors that only happens at the
    zero tensor).  Even order: multistart descent on the form of S (see
    _form), its end points compared on A; REFUTED below -tol, otherwise
    LIKELY_PSD / LIKELY_PD.  Everything runs on the copy A * 2^-e of
    core._scaled, and the values are reported times 2^e.
    """
    A, e = _scaled(A)
    m, n = A.order, A.dim

    X = np.array(budget.sphere_starts(n))
    if m % 2 == 0:
        S = A if A.symmetric else symmetrize(A)
        Z = _sphere_minimize(lambda Z: _form(S, Z), X[: max(4, min(len(X), budget.starts))],
                             maxiter=budget.iters, ftol=1e-16)
        # the minimiser accepts no step to zero
        X = np.concatenate([X, Z / np.sqrt(_rowdot(Z, Z))[:, None]])
    # contract_full of every probe and end point, row for row
    vals = _rowdot(X, _contract_batch(A.data, X, m - 1))
    if m % 2 == 0:
        return _search_verdict("psd", A, e, X[np.argmin(vals)], budget.tol, "on the unit sphere",
                               "sphere", ("LIKELY_PD", "LIKELY_PSD"))

    nonzero = np.flatnonzero(vals)
    if not nonzero.size:
        return ClassReport("psd", LIKELY, label="LIKELY_PSD", metrics={"min_value": 0.0},
                           detail="odd order with numerically zero form on all probes")
    # at odd order the form at -x is exactly minus the form at x
    w = -X[nonzero[0]] if vals[nonzero[0]] > 0.0 else X[nonzero[0]]
    wval = _unscaled(contract_full(A, w), e, "form value")
    return ClassReport("psd", REFUTED, witness=w, metrics={"min_value": wval},
                       detail=f"odd order: form value {wval:.6g} < 0 after sign flip")


def dnn_consistency(A: Tensor, eigenpairs) -> ClassReport:
    """Consistency check against the doubly nonnegative class: exactly
    symmetric (flagged, or invariant under every transposition), entrywise
    nonnegative, and no found eigenvalue below -1e-8.  CERTIFIED is
    unreachable because the full H-spectrum cannot be enumerated here."""
    if not is_symmetric(A):
        return ClassReport("dnn", REFUTED, detail="tensor is not symmetric")
    neg = np.argwhere(A.data < 0.0)
    if neg.size:
        tup = tuple(int(v) for v in neg[0])
        return ClassReport(
            "dnn",
            REFUTED,
            witness=tup,
            detail=f"negative entry {A.data[tup]:.6g} at {tup}",
        )
    lams = [p.value for p in eigenpairs]
    for p in eigenpairs:
        if p.value < -1e-8:
            return ClassReport(
                "dnn",
                REFUTED,
                witness=p.vector,
                detail=f"found H-eigenvalue {p.value:.6g} < 0",
                metrics={"eigenvalues_found": lams},
            )
    return ClassReport(
        "dnn",
        LIKELY,
        label="DNN_CONSISTENT",
        detail="entries nonnegative and every found H-eigenvalue is nonnegative "
        "(the full spectrum is not enumerated)",
        metrics={"eigenvalues_found": lams},
    )
