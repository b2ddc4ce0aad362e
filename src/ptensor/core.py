"""Dense hypercubic tensors and the contraction kernels everything else uses.

Storage is a plain numpy float64 array of shape (n,)*m in C (row-major)
order, so the flat view matches the linearization
idx = sum_k i_k * n**(m-k), 0-based.  Tensors are immutable after
construction: the underlying array is marked read-only, which makes
instances safe to share across any number of concurrent readers.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .budget import DEFAULT_TAU_REL, check_tau_rel
from .errors import DegenerateInput, DimensionError


def is_diagonal_index(index) -> bool:
    """True when all positions of a multi-index agree (a diagonal entry)."""
    first = index[0]
    return all(i == first for i in index)


def diagonal_index(m: int, n: int) -> tuple:
    """The index that selects the n diagonal entries (i, ..., i) of an
    order-m, n-dimensional array, in order of i."""
    return (np.arange(n),) * m


class Tensor:
    """Order-m, n-dimensional real tensor with dense storage.

    ``symmetric`` is a metadata flag asserting exact invariance under all
    index permutations (symmetry_deviation(data) == 0.0).  Constructors set
    it only when it holds exactly by construction; the file loader
    symmetrizes flagged entries that are symmetric only to within
    tensorio.SYMMETRY_TOL.  Gradients, form searches and the COO writer
    rely on it being exact.

    ``provenance`` optionally records construction claims (for example
    ``{"scp": True}`` for a strongly completely positive construction).
    ``provenance_trusted`` tells downstream certificate consumers whether
    the claims come from an in-process constructor or from a file whose
    generator checksum verified; untrusted claims are ignored.
    """

    __slots__ = ("data", "symmetric", "provenance", "provenance_trusted")

    def __init__(self, data, symmetric=False, provenance=None, provenance_trusted=False):
        arr = np.array(data, dtype=float)
        if arr.ndim < 2:
            raise DimensionError(f"tensor order must be >= 2, got {arr.ndim}")
        n = arr.shape[0]
        if any(s != n for s in arr.shape):
            raise DimensionError(f"tensor must be hypercubic, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise DegenerateInput("tensor entries must be finite")
        arr.setflags(write=False)
        self.data = arr
        self.symmetric = bool(symmetric)
        self.provenance = dict(provenance) if provenance else None
        self.provenance_trusted = bool(provenance_trusted) and self.provenance is not None

    @property
    def order(self) -> int:
        return self.data.ndim

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    @property
    def values(self) -> np.ndarray:
        """Row-major flat view of the entries (read-only)."""
        return self.data.reshape(-1)

    def diagonal(self) -> np.ndarray:
        return self.data[diagonal_index(self.order, self.dim)].copy()

    def claim(self, name):
        """A trusted provenance claim, or None if absent/untrusted."""
        if self.provenance_trusted and self.provenance is not None:
            return self.provenance.get(name)
        return None

    def __add__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        if other.data.shape != self.data.shape:
            raise DimensionError("tensor shapes do not match")
        return Tensor(self.data + other.data, symmetric=self.symmetric and other.symmetric)

    def __sub__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        if other.data.shape != self.data.shape:
            raise DimensionError("tensor shapes do not match")
        return Tensor(self.data - other.data, symmetric=self.symmetric and other.symmetric)

    def __neg__(self):
        return Tensor(-self.data, symmetric=self.symmetric)

    def __mul__(self, c):
        if not np.isscalar(c):
            return NotImplemented
        return Tensor(self.data * float(c), symmetric=self.symmetric)

    __rmul__ = __mul__

    def __repr__(self):
        return (
            f"Tensor(order={self.order}, dim={self.dim}, symmetric={self.symmetric}, "
            f"max|a|={np.max(np.abs(self.data)):.6g})"
        )


# ---------------------------------------------------------------------------
# constructors


def zero_tensor(m: int, n: int) -> Tensor:
    return Tensor(np.zeros((n,) * m), symmetric=True)


def identity_tensor(m: int, n: int) -> Tensor:
    """Diagonal tensor with unit diagonal: (I x^{m-1})_i = x_i^{m-1}."""
    return diagonal_tensor(np.ones(n), m)


def all_ones_tensor(m: int, n: int) -> Tensor:
    return Tensor(np.ones((n,) * m), symmetric=True)


def diagonal_tensor(diag, m: int) -> Tensor:
    d = as_vector(diag)
    n = d.size
    data = np.zeros((n,) * m)
    data[diagonal_index(m, n)] = d
    return Tensor(data, symmetric=True)


# ---------------------------------------------------------------------------
# vectors and index sets


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Validate and return x as a 1-D float64 array."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise DimensionError(f"expected a 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise DegenerateInput("vector entries must be finite")
    if dim is not None and v.size != dim:
        raise DimensionError(f"vector length {v.size} does not match dimension {dim}")
    return v


def as_index_set(indices, n: int) -> np.ndarray:
    """Validate a nonempty strictly increasing index set inside range(n)."""
    s = np.asarray(indices, dtype=int)
    if s.ndim != 1 or s.size == 0:
        raise IndexError("index set must be a nonempty 1-D sequence")
    if np.any(s < 0) or np.any(s >= n):
        raise IndexError(f"index set entries must lie in [0, {n})")
    if np.any(np.diff(s) <= 0):
        raise IndexError("index set must be strictly increasing (sorted, no duplicates)")
    return s


def support(x, tau_rel: float = DEFAULT_TAU_REL) -> np.ndarray:
    """Indices i with |x_i| > tau_rel * max|x| (relative numeric support);
    ValueError unless tau_rel lies in [0, 1)."""
    check_tau_rel(tau_rel)
    v = as_vector(x)
    mx = float(np.max(np.abs(v))) if v.size else 0.0
    if mx == 0.0:
        raise DegenerateInput("support of the zero vector is undefined")
    return np.flatnonzero(np.abs(v) > tau_rel * mx)


def embed_vector(y, indices, n: int) -> np.ndarray:
    """Zero-pad a subvector y back into R^n on the given index set."""
    s = as_index_set(indices, n)
    v = as_vector(y, dim=s.size)
    out = np.zeros(n)
    out[s] = v
    return out


def canonicalize_direction(x) -> np.ndarray:
    """Scale to sup-norm 1 and flip sign so the first maximal-magnitude
    component is positive (ties break at the lowest index).  Used to report
    eigenvectors and witnesses in a deterministic form."""
    v = as_vector(x)
    mx = float(np.max(np.abs(v)))
    if mx == 0.0:
        raise DegenerateInput("cannot canonicalize the zero vector")
    v = v / mx
    j = int(np.flatnonzero(np.abs(v) >= 1.0 - 1e-12)[0])
    if v[j] < 0.0:
        v = -v
    return v


# ---------------------------------------------------------------------------
# contractions


def _contract(data: np.ndarray, v: np.ndarray, k: int) -> np.ndarray:
    """data contracted with v in its last k modes, the last mode first.
    The one single-vector contraction loop: the public kernels below and
    the power iteration go through it, and _contract_batch, behind every
    multistart search, keeps its operation order row by row."""
    for _ in range(k):
        data = data.dot(v)
    return data


def contract_m1(A: Tensor, x) -> np.ndarray:
    """The (m-1)-fold contraction: v_i = sum a_{i i2...im} x_{i2} ... x_{im}."""
    return _contract(A.data, as_vector(x, dim=A.dim), A.order - 1)


def contract_full(A: Tensor, x) -> float:
    """The degree-m form value sum_i x_i * (contract_m1(A, x))_i."""
    v = as_vector(x, dim=A.dim)
    return float(np.dot(v, _contract(A.data, v, A.order - 1)))


def contract_m1_batch(A: Tensor, X: np.ndarray) -> np.ndarray:
    """contract_m1 applied to every row of X, shape (p, n) -> (p, n), at any
    order m: one matrix product contracts the last k = m // 2 modes with each
    row's k-fold outer power, then one batched contraction per remaining mode,
    max(1, 2,000,000 // n^(m-1)) rows at a time."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != A.dim:
        raise DimensionError(f"expected batch shape (p, {A.dim})")
    m, n, k = A.order, A.dim, A.order // 2
    out = np.empty(X.shape)
    for chunk in _row_chunks(A.data, X.shape[0]):
        rows = X[chunk]
        power = rows
        for _ in range(k - 1):
            power = (power[:, :, None] * rows[:, None, :]).reshape(rows.shape[0], -1)
        v = power @ A.data.reshape(-1, n**k).T
        for _ in range(m - 1 - k):
            v = np.einsum("pan,pn->pa", v.reshape(rows.shape[0], -1, n), rows)
        out[chunk] = v
    return out


def _row_chunks(data: np.ndarray, p: int, most: int | None = None) -> list:
    """Slices that cover p batch rows, max(1, 2,000,000 // n^(m-1)) rows
    each (n the last mode of data) and at most `most`, so that a batch
    kernel's stage holds about 2,000,000 entries at most per array."""
    step = max(1, 2_000_000 // max(1, data.shape[-1] ** (data.ndim - 1)))
    step = step if most is None else min(step, most)
    return [slice(s, s + step) for s in range(0, p, step)]


def contract_m1_jacobian(A: Tensor, x) -> np.ndarray:
    """Exact Jacobian of x -> contract_m1(A, x): (m-1) * (B x^{m-2}) as a
    matrix, with B = _tail_symmetric(A), since B x^{m-1} = A x^{m-1} and B
    is symmetric in the modes that x fills."""
    m = A.order
    return (m - 1) * _contract(_tail_symmetric(A), as_vector(x, dim=A.dim), m - 2)


def _dot_last(D: np.ndarray, X: np.ndarray, stacked: bool = False) -> np.ndarray:
    """D[p] contracted with X[p] in its last mode, as D[p].dot(X[p]) takes
    it when D[p] has 3 or more modes: one ddot per output entry (what
    np.vecdot calls too), returned in C order like dot's output, since the
    next stage's strides decide its ddot path.  With stacked (the product
    limits below hold) and at least _STACKED_MIN_ENTRIES output entries, it
    is one stacked product instead, D[p] as a matrix against X[p] taken
    twice as two columns: numpy hands a one-column product to gemv, which
    sums in another order, and a two-column one to dgemm, which sums each
    entry as ddot does.  Where every product of an entry underflows, dgemm
    gives a zero with the sign of the last one and ddot +0.0, so the
    product is taken plus 0.0, which changes no other value."""
    p, n = X.shape
    if stacked and p * (D[0].size // n) >= _STACKED_MIN_ENTRIES:
        out = np.matmul(D.reshape(len(D), -1, n), np.stack((X, X), axis=2))[:, :, 0] + 0.0
        return out.reshape((p,) + D.shape[1:-1])
    return np.ascontiguousarray(np.vecdot(D, X.reshape((p,) + (1,) * (D.ndim - 2) + (n,))))


def _matvec_batch(D: np.ndarray, X: np.ndarray) -> np.ndarray:
    """D[p].dot(X[p]) for every n x n matrix D[p]: a stacked matrix-vector
    product, since dot takes a 2-D operand to gemv (a 1 x 1 one to a plain
    product, which keeps the sign of a zero)."""
    return np.matmul(D, X[:, :, None])[:, :, 0] if X.shape[1] > 1 else D[:, 0] * X


def _rowdot(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """np.dot(X[p], Y[p]) for every row p: np.vecdot runs the same ddot,
    except at n = 1, where dot takes a plain product (which keeps the sign
    of a zero)."""
    return np.vecdot(X, Y) if X.shape[-1] > 1 else X[..., 0] * Y[..., 0]


def _solve_rows(H: np.ndarray, b: np.ndarray):
    """np.linalg.solve(H[p], b[p]) for every row p in one stacked solve, and
    a mask of the rows that have a solution; when some H[p] is singular the
    stacked solve raises, and the rows are solved one by one."""
    try:
        return np.linalg.solve(H, b[:, :, None])[:, :, 0], np.ones(len(b), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    d, ok = np.zeros(b.shape), np.ones(len(b), dtype=bool)
    for p in range(len(b)):
        try:
            d[p] = np.linalg.solve(H[p], b[p])
        except np.linalg.LinAlgError:
            ok[p] = False
    return d, ok


# The first stage of _contract_batch is one matrix product for a chunk of
# starts where OpenBLAS (0.3.31) sums each entry as ddot does: in index
# order, with fused multiply-adds from 0.0.  That holds below n = 16, where
# ddot switches to 16-entry SIMD blocks, and for at most 192 rows, above
# which dgemm takes the rows past the last multiple of 8 through an edge
# kernel that sums in another order.  Other BLAS builds and CPU kernels may
# sum in other orders, so _product_sums_as_ddot checks both before any
# product is taken.  Within the same limits a later stage with at least 512
# output entries is a stacked two-column product (_dot_last).  On one
# OpenBLAS thread the stacked product costs about 5.5 us, 0.03 us a start
# and 2.7 ns an entry, the per-entry ddot path 1.4 us and 8 ns an entry,
# so the ddot path is faster on small stages (2.5-4 times at 10-100
# entries); on the benchmark's stages a floor anywhere from 512 to 1,536
# entries gives the same total within 1 %.
_PRODUCT_MAX_DIM = 16
_PRODUCT_MAX_ROWS = 192
_STACKED_MIN_ENTRIES = 512


def _first_stage(data: np.ndarray, x: np.ndarray) -> np.ndarray:
    """data contracted in its last mode with each row of x, one column per
    row: one product, in the operand order that sums as ddot does."""
    return data.reshape(-1, data.shape[-1]) @ x.T


def _by_start(P: np.ndarray, shape: tuple) -> np.ndarray:
    """The columns of a first-stage product P as a C-ordered stack of
    arrays of the given shape, one per start."""
    return np.ascontiguousarray(P.T).reshape((P.shape[1],) + shape)


@functools.cache
def _product_sums_as_ddot() -> bool:
    """True when numpy's BLAS is the OpenBLAS 0.3.31 on which the limits
    above were measured and, in this process, the products give _dot_last's
    per-entry ddot bit for bit on a fixed sample of those limits, at every
    n < _PRODUCT_MAX_DIM: the first stage at m = 3 with 2 and 9 rows, and
    at n = 3, 8 and 15 with _PRODUCT_MAX_ROWS - 1 rows (past the last
    multiple of 8); two such arrays stacked as _jacobian_stack stacks A
    and B, with 2 and 9 rows; and from n = 2 (where a chunk first reaches
    _STACKED_MIN_ENTRIES outputs) the stacked two-column product on an
    n x n x n array per start, and up to n = 8 on an n x n x n x n one,
    with the fewest starts that reach _STACKED_MIN_ENTRIES outputs (at
    most _PRODUCT_MAX_ROWS), as drawn and scaled so that every product
    underflows.  Every input is a slice of one pool of entries of mixed
    magnitude with signed zeros, each from where the last one ended.  It
    runs once, on the first contraction that could take a product, in
    about 7 ms."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    if not ("openblas" in str(blas.get("name")) and str(blas.get("version")).startswith("0.3.31")):
        return False
    rng, size = np.random.default_rng(0), 1 << 14
    pool = rng.uniform(-1, 1, size) * 10.0 ** rng.integers(-6, 7, size)
    pool[rng.random(size) < 0.2] *= -0.0
    end = 0

    def draw(shape):
        nonlocal end
        start = end % (size - math.prod(shape))
        end = start + math.prod(shape)
        return pool[start:end].reshape(shape)

    for n in range(1, _PRODUCT_MAX_DIM):
        edge = n in (3, 8, 15)
        for shape, rows in (((n,) * 3, (2, 9) + ((_PRODUCT_MAX_ROWS - 1,) if edge else ())),
                            ((2 * n, n, n), (2, 9))):
            data = draw(shape)
            for p in rows:
                x = draw((p, n))
                if _by_start(_first_stage(data, x), shape[:-1]).tobytes() != \
                        _dot_last(data[None], x).tobytes():
                    return False
        for shape in ((n,) * 3, (n,) * 4)[:1 + (n <= 8)]:
            p = -(-_STACKED_MIN_ENTRIES * n // math.prod(shape))
            if n == 1 or p > _PRODUCT_MAX_ROWS:
                continue
            for scale in (1.0, 2.0 ** -600):  # at 2^-600 every product underflows
                D, x = draw((p,) + shape) * scale, draw((p, n)) * scale
                if _dot_last(D, x, True).tobytes() != _dot_last(D, x).tobytes():
                    return False
    return True


def _products(data: np.ndarray, k: int) -> bool:
    """Whether a k-fold contraction of data takes its first stage, and its
    later stages, as products: on 3 or more modes at n < _PRODUCT_MAX_DIM,
    where _product_sums_as_ddot, n the last mode of data."""
    return (k > 0 and data.ndim > 2 and data.shape[-1] < _PRODUCT_MAX_DIM
            and _product_sums_as_ddot())


def _stages(D: np.ndarray, x: np.ndarray, k: int, products: bool) -> np.ndarray:
    """k more stages of a batched contraction: on 3 or more modes of D[p]
    _dot_last, on 2 _matvec_batch, as _contract's dot routes them."""
    for _ in range(k):
        D = _dot_last(D, x, products) if D.ndim > 3 else _matvec_batch(D, x)
    return D


def _contract_batch(data: np.ndarray, X: np.ndarray, k: int) -> np.ndarray:
    """Row p is _contract(data, X[p], k) bit for bit, for every row of X at
    once; data is an order-m array, or a stack of them on the first mode
    (_jacobian_stack).

    Where _products holds, the first stage for a chunk of 2 to
    _PRODUCT_MAX_ROWS starts is one product (_first_stage); a single start
    keeps _dot_last there, because numpy hands a one-column product to
    gemv, which sums in another order.  Every other stage on 3 or more
    modes of data is _dot_last, stacked where _products holds, and a stage
    on 2 is _matvec_batch, which at m = 2 is all there is: that stage is
    gemv already."""
    products = _products(data, k)
    out = np.empty(X.shape[:1] + data.shape[:data.ndim - k])
    for chunk in _row_chunks(data, X.shape[0], _PRODUCT_MAX_ROWS if products else None):
        x = X[chunk]
        if products and len(x) > 1:
            out[chunk] = _stages(_by_start(_first_stage(data, x), data.shape[:-1]), x, k - 1, True)
        else:
            out[chunk] = _stages(data[None], x, k, products)
    return out


def _jacobian_stack(A: Tensor) -> np.ndarray:
    """A's entries stacked on their first mode with B = _tail_symmetric(A),
    the layout _partials reads; A's own array when B is that array (A
    flagged symmetric)."""
    B = _tail_symmetric(A)
    return B if B is A.data else np.concatenate((A.data, B))


def _partials(stack: np.ndarray, X: np.ndarray):
    """(A x^{m-1}, B x^{m-2}) at every row x of X, bit for bit the
    single-vector contractions, from one _contract_batch of
    stack = _jacobian_stack(A) in its last m-2 modes: the first n rows of
    each result contract once more, as _contract's last stage, and the
    last n are B's.  (m-1) * (B x^{m-2}) is the Jacobian of A x^{m-1}."""
    n = X.shape[1]
    T = _contract_batch(stack, X, stack.ndim - 2)
    return _matvec_batch(T[:, :n], X), T[:, -n:]


def hadamard_power(x, k: int) -> np.ndarray:
    """Componentwise k-th power (sign preserving for odd k)."""
    if k < 0:
        raise ValueError("hadamard_power requires k >= 0")
    return as_vector(x) ** int(k)


# ---------------------------------------------------------------------------
# structural transforms


def symmetry_deviation(data: np.ndarray) -> float:
    """Max entry change under a transposition of adjacent modes; zero iff
    data is invariant under every permutation of its modes.  It is inf,
    without a warning, when entries of opposite sign near the float64 limit
    meet."""
    dev = 0.0
    with np.errstate(over="ignore"):
        for k in range(data.ndim - 1):
            dev = max(dev, float(np.max(np.abs(data - np.swapaxes(data, k, k + 1)))))
    return dev


def is_symmetric(A: Tensor) -> bool:
    """A is flagged symmetric or its entries are exactly invariant under
    every permutation of its modes."""
    return A.symmetric or symmetry_deviation(A.data) == 0.0


def _scaled(A: Tensor):
    """(A * 2^-e, e), e the math.frexp exponent of max|a|, so max|s| lies in
    [0.5, 1); A itself when e = 0.  This is exact, so A and 2^k A give one
    copy, except that entries about 2^1074 below max|a| can flush to 0."""
    e = math.frexp(float(np.max(np.abs(A.data))))[1]
    return (A, 0) if e == 0 else (Tensor(np.ldexp(A.data, -e), symmetric=A.symmetric), e)


def _unscaled(v: float, e: int, what: str) -> float:
    """v * 2^e, a value on _scaled's copy as a value on the stored tensor;
    DegenerateInput, naming what, when that is beyond the float64 range."""
    try:
        return math.ldexp(v, e)
    except OverflowError:
        raise DegenerateInput(f"the {what} {v!r} * 2**{e} exceeds the float64 range") from None


def principal_subtensor(A: Tensor, indices) -> Tensor:
    """Restrict every index mode to the same subset, keeping the order."""
    s = as_index_set(indices, A.dim)
    grid = np.ix_(*([s] * A.order))
    return Tensor(A.data[grid], symmetric=A.symmetric)


def comparison_tensor(A: Tensor) -> Tensor:
    """Absolute values on the diagonal, negated absolute values elsewhere."""
    out = -np.abs(A.data)
    diag = diagonal_index(A.order, A.dim)
    out[diag] = np.abs(A.data[diag])
    return Tensor(out, symmetric=A.symmetric)


@functools.lru_cache(maxsize=64)
def _orbit_index_map(m: int, n: int, first: int) -> np.ndarray:
    """Flat position, for every multi-index, of its representative under
    the permutations of modes first.. (0-based): the multi-index with those
    positions sorted.  Cached per shape, read-only."""
    grids = np.indices((n,) * m).reshape(m, -1).T  # (n^m, m)
    grids[:, first:] = np.sort(grids[:, first:], axis=1)
    rep = np.ravel_multi_index(grids.T, (n,) * m)
    rep.setflags(write=False)
    return rep


def _orbit_mean(data: np.ndarray, first: int) -> np.ndarray:
    """data averaged over the permutations of its modes first..: every
    orbit member occurs equally often among the transposes, so the average
    is the mean over the orbit.  It is computed once per orbit and broadcast
    to every position, so the result is exactly invariant under those
    permutations; an orbit whose entries are all equal keeps them, so data
    that is already invariant comes back bit for bit.  When an orbit sum of
    the stored entries overflows, the sums are retaken on data * 2^-e, e the
    math.frexp exponent of max|data|, whose sums cannot, and the means are
    scaled back by 2^e, which is exact for normal entries."""
    m, n = data.ndim, data.shape[0]
    rep = _orbit_index_map(m, n, first)
    values = data.reshape(-1)
    sums = np.bincount(rep, weights=values, minlength=n**m)
    counts = np.bincount(rep, minlength=n**m)
    mixed = np.bincount(rep, weights=values != values[rep], minlength=n**m) > 0
    e = 0
    if not np.isfinite(sums[mixed]).all():
        e = math.frexp(float(np.max(np.abs(values))))[1]
        sums = np.bincount(rep, weights=np.ldexp(values, -e), minlength=n**m)
    means = np.ldexp(sums[rep] / counts[rep], e)
    return np.where(mixed[rep], means, values).reshape(data.shape)


def symmetrize(A: Tensor) -> Tensor:
    """Average over all m! index permutations, exactly permutation
    invariant and idempotent (see _orbit_mean)."""
    return Tensor(_orbit_mean(A.data, 0), symmetric=True)


def _tail_symmetric(A: Tensor) -> np.ndarray:
    """B, A averaged over the permutations of its modes 2..m: A.data itself
    when A is flagged symmetric (the flag means exact symmetry), and equal
    to it bit for bit whenever A is symmetric in modes 2..m.
    B x^{m-1} = A x^{m-1} and B is symmetric in the modes that x fills, so
    the Jacobian of x -> A x^{m-1} is (m-1) * (B x^{m-2})."""
    return A.data if A.symmetric else _orbit_mean(A.data, 1)


def outer_power(u, m: int) -> Tensor:
    """The symmetric rank-one tensor with entries u_{i1} * ... * u_{im}.

    Products are taken at one canonical position per orbit and broadcast,
    so the result is exactly permutation invariant (float multiplication is
    not associative, so naive outer products are symmetric only to an ulp).
    """
    if m < 2:
        raise ValueError("outer_power requires order m >= 2")
    v = as_vector(u)
    data = v
    for _ in range(m - 1):
        data = np.multiply.outer(data, v)
    n = v.size
    flat = data.reshape(-1)[_orbit_index_map(m, n, 0)]
    return Tensor(flat.reshape((n,) * m), symmetric=True)
