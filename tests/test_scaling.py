"""The sign and form searches run on a copy scaled by a power of two, so
their verdicts are invariant under A -> 2^k A, and tensors near the float64
limit get a verdict."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ptensor import (
    CERTIFIED,
    LIKELY,
    REFUTED,
    DegenerateInput,
    SearchBudget,
    Tensor,
    check_p,
    check_p0,
    check_s,
    is_copositive,
    is_psd,
    zero_tensor,
)
from ptensor.core import _scaled, _unscaled, diagonal_index
from ptensor.generators import random_m_tensor, random_tensor


def _times(A: Tensor, k: int) -> Tensor:
    return Tensor(np.ldexp(A.data, k), symmetric=A.symmetric)


@pytest.mark.parametrize("c", [1e308, 3.0, 1.0, 0.75, 0.5, 2.0**-30, 5e-324])
def test_scaled_copy_has_max_in_half_open_unit_binade(c):
    A = Tensor(np.array([[c, -c / 3], [0.0, c / 7]]))
    S, e = _scaled(A)
    assert 0.5 <= np.max(np.abs(S.data)) < 1.0
    assert (S is A) == (e == 0)
    assert np.array_equal(np.ldexp(S.data, e), A.data)


def test_scaled_copy_of_zero_tensor_is_itself():
    Z = zero_tensor(3, 2)
    assert _scaled(Z) == (Z, 0)


def test_unscaled_names_a_value_beyond_float64():
    assert _unscaled(0.75, 1024, "form value") == 0.75 * 2.0**1023 * 2
    assert _unscaled(-0.5, -1080, "form value") == 0.0
    with pytest.raises(DegenerateInput, match=r"the search margin -1\.5 \* 2\*\*1024 exceeds"):
        _unscaled(-1.5, 1024, "search margin")


# ---------------------------------------------------------------------------
# reproducers


def test_check_p_does_not_refute_a_scaled_down_m_tensor():
    """random_m_tensor(4, 4, 0) is a nonsingular M-tensor, so P.  At 2^-30
    the search used to refute it with a witness whose functional is
    +3.46e-9; on the scaled copy it finds no witness."""
    v = check_p(_times(random_m_tensor(4, 4, seed=0), -30))
    assert v.verdict == LIKELY
    assert v.search_margin > 0.0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_is_psd_refutes_at_every_scale(seed):
    """is_psd used to say LIKELY at 2^-30 and REFUTED at scale 1."""
    A = random_tensor(4, 4, seed=seed, symmetric=True)
    base, small = is_psd(A), is_psd(_times(A, -30))
    assert base.verdict == small.verdict == REFUTED
    assert np.array_equal(base.witness, small.witness)
    assert small.metrics["min_value"] == math.ldexp(base.metrics["min_value"], -30)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_check_p0_gives_a_verdict_near_float64_limit():
    """[[1e308] * 2] * 2 is singular and positive semidefinite, so P0 and
    not P; the search used to overflow with DegenerateInput.  Its rows are
    dominant with equality, which the dominance rule now sees on the scaled
    copy (the float off-row sum of the stored entries overflowed to inf)."""
    A = Tensor([[1e308] * 2] * 2)
    p0 = check_p0(A)
    assert p0.verdict == CERTIFIED
    assert [r for r, _ in p0.certificate_chain] == ["diagonal_dominance_nonnegative_diagonal"]
    assert check_p(A).verdict == REFUTED


# ---------------------------------------------------------------------------
# invariance under A -> 2^k A


_BUDGET = SearchBudget(starts=4, iters=40, grid_depth=8)
_VALUES = ("functional_value", "functional_value_unthresholded", "search_margin")


def _no_dominant_row(data: np.ndarray) -> np.ndarray:
    """data with each diagonal entry set to min(max(|a_i..i|, 1/8), off-row
    sum of row i): no row is strictly dominant, so the comparison tensor is
    not a nonsingular M-tensor (its all-ones vector shows rho >= s) and the
    H rule, which is not scale-free, certifies at no scale."""
    n, m = data.shape[0], data.ndim
    diag = diagonal_index(m, n)
    d = np.maximum(np.abs(data[diag]), 0.125)
    data[diag] = 0.0
    data[diag] = np.minimum(d, np.abs(data).reshape(n, -1).sum(axis=1))
    return data


def _assert_times_2k(got, base, k):
    assert (got is None) == (base is None)
    if base is not None:
        assert got == math.ldexp(base, k), (got, base, k)


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from([(2, 3), (2, 4), (3, 3), (3, 4), (4, 3), (4, 4)]),
    k=st.one_of(st.integers(-40, 40), st.sampled_from([-1000, 1000])),
    data=st.data(),
)
@example(shape=(3, 4), k=-1000, data=None)
@example(shape=(4, 4), k=1000, data=None)
def test_searches_are_invariant_under_powers_of_two(shape, k, data):
    """check_p, check_p0, check_s, is_copositive and is_psd give A and 2^k A
    the same verdict, label, certificate rule, witness and argmin, and every
    search value on 2^k A is exactly 2^k times the one on A.  The entries
    are multiples of 1/8 in [-1, 1], so both tensors have only normal
    entries; the certificate chains' metrics are not compared, since the H
    rule is not scale-free (the tensors are drawn so that it never fires)."""
    m, n = shape
    if data is None:
        ints = np.random.default_rng([m, n]).integers(-8, 9, size=(n,) * m)
    else:
        ints = data.draw(arrays(np.int64, (n,) * m, elements=st.integers(-8, 8)))
    A = Tensor(_no_dominant_row(ints / 8.0))
    B = _times(A, k)
    for check in (check_p, check_p0, check_s):
        base, got = check(A, _BUDGET), check(B, _BUDGET)
        assert got.verdict == base.verdict
        assert [r for r, _ in got.certificate_chain] == [r for r, _ in base.certificate_chain]
        assert (got.witness is None) == (base.witness is None)
        if base.witness is not None:
            assert np.array_equal(got.witness, base.witness)
        for name in _VALUES:
            _assert_times_2k(getattr(got, name), getattr(base, name), k)
    for search in (is_copositive, is_psd):
        base, got = search(A, _BUDGET), search(B, _BUDGET)
        assert (got.verdict, got.label) == (base.verdict, base.label)
        assert np.array_equal(got.witness, base.witness)
        assert got.metrics.get("argmin") == base.metrics.get("argmin")
        assert got.metrics.get("grid_points") == base.metrics.get("grid_points")
        _assert_times_2k(got.metrics["min_value"], base.metrics["min_value"], k)
