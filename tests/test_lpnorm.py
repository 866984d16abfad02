"""Tests for matrix p-norm evaluation and estimation."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lpalg.errors import DimensionGuardError, NormOverflowError, UnsupportedExponentError
from lpalg.lpnorm import (
    PExponent,
    _signs,
    adjoint,
    as_exponent,
    pnorm_estimate,
    pnorm_estimate_stack,
    pnorm_exact,
    pnorm_oracle,
    pnorm_upper,
    validate_matrix,
    vector_pnorm,
)

REL_TOL = 1e-8
ORACLE_REL_TOL = 1e-5

A_HAND = np.array([[1.0, -2.0], [3.0j, 4.0]])


# ---------------------------------------------------------------------------
# exact formulas
# ---------------------------------------------------------------------------

def test_exact_p1_is_max_column_sum():
    assert pnorm_exact(A_HAND, 1) == 6.0


def test_exact_pinf_is_max_row_sum():
    assert pnorm_exact(A_HAND, np.inf) == 7.0


def test_exact_p2_is_spectral_norm():
    assert pnorm_exact(A_HAND, 2) == pytest.approx(5.305935020141682, abs=1e-12)
    sv = np.linalg.svd(A_HAND, compute_uv=False)
    assert pnorm_exact(A_HAND, 2) == pytest.approx(sv[0], abs=1e-12)


def test_exact_rejects_intermediate_p():
    with pytest.raises(UnsupportedExponentError):
        pnorm_exact(A_HAND, 1.5)


def test_exact_identity_norm_is_one():
    for p in (1, 2, np.inf):
        assert pnorm_exact(np.eye(4), p) == 1.0


# ---------------------------------------------------------------------------
# vector norms and duality pairings
# ---------------------------------------------------------------------------

def test_vector_pnorm_known_values():
    x = np.array([3.0, -4.0])
    assert vector_pnorm(x, 1) == 7.0
    assert vector_pnorm(x, 2) == pytest.approx(5.0, abs=1e-14)
    assert vector_pnorm(x, np.inf) == 4.0


def test_signs_of_subnormal_moduli_are_exact():
    # numpy divides by |y| through 1/|y|, which overflows at or below
    # 2^-1024; those entries are scaled first, so the signs are exactly
    # those of the rescaled vector
    rng = np.random.default_rng(8)
    y = (rng.standard_normal(6) + 1j * rng.standard_normal(6)) * 2.0**-1060
    assert np.abs(y).max() < 2.0**-1024
    normal = np.ldexp(y.real, 1060) + 1j * np.ldexp(y.imag, 1060)  # exact
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(_signs(y, np.abs(y)), _signs(normal, np.abs(normal)))


# ---------------------------------------------------------------------------
# the estimator
# ---------------------------------------------------------------------------

def test_estimate_short_circuits_to_exact():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    for p in (1, 2, np.inf):
        est = pnorm_estimate(a, p)
        assert est.method == "exact"
        assert est.value == pnorm_exact(a, p)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, np.inf])
def test_estimate_of_zero_is_exactly_zero(p):
    # callers skip the estimate of an all-zero operator and record 0.0
    assert pnorm_estimate(np.zeros((5, 5)), p).value == 0.0
    assert pnorm_estimate(np.zeros((3, 7), dtype=complex), p).value == 0.0
    assert pnorm_upper(np.zeros((3, 7), dtype=complex), p) == 0.0
    stack = np.zeros((3, 4, 4), dtype=complex)
    stack[1] = np.eye(4)
    first, eye, last = (est.value for est in pnorm_estimate_stack(stack, p))
    assert first == last == 0.0
    assert eye == pytest.approx(1.0, rel=1e-12)


def test_estimate_witness_is_certifying():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    est = pnorm_estimate(a, 1.5, rng=np.random.default_rng(2))
    assert vector_pnorm(est.witness, 1.5) == pytest.approx(1.0, abs=1e-10)
    attained = vector_pnorm(a @ est.witness, 1.5)
    assert attained == pytest.approx(est.value, abs=1e-10)


def test_estimate_is_homogeneous():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    base = pnorm_estimate(m, 1.5, rng=np.random.default_rng(3)).value
    scaled = pnorm_estimate(2.5 * m, 1.5, rng=np.random.default_rng(3)).value
    assert scaled == pytest.approx(2.5 * base, rel=REL_TOL)


@pytest.mark.parametrize("scale", [1e-300, 1e-12, 1e12, 1e300])
def test_estimate_is_scale_covariant(scale):
    # the stagnation test is relative, so small operators iterate as far as large ones
    rng = np.random.default_rng(7)
    a = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    ref = pnorm_estimate(a, 1.5).value
    assert pnorm_estimate(scale * a, 1.5).value / scale == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("seed", range(4))
def test_estimate_of_subnormal_matrix(seed):
    # 1e-320 A keeps about 11 bits of A, hence the loose tolerance
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    tiny = 1e-320 * a
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = pnorm_estimate(tiny, 1.5).value
    assert value / 1e-320 == pytest.approx(pnorm_estimate(a, 1.5).value, rel=1e-4)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_norm_beyond_the_float_range_is_a_typed_error(p):
    huge = np.full((2, 2), 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NormOverflowError):
            pnorm_estimate(huge, p)
        with pytest.raises(NormOverflowError):
            pnorm_upper(huge, p)
        if p in (1.0, 2.0, math.inf):
            with pytest.raises(NormOverflowError):
                pnorm_exact(huge, p)
    assert issubclass(NormOverflowError, ValueError)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_norm_near_the_float_range_is_returned(p):
    # 2 x 2 of 4e307: the norm is 8e307 for every p, still finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pnorm_estimate(np.full((2, 2), 4e307), p).value == pytest.approx(8e307, rel=1e-12)
        assert 8e307 <= pnorm_upper(np.full((2, 2), 4e307), p) <= 8e307 * (1.0 + 1e-14)


def test_estimate_matches_oracle_on_small_matrices():
    gen = np.random.default_rng(11)
    for trial in range(12):
        n = int(gen.integers(2, 5))
        a = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
        for p in (1.5, 3.0):
            ref = pnorm_oracle(a, p, rng=np.random.default_rng([13, trial]))
            est = pnorm_estimate(a, p, rng=np.random.default_rng([17, trial]))
            assert est.value == pytest.approx(ref, rel=ORACLE_REL_TOL)


def test_oracle_guards_large_matrices():
    with pytest.raises(DimensionGuardError):
        pnorm_oracle(np.eye(7), 1.5)


@seed(2)
@settings(max_examples=25, deadline=None)
@given(arrays(np.float64, (3, 3), elements=st.floats(min_value=-5, max_value=5)))
@example(np.full((3, 3), 2.22507386e-309))  # subnormal: the p = inf witness divides by |a_kj|
def test_duality_exact_exponents(a):
    # max column sum of a equals max row sum of the adjoint
    assert pnorm_exact(a, 1) == pytest.approx(pnorm_exact(adjoint(a), np.inf), abs=1e-12)
    assert pnorm_exact(a, 2) == pytest.approx(pnorm_exact(adjoint(a), 2), abs=1e-10)


SUBNORMAL_MATRICES = [
    np.full((3, 3), 2.22507386e-309),
    np.array([[1e-310, -3e-320j, 0.0], [0.0, 0.0, 0.0], [2e-315, 0.0, 1e-309 - 4e-312j]]),
]


@pytest.mark.parametrize("a", SUBNORMAL_MATRICES)
def test_exact_pinf_witness_of_subnormal_entries_is_a_unit_vector(a):
    for mat in (a, adjoint(a)):
        est = pnorm_estimate(mat, np.inf)
        assert np.all(np.isfinite(est.witness.real)) and np.all(np.isfinite(est.witness.imag))
        assert vector_pnorm(est.witness, np.inf) == pytest.approx(1.0, abs=1e-15)
        assert vector_pnorm(mat @ est.witness, np.inf) == pytest.approx(est.value, rel=1e-12)
        assert pnorm_exact(mat, np.inf) == est.value


@pytest.mark.parametrize("a", SUBNORMAL_MATRICES)
@pytest.mark.parametrize("p", [1.5, np.inf])
def test_oracle_and_upper_bound_of_subnormal_entries_are_finite(a, p):
    # the oracle's phase-aligned candidates divide by |a_ij|
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lower, upper = pnorm_oracle(a, p), pnorm_upper(a, p)
    assert 0.0 < lower <= upper < 1e-300
    assert lower == pytest.approx(pnorm_estimate(a, p).value, rel=1e-6)


def test_duality_intermediate_exponent():
    rng = np.random.default_rng(23)
    for trial in range(6):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        lhs = pnorm_estimate(a, 1.5, rng=np.random.default_rng([29, trial])).value
        rhs = pnorm_estimate(adjoint(a), 3.0, rng=np.random.default_rng([31, trial])).value
        assert abs(lhs - rhs) <= 1e-6 * max(1.0, lhs)


# ---------------------------------------------------------------------------
# the proved upper bound
# ---------------------------------------------------------------------------

UPPER_EXPONENTS = [1.0, 1.1, 1.5, 2.0, 3.0, 7.0, math.inf]


def _upper_case(rng, trial):
    """A (matrix, p) pair: dense complex, sparse nonnegative, or sparse real."""
    m, n = (int(k) for k in rng.integers(1, 6, size=2))
    p = UPPER_EXPONENTS[trial % len(UPPER_EXPONENTS)] if trial % 2 else float(rng.uniform(1.0, 6.0))
    kind = trial % 3
    if kind == 0:
        return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)), p
    mask = rng.random((m, n)) < 0.45
    if kind == 1:
        return np.abs(rng.standard_normal((m, n))) * mask, p
    return rng.standard_normal((m, n)) * mask, p


def test_upper_bound_is_never_below_the_oracle_or_the_estimate():
    rng = np.random.default_rng(41)
    violations = []
    for trial in range(600):
        a, p = _upper_case(rng, trial)
        upper = pnorm_upper(a, p)
        lower = max(pnorm_oracle(a, p, samples=8, rng=trial), pnorm_estimate(a, p, restarts=8).value)
        if lower > upper:
            violations.append((trial, p, lower, upper))
    assert violations == []


def _phased_permutation(rng, d):
    return np.eye(d)[rng.permutation(d)] * np.exp(2j * np.pi * rng.random(d))[:, None]


@pytest.mark.parametrize("p", UPPER_EXPONENTS)
def test_upper_bound_is_exact_on_scalars_rank_one_and_phased_permutations(p):
    rng = np.random.default_rng(43)
    q = as_exponent(p).q
    for d in (1, 2, 3, 6):
        c = complex(rng.standard_normal(), rng.standard_normal())
        u, v = (rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(2))
        cases = (
            (np.array([[c]]), abs(c)),
            (np.outer(u, v.conj()), vector_pnorm(u, p) * vector_pnorm(v, q)),
            (0.7 * _phased_permutation(rng, d), 0.7),
        )
        for a, exact in cases:
            assert exact <= pnorm_upper(a, p) <= exact * (1.0 + 1e-14)


def test_upper_bound_drops_zero_rows_and_columns():
    rng = np.random.default_rng(47)
    a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    padded = np.zeros((5, 6), dtype=complex)
    padded[1:4, 2:6] = a
    for p in UPPER_EXPONENTS:
        assert pnorm_upper(padded, p) == pnorm_upper(a, p)


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def test_adjoint_is_involutive():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    assert np.array_equal(adjoint(adjoint(a)), a)


def test_exponent_conjugates():
    assert PExponent(1.0).q == np.inf
    assert PExponent(2.0).q == 2.0
    assert as_exponent(1.5).q == pytest.approx(3.0, abs=1e-15)
    assert as_exponent(np.inf).q == 1.0


def test_exponent_rejects_out_of_range():
    with pytest.raises(ValueError):
        as_exponent(0.5)


def test_validate_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        validate_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        validate_matrix(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        validate_matrix(np.zeros(3))
