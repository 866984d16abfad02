"""Tests for matrix p-norm evaluation and estimation."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lpalg import lpnorm
from lpalg.crossed import CcElement, ConcreteAlgebra, CovariantRep, IsometricAction, trivial_action
from lpalg.errors import DimensionGuardError, NormOverflowError, UnsupportedExponentError
from lpalg.groups import ZWindow
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


def test_vector_pnorm_refuses_what_no_float_holds():
    # the first used to return inf with a RuntimeWarning, the second nan
    with pytest.raises(NormOverflowError, match="exceeds the float range"):
        vector_pnorm([1e308] * 4, 2)
    with pytest.raises(ValueError, match="^vector entries must be finite$"):
        vector_pnorm([np.nan, 1.0], 3)
    assert vector_pnorm([1e308] * 4, np.inf) == 1e308


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


def _gaussian_5x5():
    rng = np.random.default_rng(0)
    return rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))


@pytest.mark.parametrize("matrix, p, opts", [
    (_gaussian_5x5(), 1.5, {"max_iters": 0}),  # used to return 0.0, converged
    (np.abs(_gaussian_5x5()), 1.5, {"max_iters": 0}),  # the same, though its upper bound is 6.30
    (_gaussian_5x5(), 2.0, {"restarts": 0}),  # refused at p = 1.5 only
], ids=["complex max_iters 0", "positive max_iters 0", "p 2 restarts 0"])
def test_an_estimate_with_no_iteration_is_refused(matrix, p, opts):
    (name,) = opts
    with pytest.raises(ValueError, match=f"^{name} must be a positive integer, got 0$"):
        pnorm_estimate(matrix, p, **opts)
    with pytest.raises(ValueError, match=f"^{name} must be a positive integer, got 0$"):
        pnorm_estimate_stack([matrix], p, **opts)


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
# the closed form of monomial matrices
# ---------------------------------------------------------------------------

MONOMIAL_EXPONENTS = [1.1, 1.5, 3.0, 7.0]


def _scatter(shape, rows, cols, values):
    a = np.zeros(shape, dtype=complex)
    a[rows, cols] = values
    return a


MONOMIAL_CASES = {
    "permutation": _scatter((5, 5), range(5), [3, 0, 4, 1, 2], [0.5j, -2.0, 1.75 - 1.0j, 0.25, 1e-3]),
    # two entries of the largest modulus: the witness is the first in row-major order
    "diagonal": np.diag([0.3, -2.5j, 1.7, 2.5, 1e-3]),
    "partial permutation": _scatter((6, 6), [0, 2, 5], [3, 0, 5], [2.0 - 1.0j, 0.5, -1.5j]),
    "wide": _scatter((3, 5), [0, 2], [4, 1], [-0.75, 3.0j]),
    "tall": _scatter((5, 2), [1, 4], [1, 0], [1.25, -0.5 + 0.5j]),
    "zero": np.zeros((3, 4), dtype=complex),
}


@pytest.mark.parametrize("name", sorted(MONOMIAL_CASES))
@pytest.mark.parametrize("p", MONOMIAL_EXPONENTS)
def test_monomial_norm_is_the_largest_modulus_at_its_basis_vector(name, p):
    a = MONOMIAL_CASES[name]
    est = pnorm_estimate(a, p)
    assert (est.method, est.converged, est.restarts_used) == ("exact", True, 0)
    assert est.value == float(np.abs(a).max())
    j = int(np.argmax(np.abs(a))) % a.shape[1]
    assert np.array_equal(est.witness, np.eye(a.shape[1])[j])
    assert vector_pnorm(a @ est.witness, p) == est.value
    (stacked,) = pnorm_estimate_stack([a], p)
    assert stacked.value == est.value and np.array_equal(stacked.witness, est.witness)


@st.composite
def _monomial_matrices(draw):
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    k = draw(st.integers(0, min(m, n)))
    rows, cols = draw(st.permutations(range(m)))[:k], draw(st.permutations(range(n)))[:k]
    mods = draw(st.lists(st.floats(1e-3, 1e3), min_size=k, max_size=k))
    turns = draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k))
    return _scatter((m, n), rows, cols, np.array(mods) * np.exp(2j * np.pi * np.array(turns)))


@seed(3)
@settings(max_examples=60, deadline=None)
@given(_monomial_matrices(), st.floats(1.01, 8.0).filter(lambda p: p != 2.0))
def test_monomial_closed_form_matches_the_oracle_and_the_iteration(a, p):
    value = pnorm_estimate(a, p).value
    assert value == float(np.abs(a).max())
    assert abs(value - pnorm_oracle(a, p)) <= 1e-12 * value
    iterated = lpnorm._power_iteration(a[None].copy(), as_exponent(p), 32, 100, 1e-10, [np.random.default_rng(0)])
    assert value >= iterated[0].value - 4 * math.ulp(iterated[0].value)


@pytest.mark.parametrize("name", ["permutation", "partial permutation", "wide"])
def test_monomial_estimate_scales_exactly_by_powers_of_two(name):
    a = MONOMIAL_CASES[name]
    for p in MONOMIAL_EXPONENTS:
        base = pnorm_estimate(a, p)
        for k in range(-40, 41):
            scaled = pnorm_estimate(np.ldexp(a.real, k) + 1j * np.ldexp(a.imag, k), p)
            assert scaled.value == math.ldexp(base.value, k)
            assert np.array_equal(scaled.witness, base.witness)


def test_monomial_norm_beyond_the_float_range_is_a_typed_error():
    # |1e308 + 1e308j| = 1.414e308 is a float; |1.5e308 + 1.5e308j| is not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pnorm_estimate(np.diag([1e308 + 1e308j, 1.0]), 1.5).value == abs(1e308 + 1e308j)
        for p in MONOMIAL_EXPONENTS:
            with pytest.raises(NormOverflowError):
                pnorm_estimate(np.diag([1.5e308 + 1.5e308j, 1.0]), p)
            with pytest.raises(NormOverflowError):
                pnorm_estimate_stack([np.eye(2), np.diag([1.0, 1.5e308 + 1.5e308j])], p)


def test_iterated_norm_with_an_overflowing_modulus_is_a_typed_error():
    # not monomial, so the power iteration scales by the largest modulus, which is not a float
    dense = np.array([[1.5e308 + 1.5e308j, 1.0], [1.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in MONOMIAL_EXPONENTS:
            with pytest.raises(NormOverflowError):
                pnorm_estimate(dense, p)
            with pytest.raises(NormOverflowError):
                pnorm_estimate_stack([np.ones((2, 2)), dense], p)


def test_monomial_norm_of_the_least_subnormal_is_exact():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in MONOMIAL_EXPONENTS:
            est = pnorm_estimate(np.diag([5e-324, 0.0]), p)
            assert (est.value, est.method) == (5e-324, "exact")
            assert np.array_equal(est.witness, [1.0, 0.0])


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_mixed_stack_matches_one_matrix_estimates(p):
    rng = np.random.default_rng(53)
    stack = rng.standard_normal((6, 5, 5)) + 1j * rng.standard_normal((6, 5, 5))
    stack[1] = MONOMIAL_CASES["permutation"]
    stack[2] = MONOMIAL_CASES["diagonal"]
    stack[3] = _scatter((5, 5), [0, 0], [1, 3], [1.0, 0.5j])  # two nonzeros in one row: not monomial
    stack[4] = 0.0
    stack[5][:, 1:] = 0.0  # five nonzeros in one column: not monomial
    got = pnorm_estimate_stack(stack, p, rngs=range(6), restarts=6, max_iters=60)
    # members 3 and 5 are rank one, hence nonnegative up to phases
    assert [est.method for est in got] == ["power-iteration", "exact", "exact", "positive-iteration", "exact",
                                           "positive-iteration"]
    for b, est in enumerate(got):
        one = pnorm_estimate(stack[b], p, rng=b, restarts=6, max_iters=60)
        assert (one.value, one.converged, one.method, one.restarts_used) == \
            (est.value, est.converged, est.method, est.restarts_used)
        assert np.array_equal(one.witness, est.witness)


# ---------------------------------------------------------------------------
# the positive iteration: matrices that are nonnegative up to phases
# ---------------------------------------------------------------------------

POSITIVE_EXPONENTS = [1.2, 1.5, 3.0, 4.0]


def _unit_phases(rng, n):
    return np.exp(2j * np.pi * rng.random(n))


def _phased(rng, b):
    """D1 b D2 for random unimodular diagonals D1 and D2."""
    return _unit_phases(rng, b.shape[0])[:, None] * b * _unit_phases(rng, b.shape[1])


def _block_diagonal(*blocks):
    out = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)), dtype=complex)
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


def _two_term_window_forms():
    """The Z window forms of 0.6 delta_0 + 0.4 delta_{-1} with phased scalar
    coefficients, under the trivial action and under a phase."""
    rng = np.random.default_rng(61)
    zw = ZWindow(0)
    f = CcElement(zw, {0: 0.6 * _unit_phases(rng, 1)[None], -1: 0.4 * _unit_phases(rng, 1)[None]})
    actions = (trivial_action(zw, 1), IsometricAction(zw, generator=_unit_phases(rng, 1)[None]))
    return [CovariantRep(ConcreteAlgebra(1), action, 1.5, window_radius=22).integrated(f) for action in actions]


def _nonnegative_cases(rng):
    """Seeded matrices D1 B D2 with B >= 0: dense, 20% sparse, block diagonal, rank one."""
    return {
        "dense": _phased(rng, rng.random((7, 6))),
        "sparse": _phased(rng, rng.random((12, 12)) * (rng.random((12, 12)) < 0.2)),
        "block diagonal": _phased(rng, _block_diagonal(rng.random((3, 4)), 3.0 * rng.random((4, 2)),
                                                       rng.random((2, 3)))),
        "rank one": _phased(rng, np.outer(rng.random(6), rng.random(8))),
    }


def test_components_write_down_the_walk_of_a_matrix_without_zeros():
    # a zero row below the same pattern makes the walk run; it must find
    # what the shortcut writes down, so the positive route keeps its bits
    for m, n in ((1, 1), (1, 5), (4, 1), (3, 7), (6, 2)):
        rows, cols, blocks, (order, row_from, col_from) = lpnorm._components(np.ones((m, n), dtype=bool))
        walked = lpnorm._components(np.vstack([np.ones((m, n), dtype=bool), np.zeros((1, n), dtype=bool)]))
        assert np.array_equal(rows, walked[0]) and np.array_equal(cols, walked[1])
        assert all(np.array_equal(got, want) for got, want in zip(blocks, walked[2]))
        assert (order, row_from + [-1], col_from) == walked[3]


def test_positive_route_takes_exactly_the_matrices_nonnegative_up_to_phases():
    rng = np.random.default_rng(59)
    u, v = (rng.standard_normal(5) + 1j * rng.standard_normal(5) for _ in range(2))
    blocks = _block_diagonal(_phased(rng, rng.random((3, 3))), _phased(rng, rng.random((2, 4))))
    for a in (np.outer(u, v.conj()), *_two_term_window_forms(), blocks):
        assert lpnorm._phased_components(a) is not None
        assert pnorm_estimate(a, 1.5).method == "positive-iteration"
    assert len(lpnorm._phased_components(blocks)[2][0]) == 2  # one block per component
    # a 4-cycle with phase product -1, away from the leading 2 x 2 block: the
    # walk refuses it; in the leading block the four-sign test does
    cycle = _block_diagonal(np.zeros((1, 1)), np.array([[1.0, 1.0], [1.0, -1.0]]))
    assert not lpnorm._corner_cycle_breaks(cycle) and lpnorm._phased_components(cycle) is None
    assert lpnorm._corner_cycle_breaks(cycle[1:, 1:])
    gaussian = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    assert lpnorm._corner_cycle_breaks(gaussian) and lpnorm._phased_components(gaussian) is None
    for a in (cycle, cycle[1:, 1:], gaussian):
        assert pnorm_estimate(a, 1.5).method == "power-iteration"


@pytest.mark.parametrize("p", POSITIVE_EXPONENTS)
def test_positive_route_without_a_bracket_leaves_the_matrix_to_the_kernel(p):
    # row 1 holds only 3e-305 beside entries of size 3e5, so every step
    # leaves the normal range and gives no upper bound; the kernel then sees
    # the matrix unscaled and answers with its own bits
    a = np.array([[3e5, 1.5e5j], [3e-305, 0.0]])
    assert lpnorm._phased_components(a) is not None
    est = pnorm_estimate(a, p)
    kernel = lpnorm._power_iteration(a[None].astype(complex), as_exponent(p), 32, 100, 1e-10,
                                     [np.random.default_rng(0)])[0]
    assert est.method == "power-iteration"
    assert (est.value, est.converged) == (kernel.value, kernel.converged)
    assert np.array_equal(est.witness, kernel.witness)


@pytest.mark.parametrize("p", POSITIVE_EXPONENTS)
def test_converged_positive_estimate_meets_its_collatz_wielandt_bound(p):
    # pnorm_upper runs the estimate's own bracket further, so a converged
    # estimate is within tol of it
    rng = np.random.default_rng([67, int(10 * p)])
    for trial in range(6):
        a = _phased(rng, rng.random((5 + trial, 4 + trial)) + 0.1)
        est = pnorm_estimate(a, p)
        assert (est.method, est.converged) == ("positive-iteration", True)
        bound = pnorm_upper(a, p)
        assert bound * (1.0 - 1e-10 - 1e-13) <= est.value <= bound


@pytest.mark.parametrize("p", POSITIVE_EXPONENTS)
def test_positive_estimate_is_at_least_the_restarted_kernel(p):
    rng = np.random.default_rng([71, int(10 * p)])
    for name, a in _nonnegative_cases(rng).items():
        est = pnorm_estimate(a, p)
        assert est.method == "positive-iteration", name
        kernel = lpnorm._power_iteration(a[None].copy(), as_exponent(p), 32, 100, 1e-10, [np.random.default_rng(0)])
        assert est.value >= kernel[0].value * (1.0 - (1e-9 if est.converged else 1e-5)), name
        assert vector_pnorm(a @ est.witness, p) == pytest.approx(est.value, rel=1e-13)


@st.composite
def _nonnegative_up_to_phases(draw):
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    mods = draw(arrays(float, (m, n), elements=st.floats(1e-3, 10.0)))
    keep = draw(arrays(bool, (m, n)))
    turns = draw(arrays(float, m + n, elements=st.floats(0.0, 1.0)))
    return np.exp(2j * np.pi * turns[:m])[:, None] * (mods * keep) * np.exp(2j * np.pi * turns[m:])


@seed(5)
@settings(max_examples=40, deadline=None)
@given(_nonnegative_up_to_phases(), st.sampled_from(POSITIVE_EXPONENTS))
def test_converged_positive_estimate_agrees_with_the_oracle(a, p):
    est = pnorm_estimate(a, p)
    assert est.method in ("exact", "positive-iteration")
    if est.method == "positive-iteration" and est.converged:
        assert abs(est.value - pnorm_oracle(a, p)) <= 1e-9 * est.value


@pytest.mark.parametrize("p", POSITIVE_EXPONENTS)
def test_rank_one_positive_estimate_is_the_product_of_the_norms(p):
    rng = np.random.default_rng([73, int(10 * p)])
    q = as_exponent(p).q
    for m, n in ((1, 5), (6, 1), (4, 7), (12, 9)):
        u = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        est = pnorm_estimate(np.outer(u, v.conj()), p)
        exact = vector_pnorm(u, p) * vector_pnorm(v, q)
        assert (est.method, est.converged) == ("positive-iteration", True)
        assert abs(est.value - exact) <= 1e-12 * exact


def _count_steps(monkeypatch, name: str = "_newton_step") -> list:
    """Wrap the step ``lpnorm.<name>``; the returned list grows by one per call."""
    calls, real = [], getattr(lpnorm, name)
    monkeypatch.setattr(lpnorm, name, lambda *args: calls.append(1) or real(*args))
    return calls


def test_positive_estimate_scales_exactly_by_powers_of_two(monkeypatch):
    # the window forms take Newton steps
    calls = _count_steps(monkeypatch)
    rng = np.random.default_rng(79)
    for a in (*_nonnegative_cases(rng).values(), *_two_term_window_forms()):
        for p in (1.5, 3.0):
            base = pnorm_estimate(a, p)
            assert base.method == "positive-iteration"
            for k in (*range(-40, 41), -900, 900):
                scaled = pnorm_estimate(np.ldexp(a.real, k) + 1j * np.ldexp(a.imag, k), p)
                assert scaled.value == math.ldexp(base.value, k)
                assert np.array_equal(scaled.witness, base.witness)
    assert calls


def test_positive_route_closes_its_bracket_on_sparse_matrices():
    # where a weak entry is all that couples two parts of a component,
    # Boyd's iteration alone stops at max_iters below the restarted kernel
    rng = np.random.default_rng(89)
    checked = 0
    for trial in range(300):
        m, n = (int(k) for k in rng.integers(1, 9, size=2))
        a = _phased(rng, rng.random((m, n)) * (rng.random((m, n)) < rng.uniform(0.15, 0.5)))
        p = (1.01, 1.2, 1.5, 3.0, 8.0)[trial % 5]
        est = pnorm_estimate(a, p)
        if est.method != "positive-iteration":
            continue
        kernel = lpnorm._power_iteration(a[None].astype(complex), as_exponent(p), 32, 100, 1e-10,
                                         [np.random.default_rng(0)])[0]
        assert est.converged, trial
        assert est.value >= kernel.value * (1.0 - 1e-10), trial
        checked += 1
    assert checked > 200


def test_window_form_closes_its_bracket_with_newton_steps(monkeypatch):
    # the 45 x 45 window form of 0.6 delta_0 + 0.4 delta_{-1}: Boyd's
    # iteration alone leaves it at 0.999420 after 100 steps, unconverged
    calls = _count_steps(monkeypatch)
    for a in _two_term_window_forms():
        est = pnorm_estimate(a, 1.5)
        assert (est.method, est.converged) == ("positive-iteration", True)
        assert 0.99949 < est.value <= pnorm_upper(a, 1.5) <= est.value * (1.0 + 1e-10)
    assert calls


def _ref_positive_iteration(mat, pe, max_iters, tol):
    """The positive route's loop as it was written before it took Newton steps."""
    rows, cols, blocks, phases, _ = lpnorm._phased_components(mat)
    row_starts, _, col_starts, col_block = blocks
    b = np.abs(mat)[np.ix_(rows, cols)]
    b /= b.max()
    x = np.ones(len(cols))
    best, best_x = np.full(len(col_starts), -np.inf), x.copy()
    upper = np.full(len(col_starts), np.inf)
    converged = False
    with np.errstate(all="ignore"):
        for _ in range(max_iters):
            y_top, u, bounds, usable, w = lpnorm._boyd_step(b, x, pe.p, pe.q, blocks)
            ratio = np.add.reduceat(u**pe.p, row_starts) / np.add.reduceat(x**pe.p, col_starts)
            lower = y_top * ratio ** (1.0 / pe.p)
            gain = lower > best
            best[gain] = lower[gain]
            best_x[gain[col_block]] = x[gain[col_block]]
            upper = np.where(usable & (bounds < upper), bounds, upper)
            if upper.max() - best.max() <= tol * best.max():
                converged = True
                break
            x = np.maximum((w / np.maximum.reduceat(w, col_starts)[col_block]) ** (pe.q - 1.0), 2.0**-1074)
    k = int(np.argmax(best))
    witness = np.zeros(mat.shape[1], dtype=complex)
    witness[cols] = np.where(col_block == k, best_x * phases.conj(), 0.0)
    e = lpnorm._scale_down(mat[None], pe)[0]
    return lpnorm._finished(mat, best[k], witness, converged, e, pe, "positive-iteration", 1)


@pytest.mark.parametrize("p", POSITIVE_EXPONENTS)
def test_positive_route_keeps_its_bits_where_the_bracket_halves(p, monkeypatch):
    # rank-one and block-diagonal forms close their bracket in a few steps,
    # each at least halving it, so they take no Newton step
    calls = _count_steps(monkeypatch)
    rng = np.random.default_rng([97, int(10 * p)])
    cases = _nonnegative_cases(rng)
    pe = as_exponent(p)
    for name in ("rank one", "block diagonal"):
        a = cases[name]
        est, ref = pnorm_estimate(a, p), _ref_positive_iteration(a.copy(), pe, 100, 1e-10)
        assert (est.value, est.converged) == (ref.value, ref.converged), name
        assert np.array_equal(est.witness, ref.witness), name
    assert calls == []


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


def _ref_collatz_wielandt(b, p, q):
    """pnorm_upper's Collatz-Wielandt loop as it was written before the
    positive iteration shared its step."""
    best, x = math.inf, np.ones(b.shape[1])
    with np.errstate(all="ignore"):
        for _ in range(100):
            y = b @ x
            z = (y / y.max()) ** (p - 1.0)
            w, xp = b.T @ z, x ** (p - 1.0)
            if not min(y.min(), z.min(), w.min(), xp.min()) >= 2.0**-900:
                break
            bound = float(y.max() ** (1.0 / q) * (w / xp).max() ** (1.0 / p))
            if not bound < best:
                break
            best, x = bound, (w / w.max()) ** (q - 1.0)
    return best


def _ref_upper(a, p):
    """pnorm_upper with the reference loop: zero rows and columns dropped,
    Riesz-Thorin or the loop's bound, whichever is smaller, and the same
    rounding; also the margin (m + n + 8) 2^-52 of that rounding."""
    pe = as_exponent(p)
    mags = np.abs(np.asarray(a, dtype=complex))
    mags = mags[mags.any(axis=1)][:, mags.any(axis=0)]
    top = mags.max()
    b = mags / top
    col, row = float(b.sum(axis=0).max()), float(b.sum(axis=1).max())
    if pe.is_one or pe.is_inf:
        bound = col if pe.is_one else row
    else:
        bound = min(col ** (1.0 / pe.p) * row ** (1.0 / pe.q), _ref_collatz_wielandt(b, pe.p, pe.q))
    margin = sum(b.shape, 8) * 2.0**-52
    return math.nextafter(float(top) * (bound * (1.0 + margin)), math.inf), margin


def test_upper_bound_is_never_looser_than_the_reference_loop():
    # the bracket stops at the width of the rounding margin, so it may end
    # that far above the reference loop's least bound, but no further; where
    # Boyd's iteration stalls (the window forms, nearly reducible matrices)
    # Newton's steps close it well below
    rng = np.random.default_rng(83)
    cases = [_upper_case(rng, trial) for trial in range(300)]
    cases += [(a, p) for a in _nonnegative_cases(rng).values() for p in POSITIVE_EXPONENTS]
    cases += [(a, p) for a in _two_term_window_forms() for p in POSITIVE_EXPONENTS]
    tightened = 0
    for a, p in cases:
        if not np.abs(a).any():
            continue
        got, (want, margin) = pnorm_upper(a, p), _ref_upper(a, p)
        assert got <= want * (1.0 + 2.0 * margin)
        tightened += got < want * (1.0 - 1e-9)
    assert tightened >= 9


def test_collatz_wielandt_closes_on_a_nearly_reducible_matrix(monkeypatch):
    # Boyd's iteration alone still lowers this bound at step 180, and its
    # 100 steps left pnorm_upper 1.7e-7 above the oracle
    b = np.array([[0.556, 0, 0, 0], [0, 0, 0.099, 0], [0, 0, 1.672, 1.103], [2.878, 0, 0, 0],
                  [0, 0.335, 0.53, 0], [0.055, 0, 1.302, 2.187]])
    oracle = pnorm_oracle(b, 1.5)
    assert oracle <= pnorm_upper(b, 1.5) <= oracle * (1.0 + 1e-9)
    # the witness's coefficient kinds close at once, within the margin of the reference loop
    calls = _count_steps(monkeypatch)
    rng = np.random.default_rng(101)
    for p in POSITIVE_EXPONENTS:
        u, v = rng.random(3), rng.random(3)
        for kind in (np.array([[1.0]]), np.outer(u, v) / max(u) / max(v), np.eye(3)[[2, 0, 1]]):
            want, margin = _ref_upper(kind, p)
            assert abs(pnorm_upper(kind, p) - want) <= 2.0 * margin * want
    assert calls == []


def test_upper_bound_closes_on_a_disconnected_matrix():
    # b + 0.5 b has two components with one lambda each; Newton's steps now
    # close each of them, where pnorm_upper stayed 1.6e-7 above the estimate
    b = np.array([[0.556, 0, 0, 0], [0, 0, 0.099, 0], [0, 0, 1.672, 1.103], [2.878, 0, 0, 0],
                  [0, 0.335, 0.53, 0], [0.055, 0, 1.302, 2.187]])
    a = _block_diagonal(b, 0.5 * b)
    est = pnorm_estimate(a, 1.5)
    assert (est.method, est.converged) == ("positive-iteration", True)
    assert est.value <= pnorm_upper(a, 1.5) <= est.value * (1.0 + 1e-12)


def test_upper_bound_of_the_witness_coefficients_takes_at_most_two_steps(monkeypatch):
    # a monomial coefficient is exact by Riesz-Thorin and takes no step, a
    # rank-one one closes its bracket at the second, and none takes Newton's
    boyd, newton = _count_steps(monkeypatch, "_boyd_step"), _count_steps(monkeypatch)
    rng = np.random.default_rng(103)
    for p in (1.5, 3.0, 1.2, 4.0):
        for a in (np.array([[0.3 - 0.4j]]), 0.45 * _phased_permutation(rng, 2), np.eye(12),
                  np.diag(_unit_phases(rng, 5))):
            pnorm_upper(a, p)
        assert boyd == []
        for _ in range(8):
            u, v = (rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(2))
            pnorm_upper(np.outer(u, v.conj()), p)
            assert len(boyd) <= 2
            boyd.clear()
    assert newton == []


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


@pytest.mark.parametrize("p", [True, np.bool_(True), False])
def test_exponent_rejects_a_bool(p):
    # as_exponent(True) used to be p = 1, as an integer field refuses True
    for make in (PExponent, as_exponent):
        with pytest.raises(ValueError, match="^exponent must be a number, not a bool"):
            make(p)
    assert as_exponent(np.int64(1)).q == np.inf


@pytest.mark.parametrize("p", ["1.5", b"1.5", "inf"], ids=["str", "bytes", "str inf"])
def test_exponent_rejects_a_string(p):
    # pnorm_estimate(a, "1.5") used to run at p = 1.5
    for make in (PExponent, as_exponent):
        with pytest.raises(ValueError, match="^exponent must be a number, not a (str|bytes)"):
            make(p)
    with pytest.raises(ValueError, match="^exponent must be a number"):
        pnorm_estimate(A_HAND, p)


def test_validate_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        validate_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        validate_matrix(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        validate_matrix(np.zeros(3))
