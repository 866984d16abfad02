"""Tests for covariant representations and finitely supported elements."""

import numpy as np
import pytest

from lpalg.crossed import (
    CcElement,
    ConcreteAlgebra,
    CovariantRep,
    IsometricAction,
    compress_identity_check,
    conditional_expectation,
    cyclic_coordinate_rotation,
    expectation_cb_certificate,
    is_phased_permutation,
    random_cc_element,
    reduced_norm,
    trivial_action,
    twisted_convolve,
)
from lpalg.groups import ZWindow, cyclic_group

COVARIANCE_TOL = 1e-13
MULT_TOL = 1e-11


def _shift(n):
    return np.roll(np.eye(n, dtype=complex), 1, axis=0)


# ---------------------------------------------------------------------------
# phased permutations and actions
# ---------------------------------------------------------------------------

def test_is_phased_permutation_accepts_signed_shift():
    assert is_phased_permutation(_shift(4))
    assert is_phased_permutation(1j * _shift(4))
    assert is_phased_permutation(np.diag([1.0, -1.0, 1j]))


def test_is_phased_permutation_rejects_non_examples():
    half = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert not is_phased_permutation(half)
    assert not is_phased_permutation(2.0 * _shift(3))
    assert not is_phased_permutation(np.zeros((2, 2)))


def test_action_requires_exact_multiplicativity():
    # i * shift squares to -shift^2, which is not the implementer of 0
    bad = [np.eye(2, dtype=complex), 1j * _shift(2)]
    with pytest.raises(ValueError):
        IsometricAction(cyclic_group(2), unitaries=bad)


def test_phased_shift_action_on_z4():
    u = 1j * _shift(4)
    powers = [np.linalg.matrix_power(u, t) for t in range(4)]
    act = IsometricAction(cyclic_group(4), unitaries=powers)
    a = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    moved = act.apply(1, a)
    assert np.allclose(moved, u @ a @ u.conj().T, atol=1e-15)


def test_rotation_action_permutes_diagonal():
    act = cyclic_coordinate_rotation(3, 1)
    a = np.diag([1.0, 2.0, 3.0]).astype(complex)
    assert np.allclose(np.diag(act.apply(1, a)).real, [2.0, 3.0, 1.0], atol=1e-15)


# ---------------------------------------------------------------------------
# covariant representation
# ---------------------------------------------------------------------------

def test_integrated_rotation_blocks():
    rep = CovariantRep(ConcreteAlgebra(3), cyclic_coordinate_rotation(3, 1), 2.0)
    f = CcElement(cyclic_group(3), {0: np.diag([1.0, 2.0, 3.0]).astype(complex)})
    m = rep.integrated(f)
    assert np.allclose(np.diag(m[0:3, 0:3]).real, [1.0, 2.0, 3.0], atol=1e-15)
    assert np.allclose(np.diag(m[3:6, 3:6]).real, [3.0, 1.0, 2.0], atol=1e-15)
    assert np.allclose(np.diag(m[6:9, 6:9]).real, [2.0, 3.0, 1.0], atol=1e-15)


def test_translation_on_window_is_truncated_shift():
    rep = CovariantRep(ConcreteAlgebra(1), trivial_action(ZWindow(1), 1), 2.0)
    assert rep.positions == [-1, 0, 1]
    expected = np.zeros((3, 3))
    expected[1, 0] = expected[2, 1] = 1.0
    assert np.array_equal(rep.translation(1).real, expected)


def test_covariance_relation():
    rng = np.random.default_rng(0)
    rep = CovariantRep(ConcreteAlgebra(4), cyclic_coordinate_rotation(4, 1), 1.5)
    for t in range(4):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        vt = rep.v(t)
        lhs = vt @ rep.pi(a) @ vt.conj().T
        rhs = rep.pi(rep.action.apply(t, a))
        assert np.abs(lhs - rhs).max() <= COVARIANCE_TOL


def test_integrated_is_multiplicative():
    rng = np.random.default_rng(1)
    carrier = cyclic_group(4)
    rep = CovariantRep(ConcreteAlgebra(4), cyclic_coordinate_rotation(4, 1), 2.0)
    for trial in range(5):
        f = random_cc_element(rng, carrier, 4)
        g = random_cc_element(rng, carrier, 4)
        prod = rep.integrated(twisted_convolve(f, g, rep.action))
        direct = rep.integrated(f) @ rep.integrated(g)
        assert np.abs(prod - direct).max() <= MULT_TOL


def test_convolution_identity_element():
    carrier = cyclic_group(5)
    act = trivial_action(carrier, 2)
    rng = np.random.default_rng(2)
    f = random_cc_element(rng, carrier, 2)
    e = CcElement.delta(carrier, 0, np.eye(2, dtype=complex))
    out = twisted_convolve(e, f, act)
    for s in f.support:
        assert np.allclose(out.coeff(s), f.coeff(s), atol=1e-15)


# ---------------------------------------------------------------------------
# coefficient algebra
# ---------------------------------------------------------------------------

def test_cc_element_prunes_zero_coefficients():
    carrier = cyclic_group(4)
    f = CcElement(carrier, {0: np.eye(2, dtype=complex), 1: np.zeros((2, 2), dtype=complex)})
    assert f.support == (0,)


def test_cc_element_linear_algebra():
    carrier = cyclic_group(4)
    f = CcElement.delta(carrier, 1, 2.0 * np.eye(2, dtype=complex))
    g = CcElement.delta(carrier, 1, np.eye(2, dtype=complex))
    h = f - 2.0 * g
    assert h.support == ()
    assert (f + g).coeff(1)[0, 0] == 3.0


def test_cc_element_carrier_mismatch():
    f = CcElement.delta(cyclic_group(3), 0, np.eye(2, dtype=complex))
    g = CcElement.delta(cyclic_group(4), 0, np.eye(2, dtype=complex))
    with pytest.raises(ValueError):
        _ = f + g


def test_delta_outside_window_truncates_to_zero():
    # translation past the window edge loses all mass
    rep = CovariantRep(ConcreteAlgebra(1), trivial_action(ZWindow(2), 1), 2.0)
    f = CcElement.delta(ZWindow(2), 9, np.eye(1, dtype=complex))
    assert np.abs(rep.integrated(f)).max() == 0.0


# ---------------------------------------------------------------------------
# norms, expectation, compression
# ---------------------------------------------------------------------------

def test_reduced_norm_two_point_mass():
    carrier = cyclic_group(2)
    f = CcElement(carrier, {0: np.eye(2, dtype=complex), 1: np.eye(2, dtype=complex)})
    for p in (1.0, 2.0):
        rep = CovariantRep(ConcreteAlgebra(2), trivial_action(carrier, 2), p)
        assert reduced_norm(f, rep).value == pytest.approx(2.0, abs=1e-12)


def test_conditional_expectation_reads_identity_coefficient():
    carrier = cyclic_group(4)
    rng = np.random.default_rng(3)
    f = random_cc_element(rng, carrier, 3)
    assert np.array_equal(conditional_expectation(f), f.coeff(0))


def test_compress_identity_is_exact():
    rng = np.random.default_rng(4)
    carrier = cyclic_group(5)
    rep = CovariantRep(ConcreteAlgebra(2), trivial_action(carrier, 2), 1.5)
    for _ in range(10):
        f = random_cc_element(rng, carrier, 2)
        out = compress_identity_check(rep, f)
        assert out["max_abs_diff"] <= 1e-12


def test_expectation_certificate_is_contractive():
    rep = CovariantRep(ConcreteAlgebra(2), trivial_action(cyclic_group(2), 2), 2.0)
    cert = expectation_cb_certificate(rep, n_max=3, trials=4, ascent_steps=2,
                                      restarts=6, max_iters=60,
                                      rng=np.random.default_rng(1))
    assert cert.levels == [(1, 1.0), (2, 1.0), (3, 1.0)]
