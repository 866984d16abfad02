"""Tests for covariant representations and finitely supported elements."""

import re
from itertools import combinations, permutations

import numpy as np
import pytest

from lpalg import crossed
from lpalg.crossed import (
    CcElement,
    ConcreteAlgebra,
    CovariantRep,
    IsometricAction,
    _phased_pair,
    compress_identity_check,
    conditional_expectation,
    cyclic_coordinate_rotation,
    expectation_cb_certificate,
    random_cc_element,
    reduced_norm,
    trivial_action,
    twisted_convolve,
)
from lpalg.groups import ZWindow, cyclic_group
from lpalg.suite import _table_test_groups

COVARIANCE_TOL = 1e-13
MULT_TOL = 1e-11


def _shift(n):
    return np.roll(np.eye(n, dtype=complex), 1, axis=0)


# ---------------------------------------------------------------------------
# phased permutations and actions
# ---------------------------------------------------------------------------

def test_is_phased_permutation_accepts_signed_shift():
    # the phased-permutation check is the one implementers pass; a generator passes it too
    for u in (_shift(4), 1j * _shift(4), np.diag([1.0, -1.0, 1j])):
        assert np.array_equal(IsometricAction(ZWindow(0), generator=u).unitary(1), u)


def test_is_phased_permutation_rejects_non_examples():
    # a bad generator and a bad implementer are refused with one message
    message = "^every implementer must be a square phased permutation$"
    half = np.array([[0.5, 0.5], [0.5, 0.5]])
    for u in (half, 2.0 * _shift(3), np.zeros((2, 2)), np.zeros((0, 0))):
        for carrier in (ZWindow(0), cyclic_group(1)):
            with pytest.raises(ValueError, match=message):
                IsometricAction(carrier, generator=u)
        with pytest.raises(ValueError, match=message):
            IsometricAction(cyclic_group(1), unitaries=[u])


def test_action_requires_exact_multiplicativity():
    # i * shift squares to -shift^2, which is not the implementer of 0
    bad = [np.eye(2, dtype=complex), 1j * _shift(2)]
    with pytest.raises(ValueError):
        IsometricAction(cyclic_group(2), unitaries=bad)


def _sym3_signed_permutations():
    """sym3 as in the suite's table, and U_s = sgn(s) P_s with P_s e_x = e_{s(x)}."""
    group = _table_test_groups()[1]
    mats = []
    for perm in sorted(permutations(range(3))):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(3), 2))
        u = np.zeros((3, 3), dtype=complex)
        u[list(perm), range(3)] = (-1.0) ** inversions
        mats.append(u)
    return group, mats


def _first_dense_failure(group, mats):
    """The first (s, t) in row-major order with U_s U_t != U_st, by dense products."""
    for s in group.elements():
        for t in group.elements():
            if np.abs(mats[s] @ mats[t] - mats[group.op(s, t)]).max() > 1e-12:
                return s, t
    return None


def test_action_refuses_a_permutation_mismatch():
    # U_2 repeats the shift, so U_1 U_1 = shift^2 has the wrong permutation
    bad = [np.eye(3, dtype=complex), _shift(3), _shift(3)]
    with pytest.raises(ValueError, match=re.escape("not multiplicative at (1, 1)")):
        IsometricAction(cyclic_group(3), unitaries=bad)


def test_non_abelian_action_is_accepted():
    group, mats = _sym3_signed_permutations()
    assert _first_dense_failure(group, mats) is None
    act = IsometricAction(group, unitaries=mats)
    a = np.arange(9.0).reshape(3, 3) + 1j
    for s in group.elements():
        assert np.array_equal(act.unitary(s), mats[s])
        assert np.allclose(act.apply(s, a), mats[s] @ a @ mats[s].conj().T, atol=1e-15)


def test_swapped_implementers_are_refused_at_the_first_failing_pair():
    group, mats = _sym3_signed_permutations()
    for a, b in combinations(range(1, group.order), 2):
        swapped = list(mats)
        swapped[a], swapped[b] = mats[b], mats[a]
        s, t = _first_dense_failure(group, swapped)
        with pytest.raises(ValueError, match=re.escape(f"not multiplicative at ({s}, {t})")):
            IsometricAction(group, unitaries=swapped)


def _diagonal_phases(n, d):
    """Z/n acting on M_d by U_s = diag(w^{s j}), w = e^{2 pi i/n}: non-real phases."""
    return [np.diag(np.exp(2j * np.pi * s * np.arange(d) / n)) for s in range(n)]


@pytest.mark.parametrize("mats, message", [
    ([np.eye(3, dtype=complex)] * 2, "expected 3 implementers, got 2"),
    ([np.eye(3), np.eye(3), np.eye(3)[:, :2]], "every implementer must be a square phased permutation"),
    ([np.eye(3), np.eye(3), np.eye(2)], "every implementer must be a square phased permutation"),
    ([np.eye(3), np.eye(3), np.full((3, 3), 0.5)], "every implementer must be a square phased permutation"),
    ([np.eye(3), np.eye(3), np.diag([1.0, 1.0 + 2e-12, 1.0])],
     "every implementer must be a square phased permutation"),
    ([np.eye(3), np.eye(3), np.diag([1.0, np.inf, 1.0])], "matrix entries must be finite"),
    ([np.eye(3), np.eye(3), np.diag([1.0, np.nan, 1.0])], "matrix entries must be finite"),
    ([np.diag([1.0, -1.0, 1.0]), np.eye(3), np.eye(3)],
     "the implementer at the identity must be the identity matrix"),
    ([np.eye(3), 1j * np.roll(np.eye(3), 1, axis=0), -np.roll(np.eye(3), 2, axis=0)],
     "not multiplicative at (1, 2); projective phases are not allowed"),  # U_1 U_2 = -i I
])
def test_finite_action_refusals(mats, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        IsometricAction(cyclic_group(3), unitaries=mats)


def test_modulus_within_the_tolerance_is_accepted():
    near = np.diag([1.0, 1.0 + 4e-13, 1.0])  # every product stays within 1e-12 of the table
    mats = [np.eye(3), near, near]
    assert IsometricAction(cyclic_group(3), unitaries=mats).base_dim == 3


def test_finite_action_table_matches_each_implementers_pair():
    group, signed = _sym3_signed_permutations()
    for g, mats in [(cyclic_group(6), _diagonal_phases(6, 3)), (group, signed),
                    (cyclic_group(4), [np.linalg.matrix_power(1j * _shift(4), s) for s in range(4)])]:
        act = IsometricAction(g, unitaries=mats)
        for s, u in enumerate(mats):
            perm, phase = _phased_pair(np.asarray(u, dtype=complex))
            assert np.array_equal(act._perm[s], perm)
            assert np.array_equal(act._phase[s], phase)
            assert np.array_equal(act.unitary(s), u)


@pytest.mark.parametrize("n, k", [(2, 1), (7, 3), (12, 5), (12, -1)])
def test_rotation_implementers_are_the_shift_powers(n, k):
    shift = np.zeros((n, n), dtype=complex)
    shift[(np.arange(n) - k) % n, np.arange(n)] = 1.0
    act = cyclic_coordinate_rotation(n, k)
    for s in range(n):
        assert np.array_equal(act.unitary(s), np.linalg.matrix_power(shift, s))


def _binary_power(u, s):
    """(perm, phase) of U^s by the binary loop the tables must reproduce:
    square U (or U^{-1}) and multiply in the power of each set bit, lowest
    bit first, starting from the identity."""
    perm, phase = np.arange(len(u)), np.ones(len(u), dtype=complex)
    base = _phased_pair(u if s >= 0 else u.conj().T)
    k = abs(s)
    while k:
        if k & 1:
            perm, phase = base[0][perm], phase * base[1][perm]
        base = base[0][base[0]], base[1] * base[1][base[0]]
        k >>= 1
    return perm, phase


def _random_phased(rng, d, n=None):
    """A random phased permutation of size d; given n, one whose n-th power
    is I: every cycle length divides n, and each cycle's phase product is an
    (n / length)-th root of unity."""
    u = np.zeros((d, d), dtype=complex)
    order = rng.permutation(d)
    start = 0
    while start < d:
        lengths = [m for m in range(1, d - start + 1) if n is None or n % m == 0]
        cycle = order[start:start + int(rng.choice(lengths))]
        phases = np.exp(2j * np.pi * rng.random(len(cycle)))
        if n is not None:
            turns = rng.integers(n // len(cycle)) * len(cycle) / n
            phases[0] *= np.exp(2j * np.pi * turns) / np.prod(phases)
        u[cycle, np.roll(cycle, -1)] = phases
        start += len(cycle)
    return u


def _assert_rows_are_binary_powers(u, elements, perm, phase):
    for s, row_perm, row_phase in zip(elements, perm, phase):
        want_perm, want_phase = _binary_power(u, int(s))
        assert np.array_equal(row_perm, want_perm), s
        assert np.array_equal(row_phase.view(float), want_phase.view(float)), s


def test_cyclic_power_table_is_the_binary_power_of_each_element_bit_for_bit():
    rng = np.random.default_rng(29)
    for n in (1, 2, 3, 7, 8, 12, 31, 64):
        for d in range(1, 6):
            u = _random_phased(rng, d, n)
            act = IsometricAction(cyclic_group(n), generator=u)
            _assert_rows_are_binary_powers(u, range(n), act._perm, act._phase)


def test_z_power_table_is_the_binary_power_of_each_element_bit_for_bit():
    rng = np.random.default_rng(31)
    for d, reach in ((1, 1000), (3, 1000), (5, 700), (2, 1)):
        u = _random_phased(rng, d)
        act = IsometricAction(ZWindow(0), generator=u)
        window = np.arange(-reach, reach + 1)
        _assert_rows_are_binary_powers(u, window, *act._pair(window))
        # beyond the cap on the table, each element is its own binary power
        far = np.array([-(crossed._TABLE_ENTRIES // d), crossed._TABLE_ENTRIES // d + 3])
        _assert_rows_are_binary_powers(u, far, *act._pair(far))


def test_a_z_action_assigns_nothing_after_construction():
    act = IsometricAction(ZWindow(0), generator=np.exp(0.3j) * _shift(3))
    before = dict(vars(act))
    far = crossed._TABLE_ENTRIES // 3
    for s in (1, -7, np.arange(-40, 41), np.array([-far, far]), 2):
        act._pair(s)
        act.apply(s, np.eye(3))
    assert vars(act).keys() == before.keys()
    assert all(vars(act)[name] is value for name, value in before.items())


def test_cyclic_generator_whose_power_is_not_the_identity_is_refused():
    # (e^{2 pi i 0.3} S)^5 = e^{3 pi i} I = -I, so it implements no action of Z/5
    with pytest.raises(ValueError, match=re.escape("power 5 is not the identity")):
        IsometricAction(cyclic_group(5), generator=np.exp(2j * np.pi * 0.3) * _shift(5))


def test_each_way_of_giving_an_action_needs_its_carrier():
    group, mats = _sym3_signed_permutations()
    with pytest.raises(ValueError, match="only on a cyclic carrier"):
        IsometricAction(group, generator=mats[1])
    with pytest.raises(ValueError, match="only for a finite carrier"):
        IsometricAction(ZWindow(0), unitaries=[np.eye(2)])
    with pytest.raises(ValueError, match="implementers or a generator"):
        IsometricAction(cyclic_group(2))


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


def _translations(group):
    """lambda(s) for every element s of a finite group, as v(s) builds it."""
    rep = CovariantRep(ConcreteAlgebra(1), trivial_action(group, 1), 2.0)
    return [rep.translation(s) for s in group.elements()]


def test_translation_is_the_shift():
    # on Z/3 the translation by 1 sends basis vector t to t+1
    lam = _translations(cyclic_group(3))[1]
    expected = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=float)
    assert np.array_equal(lam.real, expected)
    assert np.all(lam.imag == 0.0)


def test_translation_multiplies():
    for group in (cyclic_group(7), *_table_test_groups()):
        lam = _translations(group)
        for s, t in np.ndindex(group.order, group.order):
            assert np.array_equal(lam[s] @ lam[t], lam[group.op(s, t)])


def test_translation_adjoint_is_the_inverse_translation_exactly():
    for group in (*(cyclic_group(n) for n in range(1, 9)), _table_test_groups()[0]):  # the last is Klein's
        lam = _translations(group)
        assert all(np.array_equal(lam[s].conj().T, lam[group.inv(s)]) for s in group.elements())


def test_translation_on_window_is_truncated_shift():
    rep = CovariantRep(ConcreteAlgebra(1), trivial_action(ZWindow(1), 1), 2.0)
    assert rep.positions == [-1, 0, 1]
    expected = np.zeros((3, 3))
    expected[1, 0] = expected[2, 1] = 1.0
    assert np.array_equal(rep.translation(1).real, expected)


def test_z_representation_of_radius_zero_is_refused():
    action = trivial_action(ZWindow(0), 1)
    for radius in (None, 0):
        with pytest.raises(ValueError, match="positive window radius"):
            CovariantRep(ConcreteAlgebra(1), action, 2.0, window_radius=radius)


def test_a_window_radius_that_is_not_an_integer_is_refused():
    # window_radius=1.7 used to run at radius 1
    action = trivial_action(ZWindow(0), 1)
    with pytest.raises(ValueError, match="^window radius must be an integer, got 1.7"):
        CovariantRep(ConcreteAlgebra(1), action, 2.0, window_radius=1.7)


@pytest.mark.parametrize("n, k, name", [
    (5, 1.5, "rotation step k"),  # used to raise a bare IndexError
    (4.5, 1, "rotation grid size n"),  # used to raise a TypeError that named nothing
])
def test_a_rotation_takes_integer_arguments(n, k, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        cyclic_coordinate_rotation(n, k)
    assert cyclic_coordinate_rotation(np.int64(5), np.int64(2)).carrier.order == 5


@pytest.mark.parametrize("base_dim", [1.5, 2.0, True])
def test_an_algebra_dimension_must_be_an_integer(base_dim):
    with pytest.raises(ValueError, match="^base_dim must be an integer, got "):
        ConcreteAlgebra(base_dim)
    assert ConcreteAlgebra(np.int64(2)).base_dim == 2


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


def test_integrated_and_convolution_refuse_an_element_of_another_group():
    # both once checked the dimension only: a rotation of Z/4 read delta_7
    # over Z as delta_3, and convolved elements over Z/6 with Z/4's table
    rotation = cyclic_coordinate_rotation(4, 1)
    over_z = CcElement.delta(ZWindow(1), 7, base_dim=4)
    with pytest.raises(ValueError, match=re.escape("over ZWindow(radius=1) on a representation of CyclicGroup(order=4)")):
        CovariantRep(ConcreteAlgebra(4), rotation, 2.0).integrated(over_z)
    over_z6 = CcElement.delta(cyclic_group(6), 5, base_dim=4)
    over_z4 = CcElement.delta(rotation.carrier, 1, base_dim=4)
    for f, g in ((over_z6, over_z4), (over_z4, over_z6), (over_z, over_z4)):
        with pytest.raises(ValueError, match=re.escape(f"under an action of {rotation.carrier!r}")):
            twisted_convolve(f, g, rotation)
    # Z windows of any radius carry one group
    assert twisted_convolve(over_z, over_z, trivial_action(ZWindow(3), 4)).support == (14,)


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

@pytest.mark.parametrize("key", [1.5, 1.0, "1", True])
def test_cc_element_group_elements_must_be_integers(key):
    # {1.5: I} used to become the element with support (1,)
    with pytest.raises(ValueError, match="^group element must be an integer, got "):
        CcElement(ZWindow(0), {key: np.eye(1)})
    assert CcElement(ZWindow(0), {np.int64(1): np.eye(1)}).support == (1,)


def test_cc_element_prunes_zero_coefficients():
    carrier = cyclic_group(4)
    f = CcElement(carrier, {0: np.eye(2, dtype=complex), 1: np.zeros((2, 2), dtype=complex)})
    assert f.support == (0,)


@pytest.mark.parametrize("k", [-60, -50, 50])
def test_scaled_elements_keep_their_support_and_scale_their_norm_exactly(k):
    # a coefficient is kept whenever it is nonzero, so 2^k f has the support
    # of f however small its terms, and its reduced norm is 2^k times f's
    rng = np.random.default_rng(61)

    def gauss(d):
        return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))

    zw, z6 = ZWindow(0), cyclic_group(6)
    cases = [
        (CcElement(zw, {-1: gauss(2), 0: gauss(2), 2: gauss(2)}),
         CovariantRep(ConcreteAlgebra(2), trivial_action(zw, 2), 1.5, window_radius=5)),
        (CcElement(z6, {0: gauss(6), 1: gauss(6), 4: gauss(6)}),
         CovariantRep(ConcreteAlgebra(6), cyclic_coordinate_rotation(6, 1), 3.0)),
    ]
    for f, rep in cases:
        scaled = 2.0**k * f
        assert scaled.support == f.support
        assert reduced_norm(scaled, rep).value == 2.0**k * reduced_norm(f, rep).value


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
    for z, finite in ((ZWindow(1), cyclic_group(6)), (ZWindow(6), cyclic_group(6))):
        with pytest.raises(ValueError, match="different carriers"):
            _ = CcElement.delta(z, 1, base_dim=1) + CcElement.delta(finite, 1, base_dim=1)
        with pytest.raises(ValueError, match="different carriers"):
            _ = CcElement.delta(finite, 1, base_dim=1) + CcElement.delta(z, 1, base_dim=1)


@pytest.mark.parametrize("left, right", [(ZWindow(1), ZWindow(2)), (cyclic_group(6), cyclic_group(6))],
                         ids=["Z radii 1 and 2", "two Z/6"])
def test_cc_elements_over_one_group_add_on_the_left_carrier(left, right):
    # a Z window's radius is only its default representation window, and two
    # separately built Z/6 are the same group
    assert left is not right
    total = CcElement.delta(left, 1, base_dim=1) + CcElement.delta(right, 1, 2.0 * np.eye(1))
    assert total.carrier is left
    assert total.support == (1,) and total.coeff(1)[0, 0] == 3.0
    assert (CcElement.delta(right, 0, base_dim=1) - CcElement.delta(left, 0, base_dim=1)).carrier is right


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
