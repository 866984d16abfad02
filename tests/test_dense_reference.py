"""The array paths of crossed and nuclearity against dense references.

Every reference here builds the implementers U_s as dense matrices, applies
alpha_s(a) = U_s a U_s^H by matrix products, and assembles blocks one at a
time from the definitions.  Actions whose phases are real or in
{1, -1, i, -i} must agree bit for bit; other phases within 1e-13.
"""

import numpy as np
import pytest

from lpalg import (
    CcElement,
    ConcreteAlgebra,
    CovariantRep,
    FolnerSet,
    IsometricAction,
    ZWindow,
    cyclic_group,
    folner_phi,
    folner_psi,
    random_cc_element,
)
from lpalg.opspace import split_blocks

NONREAL_TOL = 1e-13


def _shift(d):
    return np.roll(np.eye(d, dtype=complex), 1, axis=0)


def _finite_case(n, gen_mat):
    mats = [np.linalg.matrix_power(gen_mat, s) for s in range(n)]
    return IsometricAction(cyclic_group(n), unitaries=mats), dict(enumerate(mats))


def _z_case(gen_mat, radius):
    powers = {}
    for s in range(-2 * radius - 2, 2 * radius + 3):
        base = gen_mat if s >= 0 else gen_mat.conj().T
        powers[s] = np.linalg.matrix_power(base, abs(s))
    return IsometricAction(ZWindow(radius), generator=gen_mat), powers


def _cases():
    """(label, action, dense implementers by element, exact?) on Z/n and Z."""
    phases = np.exp(2j * np.pi * np.array([0.13, 0.71, 0.38]))
    sixth = np.exp(2j * np.pi / 6)
    return [
        ("Z/5 permutation", *_finite_case(5, np.linalg.matrix_power(_shift(5), 2)), True),
        ("Z/4 i-shift", *_finite_case(4, 1j * _shift(4)), True),
        ("Z/6 rotated shift", *_finite_case(6, sixth * _shift(3)), False),
        ("Z permutation", *_z_case(_shift(3), 4), True),
        ("Z signed", *_z_case(np.diag([1.0, -1.0, 1j]) @ _shift(3), 4), True),
        ("Z phased", *_z_case(np.diag(phases) @ _shift(3), 4), False),
    ]


CASES = _cases()
IDS = [c[0] for c in CASES]


def _assert_agrees(got, want, exact):
    if exact:
        assert np.array_equal(got, want)
    else:
        assert np.abs(got - want).max(initial=0.0) <= NONREAL_TOL


def _dense_apply(units, s, a):
    u = units[s]
    return u @ np.asarray(a, dtype=complex) @ u.conj().T


def _dense_pi(rep, units, a):
    d, nt = rep.base_dim, len(rep.positions)
    out = np.zeros((nt * d, nt * d), dtype=complex)
    for i, t in enumerate(rep.positions):
        out[i * d : (i + 1) * d, i * d : (i + 1) * d] = _dense_apply(units, rep.carrier.inv(t), a)
    return out


def _dense_v(rep, s):
    nt = len(rep.positions)
    trans = np.zeros((nt, nt), dtype=complex)
    for j, t in enumerate(rep.positions):
        target = rep.carrier.op(s, t)
        if target in rep.positions:
            trans[rep.positions.index(target), j] = 1.0
    return np.kron(trans, np.eye(rep.base_dim, dtype=complex))


def _dense_integrated(rep, units, f):
    out = np.zeros((rep.dimension, rep.dimension), dtype=complex)
    for s, a in f.items():
        out = out + _dense_pi(rep, units, a) @ _dense_v(rep, s)
    return out


def _rep(action):
    radius = 4 if isinstance(action.carrier, ZWindow) else None
    return CovariantRep(ConcreteAlgebra(action.base_dim), action, 1.5, window_radius=radius)


def _element(rng, action):
    if isinstance(action.carrier, ZWindow):
        return random_cc_element(rng, action.carrier, action.base_dim, n_terms=3, max_shift=3)
    return random_cc_element(rng, action.carrier, action.base_dim, n_terms=3)


def _folner(action):
    if isinstance(action.carrier, ZWindow):
        return FolnerSet(action.carrier, tuple(range(-1, 3)))
    return FolnerSet(action.carrier, (0, 1, 3))


@pytest.mark.parametrize("label, action, units, exact", CASES, ids=IDS)
def test_apply_matches_dense_conjugation(label, action, units, exact):
    rng = np.random.default_rng(0)
    d = action.base_dim
    elems = [s for s in units if abs(s) <= 9]
    stack = rng.standard_normal((len(elems), d, d)) + 1j * rng.standard_normal((len(elems), d, d))
    want = np.stack([_dense_apply(units, s, a) for s, a in zip(elems, stack)])
    for s, a, w in zip(elems, stack, want):
        _assert_agrees(action.apply(s, a), w, exact)
        _assert_agrees(action.unitary(s), units[s], exact)
    _assert_agrees(action.apply(np.array(elems), stack), want, exact)
    _assert_agrees(action.apply(np.array(elems), stack[0]),
                   np.stack([_dense_apply(units, s, stack[0]) for s in elems]), exact)


@pytest.mark.parametrize("label, action, units, exact", CASES, ids=IDS)
def test_integrated_matches_dense_sum(label, action, units, exact):
    rng = np.random.default_rng(1)
    rep = _rep(action)
    for _ in range(3):
        f = _element(rng, action)
        _assert_agrees(rep.integrated(f), _dense_integrated(rep, units, f), exact)
        a = f.coeff(f.support[0])
        _assert_agrees(rep.pi(a), _dense_pi(rep, units, a), exact)
        assert np.array_equal(rep.v(f.support[-1]), _dense_v(rep, f.support[-1]))


def _loop_folner_phi(f, folner, rep, units):
    d = rep.base_dim
    members = folner.members
    idx = {t: i for i, t in enumerate(members)}
    op, inv = rep.carrier.op, rep.carrier.inv
    out = np.zeros((folner.size * d, folner.size * d), dtype=complex)
    for s, a in f.items():
        s_inv = inv(s)
        for r in members:
            j = idx.get(op(s_inv, r))
            if j is None:
                continue
            i = idx[r]
            out[i * d : (i + 1) * d, j * d : (j + 1) * d] = _dense_apply(units, inv(r), a)
    return out


def _combine_terms(terms, size):
    first = terms[0]
    if all(x is first or np.array_equal(x, first) for x in terms[1:]):
        return first * (len(terms) / size)
    total = first.copy()
    for x in terms[1:]:
        total += x
    return total / size


def _loop_folner_psi(m, folner, rep, units):
    d = rep.base_dim
    k = folner.size
    blocks = split_blocks(np.asarray(m, dtype=complex), k, d)
    op, inv = rep.carrier.op, rep.carrier.inv
    terms = {}
    for i, s in enumerate(folner.members):
        for j, t in enumerate(folner.members):
            if not blocks[i, j].any():
                continue
            u = op(s, inv(t))
            terms.setdefault(u, []).append(_dense_apply(units, s, blocks[i, j]))
    coeffs = {u: _combine_terms(lst, k) for u, lst in terms.items()}
    return _dense_integrated(rep, units, CcElement(rep.carrier, coeffs, base_dim=d))


@pytest.mark.parametrize("label, action, units, exact", CASES, ids=IDS)
def test_folner_phi_matches_block_formula(label, action, units, exact):
    rng = np.random.default_rng(2)
    rep = _rep(action)
    folner = _folner(action)
    for _ in range(3):
        f = _element(rng, action)
        _assert_agrees(folner_phi(f, folner, rep), _loop_folner_phi(f, folner, rep, units), exact)


@pytest.mark.parametrize("label, action, units, exact", CASES, ids=IDS)
def test_folner_psi_matches_block_loop(label, action, units, exact):
    rng = np.random.default_rng(3)
    rep = _rep(action)
    folner = _folner(action)
    dim = folner.size * rep.base_dim
    inputs = [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))]
    inputs.append(folner_phi(_element(rng, action), folner, rep))  # identical summands
    sparse = inputs[0].copy()
    sparse[: rep.base_dim] = 0.0  # a row of zero blocks is skipped
    inputs.append(sparse)
    inputs.append(np.zeros((dim, dim), dtype=complex))
    for m in inputs:
        _assert_agrees(folner_psi(m, folner, rep), _loop_folner_psi(m, folner, rep, units), exact)
