"""The array and stacked paths of the library against loop references.

The crossed and nuclearity references build the implementers U_s as dense
matrices, apply alpha_s(a) = U_s a U_s^H by matrix products, and assemble
blocks one at a time from the definitions.  Actions whose phases are real
or in {1, -1, i, -i} must agree bit for bit; other phases within 1e-13.

The stacked p-norm kernel is checked against the one-matrix dual power
iteration, and the stacked rounds of ``cb_norm_lower`` against the
one-input-at-a-time ascent; both must agree bit for bit.  The estimators answer monomial
matrices in closed form, max |a_ij|, and so do the references.  Matrices
that are nonnegative up to phases (a reference below decides which) take
the positive iteration instead; the kernel still iterates them, so every
member of every stack keeps its bit-for-bit comparison.
"""

import math

import numpy as np
import pytest

from lpalg import crossed, lpnorm, opspace
from lpalg.crossed import (
    CcElement,
    ConcreteAlgebra,
    CovariantRep,
    IsometricAction,
    compress_identity_check,
    random_cc_element,
)
from lpalg.groups import FolnerSet, ZWindow, cyclic_group, group_from_table
from lpalg.lpnorm import pnorm_estimate, pnorm_estimate_stack, vector_pnorm
from lpalg.nuclearity import (
    folner_phi,
    folner_phi_map,
    folner_psi,
    folner_psi_map,
    truncate_map,
)
from lpalg.opspace import (
    LinearMap,
    _default_level_inputs,
    _gaussian_sampler,
    apply_amplified,
    cb_norm_lower,
    compression,
    split_blocks,
)

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


def test_identity_off_index_zero_matches_the_dense_references():
    # Z/3 relabelled x -> (x + 2) % 3, so the identity is element 2
    label = [2, 0, 1]
    mult = np.empty((3, 3), dtype=int)
    for a in range(3):
        for b in range(3):
            mult[label[a], label[b]] = label[(a + b) % 3]
    group = group_from_table(mult)
    assert group.identity == 2
    gen = np.diag([1.0, 1j, -1j]) @ _shift(3)  # phases multiply to 1, so gen^3 = I
    units = {label[x]: np.linalg.matrix_power(gen, x) for x in range(3)}
    action = IsometricAction(group, unitaries=[units[s] for s in range(3)])
    rep = _rep(action)
    assert rep.position_index(rep.identity_position) == 2
    rng = np.random.default_rng(4)
    folner = FolnerSet(group, (0, 2))
    for _ in range(3):
        f = _element(rng, action)
        dense = _dense_integrated(rep, units, f)
        assert np.array_equal(rep.integrated(f), dense)
        check = compress_identity_check(rep, f)
        proj = np.kron(np.diag([0.0, 0.0, 1.0]), np.eye(3)).astype(complex)
        assert np.array_equal(check["lhs"], proj @ dense @ proj)
        assert np.array_equal(check["lhs"][6:, 6:], f.coeff(2))
        assert check["max_abs_diff"] == 0.0
        assert np.array_equal(folner_phi(f, folner, rep), _loop_folner_phi(f, folner, rep, units))
        m = folner_phi(f, folner, rep)
        assert np.array_equal(folner_psi(m, folner, rep), _loop_folner_psi(m, folner, rep, units))


Z_CASES = [c for c in CASES if isinstance(c[1].carrier, ZWindow)]


def _pair_bits(pair):
    perm, phase = pair
    return perm.tolist(), np.ascontiguousarray(phase).view(np.uint64).tolist()


@pytest.mark.parametrize("label, action, units, exact", Z_CASES, ids=[c[0] for c in Z_CASES])
def test_power_table_growth_keeps_every_bit(monkeypatch, label, action, units, exact):
    # a call tabulates the powers up to its own reach; beyond the cap on a
    # table each element is raised on its own, to the same bits
    action, dense = _z_case(units[1], 19)  # dense powers for |s| <= 40
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    grid = np.array([[-40, 3], [0, 39]])
    stack = rng.standard_normal((2, 2, 3, 3)) + 1j * rng.standard_normal((2, 2, 3, 3))
    elements = (-40, -7, -1, 0, 1, 6, 40, np.int64(-13), np.arange(-40, 41), grid)
    tabled = [(_pair_bits(action._pair(s)), _bits(action.apply(s, a))) for s in elements]
    for s in range(-40, 41):
        _assert_agrees(action.unitary(s), dense[s], exact)
        _assert_agrees(action.apply(s, a), _dense_apply(dense, s, a), exact)
    want = np.stack([[_dense_apply(dense, s, m) for s, m in zip(row, ms)] for row, ms in zip(grid, stack)])
    _assert_agrees(action.apply(grid, stack), want, exact)
    monkeypatch.setattr(crossed, "_TABLE_ENTRIES", 3 * 21)  # |s| > 10 is not tabulated
    for s, (pair, moved) in zip(elements, tabled):
        assert _pair_bits(action._pair(s)) == pair
        assert np.array_equal(_bits(action.apply(s, a)), moved)


# ---------------------------------------------------------------------------
# the stacked p-norm kernel against the one-matrix dual power iteration
# ---------------------------------------------------------------------------


def _ref_column_pnorms(y, p):
    mags = np.abs(y)
    tops = mags.max(axis=0, keepdims=True)
    safe = np.where(tops > 0.0, tops, 1.0)
    return np.squeeze(safe, axis=0) * ((mags / safe) ** p).sum(axis=0) ** (1.0 / p)


def _ref_signs(y, mags):
    # y / |y| overflows in 1 / |y| for moduli at or below 2^-1024, so those
    # entries are scaled by 2^1022 (exactly) before dividing
    signs = np.zeros_like(y)
    normal = mags > 2.0**-1024
    signs[normal] = y[normal] / mags[normal]
    tiny = ~normal & (mags > 0.0)
    scaled = y[tiny] * 2.0**1022
    signs[tiny] = scaled / np.abs(scaled)
    return signs


def _ref_dual_columns(y, p):
    mags = np.abs(y)
    tops = mags.max(axis=0)
    safe = np.where(tops > 0.0, tops, 1.0)
    return _ref_signs(y, mags) * (mags / safe) ** (p - 1.0)


def _ref_normalize_columns(x, p):
    norms = _ref_column_pnorms(x, p)
    return x / np.where(norms > 0.0, norms, 1.0)


def _ref_pnorm_estimate(a, p, *, restarts=32, max_iters=100, tol=1e-10, rng=None):
    """The dual power iteration on one matrix, one restart per column:
    (value, witness, converged, iterations) for 1 < p < inf, p != 2."""
    q = p / (p - 1.0)
    arr = np.asarray(a, dtype=complex)
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(0 if rng is None else rng)
    n = arr.shape[1]
    e = math.frexp(float(np.abs(arr).max()))[1] - 1
    if e:
        arr = arr * math.ldexp(1.0, -e // 2) * math.ldexp(1.0, -e - (-e // 2))
    x = gen.standard_normal((n, restarts)) + 1j * gen.standard_normal((n, restarts))
    x[:, 0] = 1.0
    x = _ref_normalize_columns(x, p)
    a_h = arr.conj().T
    best_val, best_witness, best_col = -np.inf, x[:, 0].copy(), 0
    prev_vals = np.full(restarts, -np.inf)
    stagnant = np.zeros(restarts, dtype=bool)
    iterations = 0
    for iterations in range(1, max_iters + 1):
        y = arr @ x
        vals = _ref_column_pnorms(y, p)
        top = int(np.argmax(vals))
        if vals[top] > best_val:
            best_val, best_witness, best_col = float(vals[top]), x[:, top].copy(), top
        stagnant |= np.abs(vals - prev_vals) <= tol * vals
        prev_vals = vals
        if stagnant.all():
            break
        z = a_h @ _ref_dual_columns(y, p)
        x_next = _ref_normalize_columns(_ref_dual_columns(z, q), p)
        dead = _ref_column_pnorms(x_next, p) == 0.0
        if dead.any():
            x_next[:, dead] = x[:, dead]
            stagnant |= dead
        x = x_next
    if best_val <= 0.0:
        witness = np.zeros(n, dtype=complex)
        witness[0] = 1.0
        return 0.0, witness, True, iterations
    witness = best_witness / vector_pnorm(best_witness, p)
    value = math.ldexp(vector_pnorm(arr @ witness, p), e)
    return value, witness, bool(stagnant[best_col]), iterations


def _bits(x):
    return np.ascontiguousarray(np.asarray(x, dtype=complex)).view(np.uint64)


def _is_monomial(a):
    nz = np.asarray(a) != 0
    return bool(nz.sum(axis=0).max() <= 1 and nz.sum(axis=1).max() <= 1)


def _ref_monomial(a):
    """The closed form of a monomial matrix: max |a_ij| and e_j for the
    column of its first largest modulus (e_0 for the zero matrix)."""
    mags = np.abs(np.asarray(a, dtype=complex))
    witness = np.zeros(mags.shape[1], dtype=complex)
    witness[int(np.argmax(mags)) % mags.shape[1]] = 1.0
    return float(mags.max()), witness, True


def _ref_value(a, p, **opts):
    """The reference estimate's value, in closed form on monomial matrices."""
    return _ref_monomial(a)[0] if _is_monomial(a) else _ref_pnorm_estimate(a, p, **opts)[0]


def _ref_phases(a, tol=2.0**-26):
    """(d1, d2) with a_ij = d1_i |a_ij| d2_j on every nonzero, or None: each
    nonzero row without a phase starts at phase 1, and phases spread along
    nonzeros until none changes."""
    a = np.asarray(a, dtype=complex)
    nz = np.abs(a) > 0.0
    signs = _ref_signs(a, np.abs(a))
    d1, d2 = [None] * a.shape[0], [None] * a.shape[1]
    edges = list(zip(*np.nonzero(nz)))
    for root in range(a.shape[0]):
        if d1[root] is not None or not nz[root].any():
            continue
        d1[root], changed = 1.0, True
        while changed:
            changed = False
            for i, j in edges:
                if d1[i] is not None and d2[j] is None:
                    d2[j], changed = signs[i, j] * np.conj(d1[i]), True
                elif d1[i] is None and d2[j] is not None:
                    d1[i], changed = signs[i, j] * np.conj(d2[j]), True
    if any(abs(signs[i, j] - d1[i] * d2[j]) > tol for i, j in edges):
        return None
    return d1, d2


def _assert_estimate_bits(est, value, witness, converged):
    assert np.float64(est.value).view(np.uint64) == np.float64(value).view(np.uint64)
    assert np.array_equal(_bits(est.witness), _bits(witness))
    assert est.converged == converged


def _assert_positive_estimate(est, a, p, kernel_value):
    """A positive-iteration estimate: a certified unit witness, and a value
    at least the kernel's, within 1e-9 when converged and 1e-5 otherwise."""
    assert (est.method, est.restarts_used) == ("positive-iteration", 1)
    assert vector_pnorm(est.witness, p) == pytest.approx(1.0, abs=1e-14)
    assert vector_pnorm(np.asarray(a) @ est.witness, p) == pytest.approx(est.value, rel=1e-13)
    assert est.value >= kernel_value * (1.0 - (1e-9 if est.converged else 1e-5))


def _assert_kernel_matches(stack, p, seeds, **opts):
    # the kernel iterates every member, monomial and nonnegative ones
    # included; the stacked and one-matrix calls answer those in closed
    # form or by the positive iteration and iterate the rest
    opts = {"restarts": 32, "max_iters": 100, "tol": 1e-10, **opts}
    kernel = lpnorm._power_iteration(np.array(stack, dtype=complex), lpnorm.as_exponent(p), opts["restarts"],
                                     opts["max_iters"], opts["tol"], [np.random.default_rng(s) for s in seeds])
    got = pnorm_estimate_stack(stack, p, rngs=seeds, **opts)
    assert len(kernel) == len(got) == len(stack)
    for ker, est, a, seed in zip(kernel, got, stack, seeds):
        value, witness, converged, _ = _ref_pnorm_estimate(a, p, rng=np.random.default_rng(seed), **opts)
        _assert_estimate_bits(ker, value, witness, converged)
        if _is_monomial(a):
            assert (est.method, est.restarts_used) == ("exact", 0)
            _assert_estimate_bits(est, *_ref_monomial(a))
        elif _ref_phases(a) is not None:
            _assert_positive_estimate(est, a, p, ker.value)
        else:
            _assert_estimate_bits(est, ker.value, ker.witness, ker.converged)
        one = pnorm_estimate(a, p, rng=np.random.default_rng(seed), **opts)
        assert (one.value, one.converged, one.method) == (est.value, est.converged, est.method)
        assert np.array_equal(_bits(one.witness), _bits(est.witness))


def _gaussian_stack(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 4.0])
@pytest.mark.parametrize("count", [1, 7])
def test_stacked_kernel_matches_one_matrix_loop(count, p):
    rng = np.random.default_rng(40)
    stack = _gaussian_stack(rng, (count, 9, 9))
    _assert_kernel_matches(stack, p, list(range(count)), restarts=6, max_iters=60, tol=1e-11)


@pytest.mark.parametrize("shape", [(7, 5, 11), (4, 13, 3), (3, 1, 6), (3, 6, 1)])
def test_stacked_kernel_matches_on_rectangular_stacks(shape):
    stack = _gaussian_stack(np.random.default_rng(41), shape)
    _assert_kernel_matches(stack, 3.0, [5 * b for b in range(shape[0])], restarts=4, max_iters=50)


def test_stacked_kernel_handles_zero_matrices_and_zero_columns():
    rng = np.random.default_rng(42)
    stack = _gaussian_stack(rng, (5, 8, 8))
    # a zero matrix: every dual step is zero, so each column is kept and
    # marked stagnant, and the result is 0 with the first basis vector
    stack[1] = 0.0
    stack[2][:, ::2] = 0.0  # zero columns
    stack[3][:, 1:] = 0.0  # a single live column
    _assert_kernel_matches(stack, 1.5, [1, 2, 3, 4, 5], restarts=5, max_iters=40)
    assert pnorm_estimate_stack(stack, 1.5, rngs=[0] * 5)[1].value == 0.0


def test_stacked_kernel_members_stop_at_different_iterations():
    rng = np.random.default_rng(43)
    stack = _gaussian_stack(rng, (6, 10, 10))
    stack[0] = np.diag(np.arange(1.0, 11.0))  # stagnates within a few steps
    stack[3] = np.eye(10)
    stack[4] = np.outer(np.ones(10), np.arange(10.0))  # rank one
    counts = {_ref_pnorm_estimate(a, 4.0, restarts=5, max_iters=200, rng=seed)[3] for seed, a in enumerate(stack)}
    assert len(counts) > 2
    _assert_kernel_matches(stack, 4.0, list(range(6)), restarts=5, max_iters=200)
    _assert_kernel_matches(stack, 4.0, list(range(6)), restarts=5, max_iters=7)


def test_stacked_kernel_scales_each_member_by_its_own_exponent():
    rng = np.random.default_rng(44)
    scales = np.array([1e-300, 1e-150, 1e-12, 1.0, 1e12, 1e150, 1e300])
    stack = _gaussian_stack(rng, (7, 6, 6)) * scales[:, None, None]
    kept = stack.copy()
    _assert_kernel_matches(stack, 1.5, list(range(7)), restarts=5, max_iters=60)
    _assert_kernel_matches(list(stack), 3.0, list(range(7)), restarts=5, max_iters=60)
    assert np.array_equal(_bits(stack), _bits(kept))  # an array stack is never scaled in place


def test_stacked_kernel_matches_with_moduli_below_2_to_the_minus_1024(monkeypatch):
    # rows or columns of size 1e-310 next to entries of size 1 put moduli
    # below 2^-1024 into y = A x or into A* u, where the sign divide overflows
    rng = np.random.default_rng(46)
    stack = _gaussian_stack(rng, (4, 5, 5))
    stack[0] = np.diag([1.0, 1e-310, 1.0, 2.0, 1e-310j])
    stack[1][2] *= 1e-310
    stack[2][:, 3] *= 1e-310
    stack[3] = np.where(np.abs(stack[3]) > 1.0, stack[3], 1e-310 * stack[3])
    tiny = []
    signs = lpnorm._signs

    def recording(y, mags):
        tiny.append(bool(((mags > 0.0) & (mags <= 2.0**-1024)).any()))
        return signs(y, mags)

    monkeypatch.setattr(lpnorm, "_signs", recording)
    for p in (1.5, 3.0):
        _assert_kernel_matches(stack, p, [3, 4, 5, 6], restarts=6, max_iters=60)
    assert any(tiny)


def test_stacked_kernel_repairs_dead_columns_while_members_leave():
    # the rows of stack[2] sum to zero exactly, so the deterministic start
    # (all ones) is in its kernel: column 0 is dead from the first step on,
    # while the other members stop at different iterations
    rng = np.random.default_rng(47)
    stack = _gaussian_stack(rng, (5, 8, 8))
    stack[0] = np.diag(np.arange(1.0, 9.0))
    stack[1] = np.outer(np.ones(8), np.arange(8.0))
    ints = rng.integers(-3, 4, size=(8, 7)).astype(float)
    stack[2] = np.concatenate([ints, -ints.sum(axis=1, keepdims=True)], axis=1)
    stack[3] = np.eye(8)
    assert not (stack[2] @ np.ones(8)).any()
    counts = [_ref_pnorm_estimate(a, 4.0, restarts=5, max_iters=200, rng=seed)[3] for seed, a in enumerate(stack)]
    assert len(set(counts)) > 2 and counts[2] > min(counts)
    _assert_kernel_matches(stack, 4.0, list(range(5)), restarts=5, max_iters=200)
    _assert_kernel_matches(stack, 1.5, list(range(5)), restarts=5, max_iters=200)


@pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 4.0])
@pytest.mark.parametrize("n", [4, 32, 144])
def test_stacked_kernel_matches_with_default_options(n, p):
    stack = _gaussian_stack(np.random.default_rng([48, n]), (2, n, n))
    _assert_kernel_matches(stack, p, [n, n + 1])


def test_stacked_kernel_leaves_an_unscaled_array_stack_intact():
    # every largest modulus in [1, 2), so no member needs scaling, and the
    # members finish at different iterations, so the live stack is compacted
    rng = np.random.default_rng(45)
    stack = _gaussian_stack(rng, (6, 10, 10))
    stack[0] = np.diag(np.arange(1.0, 11.0))
    stack[3] = np.eye(10)
    stack[[0, 3], 0, 1] = 0.5  # one off-diagonal entry, so no member has a closed form
    stack[4] = np.outer(np.ones(10), np.arange(10.0))
    stack *= 1.5 / np.abs(stack).max(axis=(1, 2), keepdims=True)
    assert np.all((np.abs(stack).max(axis=(1, 2)) >= 1.0) & (np.abs(stack).max(axis=(1, 2)) < 2.0))
    kept = stack.copy()
    counts = {_ref_pnorm_estimate(a, 4.0, restarts=5, max_iters=200, rng=seed)[3] for seed, a in enumerate(kept)}
    assert len(counts) > 2
    got = pnorm_estimate_stack(stack, 4.0, rngs=list(range(6)), restarts=5, max_iters=200)
    assert np.array_equal(_bits(stack), _bits(kept))
    # members 0, 3 and 4 are nonnegative and take the positive iteration;
    # the kernel, on a copy of the same stack, is held to the reference on all
    kernel = lpnorm._power_iteration(stack.copy(), lpnorm.as_exponent(4.0), 5, 200, 1e-10,
                                     [np.random.default_rng(seed) for seed in range(6)])
    assert [_ref_phases(a) is not None for a in kept] == [True, False, False, True, True, False]
    for seed, (est, ker, a) in enumerate(zip(got, kernel, kept)):
        _assert_estimate_bits(ker, *_ref_pnorm_estimate(a, 4.0, restarts=5, max_iters=200, rng=seed)[:3])
        if seed in (0, 3, 4):
            _assert_positive_estimate(est, a, 4.0, ker.value)
        else:
            _assert_estimate_bits(est, ker.value, ker.witness, ker.converged)


# a stack of one takes the kernel's one-member branch from the first
# iteration on; each case below is a stacked case above, one matrix at a time


def _dead_start_matrix(rng, n):
    # rows summing to zero exactly: the all-ones start is in the kernel
    ints = rng.integers(-3, 4, size=(n, n - 1)).astype(float)
    return np.concatenate([ints, -ints.sum(axis=1, keepdims=True)], axis=1)


@pytest.mark.parametrize("p", [1.5, 4.0])
def test_one_member_kernel_matches_on_zero_matrices_columns_and_dead_starts(p):
    rng = np.random.default_rng(50)
    zero_cols = _gaussian_stack(rng, (8, 8))
    zero_cols[:, ::2] = 0.0
    one_col = _gaussian_stack(rng, (8, 8))
    one_col[:, 1:] = 0.0
    dead = _dead_start_matrix(rng, 8)
    assert not (dead @ np.ones(8)).any()
    for seed, a in enumerate([np.zeros((8, 8), dtype=complex), zero_cols, one_col, dead]):
        _assert_kernel_matches([a], p, [seed], restarts=5, max_iters=200)
    assert _ref_pnorm_estimate(dead, p, restarts=5, max_iters=200)[3] > 2  # the dead start did not end it


def test_one_member_kernel_matches_with_moduli_below_2_to_the_minus_1024(monkeypatch):
    # each matrix alone puts moduli below 2^-1024 into y = A x or A* u
    rng = np.random.default_rng(46)
    stack = _gaussian_stack(rng, (3, 5, 5))
    stack[0] = np.diag([1.0, 1e-310, 1.0, 2.0, 1e-310j])
    stack[1][2] *= 1e-310
    stack[2][:, 3] *= 1e-310
    tiny = []
    signs = lpnorm._signs

    def recording(y, mags):
        tiny.append(bool(((mags > 0.0) & (mags <= 2.0**-1024)).any()))
        return signs(y, mags)

    monkeypatch.setattr(lpnorm, "_signs", recording)
    for p in (1.5, 3.0):
        for seed, a in enumerate(stack):
            tiny.clear()
            _assert_kernel_matches([a], p, [seed + 3], restarts=6, max_iters=60)
            assert any(tiny)


def test_one_member_kernel_scales_by_its_own_exponent():
    rng = np.random.default_rng(44)
    for seed, scale in enumerate([1e-300, 1e-150, 1e-12, 1.0, 1e12, 1e150, 1e300]):
        a = _gaussian_stack(rng, (6, 6)) * scale
        kept = a.copy()
        _assert_kernel_matches([a], 1.5, [seed], restarts=5, max_iters=60)
        _assert_kernel_matches([a], 3.0, [seed], restarts=5, max_iters=60)
        assert np.array_equal(_bits(a), _bits(kept))


@pytest.mark.parametrize("shape", [(1, 6), (6, 1)])
def test_one_member_kernel_matches_on_a_row_and_a_column(shape):
    a = _gaussian_stack(np.random.default_rng(41), shape)
    _assert_kernel_matches([a], 3.0, [5], restarts=4, max_iters=50)


def test_one_member_kernel_matches_at_an_iteration_cap():
    rng = np.random.default_rng(43)
    for seed, a in enumerate(_gaussian_stack(rng, (3, 10, 10))):
        assert _ref_pnorm_estimate(a, 4.0, restarts=5, max_iters=200, rng=seed)[3] > 7
        _assert_kernel_matches([a], 4.0, [seed], restarts=5, max_iters=7)
        assert not pnorm_estimate(a, 4.0, restarts=5, max_iters=7, rng=seed).converged


@pytest.mark.parametrize("p", [1.5, 4.0])
def test_stacked_kernel_matches_as_members_leave_one_by_one(p):
    # the members stop at four different iterations, so the live stack
    # shrinks 4, 3, 2, 1 and the last member ends in the one-member branch
    rng = np.random.default_rng(49)
    stack = _gaussian_stack(rng, (4, 8, 8))
    stack[0] = np.diag(np.arange(1.0, 9.0))
    stack[1] = np.outer(np.ones(8), np.arange(8.0))
    stack[2] = np.eye(8)
    stack[2, 0, 1] = 0.5
    counts = [_ref_pnorm_estimate(a, p, restarts=5, max_iters=200, rng=seed)[3] for seed, a in enumerate(stack)]
    assert len(set(counts)) == 4
    _assert_kernel_matches(stack, p, list(range(4)), restarts=5, max_iters=200)


def test_stacked_kernel_reads_the_right_slot_after_two_members_leave_at_once():
    # the zero members leave together after one iteration, and the Gaussian
    # in slot 2 moves to slot 0 and runs on alone; its estimate is the one
    # of the matrix by itself, bit for bit
    rng = np.random.default_rng(51)
    stack = np.zeros((3, 7, 7), dtype=complex)
    stack[2] = _gaussian_stack(rng, (7, 7))
    counts = [_ref_pnorm_estimate(a, 3.0, restarts=5, max_iters=200, rng=seed)[3] for seed, a in enumerate(stack)]
    assert counts[:2] == [2, 2] and counts[2] > 2
    kernel = lpnorm._power_iteration(stack.copy(), lpnorm.as_exponent(3.0), 5, 200, 1e-10,
                                     [np.random.default_rng(seed) for seed in range(3)])
    alone = pnorm_estimate(stack[2], 3.0, restarts=5, max_iters=200, rng=2)
    assert alone.method == "power-iteration"
    _assert_estimate_bits(kernel[2], alone.value, alone.witness, alone.converged)
    assert [est.value for est in kernel[:2]] == [0.0, 0.0]


def _window_form(seed, radius=22, p=1.5):
    """The integrated form of 0.7 (rank one) delta_0 + 0.3 (phased) delta_1
    on the Z window of the given radius with the trivial action on C^2, of
    dimension 2 (2 radius + 1); its phase cycles do not close."""
    rng = np.random.default_rng(seed)
    u = _gaussian_stack(rng, (2,))
    v = _gaussian_stack(rng, (2,))
    rank_one = np.outer(u / vector_pnorm(u, p), (v / vector_pnorm(v, p / (p - 1.0))).conj())
    phased = np.zeros((2, 2), dtype=complex)
    phased[rng.permutation(2), np.arange(2)] = np.exp(2j * np.pi * rng.random(2))
    carrier = ZWindow(0)
    rep = CovariantRep(ConcreteAlgebra(2), crossed.trivial_action(carrier, 2), p, window_radius=radius)
    return rep.integrated(CcElement(carrier, {0: 0.7 * rank_one, 1: 0.3 * phased}, base_dim=2))


def test_one_member_kernel_matches_on_the_unconverged_window_form():
    # a form like the one witness_line leaves to the restarted kernel: every
    # iteration takes the division-free step on 90 x 32 signs twice and on
    # 32 norms once
    form = _window_form(3)
    assert form.shape == (90, 90)
    est = pnorm_estimate(form, 1.5, rng=0)
    assert (est.method, est.converged) == ("power-iteration", False)
    assert _ref_pnorm_estimate(form, 1.5, rng=0)[3] == 100  # it runs to the cap
    _assert_kernel_matches([form], 1.5, [0])


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_kernel_matches_on_real_matrices_with_zero_imaginary_parts(monkeypatch, p):
    # on a real matrix the deterministic start stays real, so its column
    # reaches the kernel's division-free step with imaginary parts exactly 0
    rng = np.random.default_rng(52)
    a = rng.standard_normal((7, 7))
    zero_parts = []
    divided = lpnorm._divided

    def recording(y, *rest):
        zero_parts.append(int((y.imag == 0.0).sum()))
        return divided(y, *rest)

    monkeypatch.setattr(lpnorm, "_divided", recording)
    _assert_kernel_matches([a], p, [1])
    _assert_kernel_matches(np.stack([a, -a.T, a[::-1]]), p, [1, 2, 3])
    assert all(zero_parts)  # every division-free step saw some


# ---------------------------------------------------------------------------
# the stacked rounds of cb_norm_lower against the one-input-at-a-time ascent
# ---------------------------------------------------------------------------


def _ref_cb_levels(phi, p, n_max, trials, *, rng, sampler=None, ascent_steps=4, restarts=8, max_iters=80):
    """cb_norm_lower's levels with every ratio evaluated on its own."""
    gen = np.random.default_rng(rng)
    d = phi.domain_dim
    opts = {"restarts": restarts + 2, "max_iters": max_iters, "tol": 1e-11}

    def ratio_at(m, n):
        seed = int(gen.integers(2**63))
        den = _ref_value(m, p, rng=np.random.default_rng(seed), **opts)
        if den <= 1e-12 * float(np.abs(m).max(initial=0.0)):
            return 0.0
        num = _ref_value(apply_amplified(phi, m, n), p, rng=np.random.default_rng(seed), **opts)
        return num / den

    levels, running = [], 0.0
    for n in range(1, n_max + 1):
        dim = n * d
        inputs = _default_level_inputs(n, d, gen)
        draw = sampler if sampler is not None else (lambda g, _n: _gaussian_sampler(g, dim))
        inputs.extend(np.asarray(draw(gen, n), dtype=complex) for _ in range(trials))
        level_best = 0.0
        for m in inputs:
            cur = ratio_at(m, n)
            if cur == 0.0:
                continue
            scale, sigma = float(np.linalg.norm(m)) / dim, 0.25
            for _ in range(ascent_steps):
                noise = gen.standard_normal(m.shape) + 1j * gen.standard_normal(m.shape)
                cand = m + sigma * scale * noise
                cand_ratio = ratio_at(cand, n)
                if cand_ratio > cur:
                    m, cur = cand, cand_ratio
                    sigma *= 1.5
                else:
                    sigma *= 0.5
            level_best = max(level_best, cur)
        running = max(running, level_best)
        levels.append((n, running))
    return levels


def _z_phased_folner_pair():
    phases = np.exp(2j * np.pi * np.array([0.21, 0.64]))
    action = IsometricAction(ZWindow(3), generator=np.diag(phases) @ _shift(2))
    rep = CovariantRep(ConcreteAlgebra(2), action, 3.0, window_radius=3)
    folner = FolnerSet(action.carrier, (0, 1, 2))
    return folner_phi_map(folner, rep), folner_psi_map(folner, rep)


def _keep_entry(a):
    out = np.zeros_like(a)
    out[0, 1] = a[0, 1]
    return out


def _sometimes_zero(g, n):
    m = g.standard_normal((2 * n, 2 * n)) + 1j * g.standard_normal((2 * n, 2 * n))
    return m if m[0, 0].real > 0.0 else np.zeros_like(m)


CB_CASES = {
    "identity": (LinearMap.identity(3), 1.5, {}),
    "truncate": (truncate_map(4, 2, 2), 3.0, {}),
    "truncate_96": (truncate_map(48, 20, 2), 1.5, {"n_max": 1, "trials": 5}),
    "folner_phi": (_z_phased_folner_pair()[0], 3.0, {}),
    "folner_psi": (_z_phased_folner_pair()[1], 3.0, {}),
    "corner_rho": (compression(np.arange(2), 4), 1.5, {}),
    "zero_inputs": (LinearMap.identity(2), 1.5, {"sampler": _sometimes_zero, "trials": 8}),
    "annihilated_inputs": (LinearMap(2, 2, apply_fn=_keep_entry), 3.0, {"sampler": _sometimes_zero}),
}


@pytest.mark.parametrize("name", sorted(CB_CASES))
def test_grouped_cb_matches_sequential_ascent(name):
    phi, p, extra = CB_CASES[name]
    opts = {"n_max": 2, "trials": 4, "ascent_steps": 2, "restarts": 4, "max_iters": 40, **extra}
    want = _ref_cb_levels(phi, p, rng=7, **opts)
    assert cb_norm_lower(phi, p, rng=7, **opts).levels == want
    assert cb_norm_lower(phi, p, rng=np.random.default_rng(7), **opts).levels == want


def test_grouped_cb_skips_keep_the_random_stream(monkeypatch):
    # the identity input is annihilated at every level and about half the
    # sampled inputs are zero, so skipped inputs sit between live ones
    phi = LinearMap(2, 2, apply_fn=_keep_entry)
    opts = {"n_max": 2, "trials": 8, "ascent_steps": 3, "restarts": 3, "max_iters": 30,
            "sampler": _sometimes_zero}
    seen = []

    def recording(phi, m, n):
        image = nonzero_image(phi, m, n)
        seen.append(image is None)
        return image

    nonzero_image = opspace._nonzero_image
    monkeypatch.setattr(opspace, "_nonzero_image", recording)
    got = cb_norm_lower(phi, 1.5, rng=8, **opts).levels
    assert any(seen) and not all(seen)
    assert got == _ref_cb_levels(phi, 1.5, rng=8, **opts)
