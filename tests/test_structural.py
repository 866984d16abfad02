"""Structural cb certificates: monomial factorizations against dense references.

The averaging map psi and the partition blend are certified by writing them
as x -> R (I (x) rho(x)) S with monomial R, S and a p-completely isometric
rho.  These tests build R, rho and S densely from their definitions, check
that they reproduce the maps, check the closed-form norms against exact
formulas and Riesz-Thorin, and check that every sampled cross-check stays
at or below its structural bound.
"""

import math

import numpy as np
import pytest

from lpalg import nuclearity
from lpalg.crossed import (
    CcElement,
    ConcreteAlgebra,
    CovariantRep,
    IsometricAction,
    cyclic_coordinate_rotation,
    trivial_action,
)
from lpalg.errors import CertificateError
from lpalg.groups import FolnerSet, ZWindow, cyclic_group
from lpalg.lpnorm import pnorm_estimate, pnorm_exact
from lpalg.nuclearity import (
    _folner_selector,
    crossed_nuclearity_witness,
    folner_phi_map,
    folner_psi,
    folner_psi_factors,
    folner_psi_map,
    rotation_demo,
)
from lpalg.opspace import (
    CbEstimate,
    block_matrix,
    cb_norm_lower,
    compression_cb,
    monomial_cb,
    split_blocks,
)
from lpalg.partition import (
    circle_partition,
    cx_blend_factors,
    cx_partition_psi,
    cx_phi_cb_certificate,
    cx_psi_cb_certificate,
)

CB_TOL = 1e-6
LIGHT = {"trials": 4, "ascent_steps": 2, "restarts": 6, "max_iters": 60}


def _dense(triple, shape):
    rows, cols, values = triple
    out = np.zeros(shape, dtype=complex)
    out[rows, cols] = values
    return out


def _phased_z_action():
    phases = np.exp(2j * np.pi * np.array([0.17, 0.58]))
    return IsometricAction(ZWindow(0), generator=np.diag(phases) @ np.array([[0.0, 1.0], [1.0, 0.0]]))


def _amplified_pi(m, k, rep):
    """(id_F (x) pi)(m): the block matrix of pi(M_{s,t}) over F x F, one block at a time."""
    blocks = split_blocks(m, k, rep.base_dim)
    return block_matrix(np.array([[rep.pi(blocks[i, j]) for j in range(k)] for i in range(k)]))


def _loop_factors(folner, rep):
    """R = |F|^{-1/q} [v(s)]_{s in F} and S = |F|^{-1/p} [v(t)^{-1}]_{t in F} from dense v."""
    k, pe = folner.size, rep.p
    inverse = (lambda t: rep.carrier.inverse[t]) if hasattr(rep.carrier, "inverse") else (lambda t: -t)
    r = np.hstack([k ** (-1.0 / pe.q) * rep.v(s) for s in folner.members])
    s = np.vstack([k ** (-1.0 / pe.p) * rep.v(inverse(t)) for t in folner.members])
    return r, s


def _random_square(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


# ---------------------------------------------------------------------------
# psi = R (id_F (x) pi)(.) S
# ---------------------------------------------------------------------------

def test_psi_factorization_on_a_finite_group():
    rep = CovariantRep(ConcreteAlgebra(6), cyclic_coordinate_rotation(6, 1), 1.5)
    folner = FolnerSet(cyclic_group(6), (0, 1, 2))
    r_loop, s_loop = _loop_factors(folner, rep)
    r, s = folner_psi_factors(folner, rep)
    mid = folner.size * rep.dimension
    assert np.array_equal(_dense(r, (rep.dimension, mid)), r_loop)
    assert np.array_equal(_dense(s, (mid, rep.dimension)), s_loop)
    rng = np.random.default_rng(0)
    for _ in range(3):
        m = _random_square(rng, folner.size * rep.base_dim)
        got = r_loop @ _amplified_pi(m, folner.size, rep) @ s_loop
        assert np.abs(got - folner_psi(m, folner, rep)).max() <= 1e-14


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0, math.inf])
def test_psi_factorization_on_a_z_window_is_a_compression(p):
    # the window's psi is P_W psi_wide P_W, and P_W R_wide, S_wide P_W only
    # reach positions within W + max|F|: the factors compress a wider one
    action = _phased_z_action()
    folner = FolnerSet(ZWindow(0), (-2, -1, 0, 1, 2, 3))
    rep = CovariantRep(ConcreteAlgebra(2), action, p, window_radius=6)
    wide = CovariantRep(ConcreteAlgebra(2), action, p, window_radius=16)
    r_wide, s_wide = _loop_factors(folner, wide)
    rows = np.arange(10 * 2, 23 * 2)  # the radius-6 window inside the radius-16 one
    k, d = folner.size, 2
    reach = 6 + 3  # W + max|F|
    kept = np.concatenate([
        (a * wide.dimension + (16 - reach) * d + np.arange((2 * reach + 1) * d)) for a in range(k)
    ])
    outside = np.setdiff1d(np.arange(k * wide.dimension), kept)
    assert not r_wide[np.ix_(rows, outside)].any() and not s_wide[np.ix_(outside, rows)].any()
    r, s = folner_psi_factors(folner, rep)
    assert np.array_equal(_dense(r, (rep.dimension, kept.size)), r_wide[np.ix_(rows, kept)])
    assert np.array_equal(_dense(s, (kept.size, rep.dimension)), s_wide[np.ix_(kept, rows)])

    rng = np.random.default_rng(1)
    for _ in range(3):
        m = _random_square(rng, k * d)
        got = r_wide[rows] @ _amplified_pi(m, k, wide) @ s_wide[:, rows]
        assert np.abs(got - folner_psi(m, folner, rep)).max() <= 1e-14
    assert all(abs(v - 1.0) <= 1e-15 for _, v in monomial_cb(r, s, p, 3).levels)


# ---------------------------------------------------------------------------
# monomial_cb: closed-form norms and validation
# ---------------------------------------------------------------------------

def _random_monomial(rng, n_rows, n_cols):
    """(rows, cols, values) of an n_rows x n_cols matrix with one entry per column."""
    values = rng.standard_normal(n_cols) * np.exp(2j * np.pi * rng.random(n_cols))
    return rng.integers(0, n_rows, n_cols), np.arange(n_cols), values


def _identity(n):
    idx = np.arange(n)
    return idx, idx, np.ones(n)


@pytest.mark.parametrize("seed", range(4))
def test_monomial_norms_match_exact_formulas_and_riesz_thorin(seed):
    rng = np.random.default_rng(seed)
    r = _random_monomial(rng, 5, 9)
    rows, cols, values = r
    s = (cols, rows, values)  # the transpose: one entry per row
    r_dense, s_dense = _dense(r, (5, 9)), _dense(s, (9, 5))
    for p in (1.0, 2.0, math.inf):
        (_, r_norm), = monomial_cb(r, _identity(9), p, 1).levels
        (_, s_norm), = monomial_cb(_identity(9), s, p, 1).levels
        assert r_norm == pytest.approx(pnorm_exact(r_dense, p), rel=1e-13)
        assert s_norm == pytest.approx(pnorm_exact(s_dense, p), rel=1e-13)
    for p in (1.2, 1.5, 3.0, 4.0):
        q = p / (p - 1.0)
        for dense, level in (
            (r_dense, monomial_cb(r, _identity(9), p, 1).best),
            (s_dense, monomial_cb(_identity(9), s, p, 1).best),
        ):
            riesz = pnorm_exact(dense, 1) ** (1.0 / p) * pnorm_exact(dense, math.inf) ** (1.0 / q)
            assert level <= riesz * (1.0 + 1e-12)
            assert pnorm_estimate(dense, p).value <= level * (1.0 + 1e-12)


def test_monomial_cb_levels_are_the_product_of_the_norms():
    rng = np.random.default_rng(5)
    r = _random_monomial(rng, 4, 7)
    s = (np.arange(7), rng.integers(0, 3, 7), rng.random(7))  # 7 x 3, one entry per row
    cb = monomial_cb(r, s, 3.0, 3)
    (_, r_norm), = monomial_cb(r, _identity(7), 3.0, 1).levels
    (_, s_norm), = monomial_cb(_identity(7), s, 3.0, 1).levels
    assert cb.kind == "structural"
    assert cb.levels == [(n, r_norm * s_norm) for n in (1, 2, 3)]


@pytest.mark.parametrize("r, s", [
    (([0, 1], [0, 0], [1.0, 1.0]), _identity(2)),  # two entries in one column of R
    (_identity(2), ([0, 0], [0, 1], [1.0, 1.0])),  # two entries in one row of S
    (([0, 1], [0, 1], [1.0]), _identity(2)),  # lengths differ
    (([0.0, 1.0], [0, 1], [1.0, 1.0]), _identity(2)),  # indices that are not integers
    (([0, -1], [0, 1], [1.0, 1.0]), _identity(2)),  # a negative index
    (([[0, 1]], [[0, 1]], [[1.0, 1.0]]), _identity(2)),  # not one-dimensional
])
def test_monomial_cb_refuses_input_that_is_not_monomial(r, s):
    with pytest.raises(ValueError):
        monomial_cb(tuple(np.asarray(x) for x in r), tuple(np.asarray(x) for x in s), 1.5, 2)


# ---------------------------------------------------------------------------
# the partition blend
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_blend_factorization_reproduces_blending(p):
    part = circle_partition(12, 4)
    n, m = part.n_points, part.n_bumps
    r, s = cx_blend_factors(part, p)
    r_dense, s_dense = _dense(r, (n, m * n)), _dense(s, (m * n, n))
    rng = np.random.default_rng(6)
    for _ in range(3):
        d = _random_square(rng, 1)[0, 0] * rng.standard_normal(m)
        middle = np.diag(np.repeat(d, n))  # rho(d) = (+)_i d_i I_grid
        assert np.abs(np.diag(r_dense @ middle @ s_dense) - cx_partition_psi(d, part)).max() <= 1e-15
        assert np.abs(r_dense @ middle @ s_dense - np.diag(cx_partition_psi(d, part))).max() <= 1e-15
    assert all(abs(v - 1.0) <= 1e-12 for _, v in monomial_cb(r, s, p, 2).levels)


# ---------------------------------------------------------------------------
# sampled cross-checks stay below the structural bounds
# ---------------------------------------------------------------------------

def _folner_cases():
    finite = CovariantRep(ConcreteAlgebra(6), cyclic_coordinate_rotation(6, 1), 3.0)
    line = CovariantRep(ConcreteAlgebra(2), _phased_z_action(), 1.5, window_radius=6)
    return [(finite, FolnerSet(cyclic_group(6), (0, 1, 2))),
            (line, FolnerSet(ZWindow(0), (-1, 0, 1, 2)))]


@pytest.mark.parametrize("case", range(2))
def test_sampled_folner_certificates_stay_below_the_structural_bounds(case):
    rep, folner = _folner_cases()[case]
    structural_phi = compression_cb(_folner_selector(folner, rep), rep.dimension, 2)
    structural_psi = monomial_cb(*folner_psi_factors(folner, rep), rep.p, 2)
    sampled_phi = cb_norm_lower(folner_phi_map(folner, rep), rep.p, n_max=2, rng=np.random.default_rng(7), **LIGHT)
    sampled_psi = cb_norm_lower(folner_psi_map(folner, rep), rep.p, n_max=2, rng=np.random.default_rng(8), **LIGHT)
    for sampled, structural in ((sampled_phi, structural_phi), (sampled_psi, structural_psi)):
        assert (sampled.kind, structural.kind) == ("sampled_lower", "structural")
        for (n, low), (_, high) in zip(sampled.levels, structural.levels):
            assert low <= high + CB_TOL, n


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_sampled_partition_certificates_stay_below_the_structural_bounds(p):
    part = circle_partition(12, 4)
    pairs = (
        (cx_phi_cb_certificate(part, p, n_max=2, trials=3, rng=np.random.default_rng(9)),
         compression_cb(np.asarray(part.points), part.n_points, 2)),
        (cx_psi_cb_certificate(part, p, n_max=2, trials=3, rng=np.random.default_rng(10)),
         monomial_cb(*cx_blend_factors(part, p), p, 2)),
    )
    for sampled, structural in pairs:
        for (_, low), (_, high) in zip(sampled.levels, structural.levels):
            assert low <= high + CB_TOL


# ---------------------------------------------------------------------------
# the witness and the rotation model decide on structural bounds, draw nothing
# ---------------------------------------------------------------------------

def _line_witness(**kwargs):
    zw = ZWindow(0)
    f = CcElement.delta(zw, 1, base_dim=1)
    return crossed_nuclearity_witness([f], 0.3, ConcreteAlgebra(1), zw, trivial_action(zw, 1), 1.5, **kwargs)


def test_witness_refuses_to_pass_on_a_sampled_certificate(monkeypatch):
    sampled = CbEstimate(levels=[(1, 1.0), (2, 1.0)])  # a lower bound: proves nothing
    monkeypatch.setattr(nuclearity, "monomial_cb", lambda *args, **kwargs: sampled)
    with pytest.raises(CertificateError, match="psi certificate"):
        _line_witness()


def test_rotation_model_refuses_to_pass_on_a_sampled_partition_certificate(monkeypatch):
    structural = nuclearity.compression_cb

    def point_eval_sampled(sel, domain_dim, n_max):  # the grid has 5 points, the witness 25
        return CbEstimate(levels=[(1, 1.0)]) if domain_dim == 5 else structural(sel, domain_dim, n_max)

    monkeypatch.setattr(nuclearity, "compression_cb", point_eval_sampled)
    report = rotation_demo(5, 2, 1.5, 0.3)
    assert report["witness"]["passed"] is True
    assert report["partition"]["point_eval_kind"] == "sampled_lower"
    assert report["passed"] is False


def test_witness_and_rotation_model_draw_nothing_from_rng():
    gen = np.random.default_rng(11)
    before = gen.bit_generator.state
    _, report = _line_witness(rng=gen)
    assert report["passed"]
    rot = rotation_demo(8, 3, 3.0, 0.3, rng=gen)
    assert rot["passed"]
    assert gen.bit_generator.state == before
    kinds = [c["kind"] for c in report["certificates"] + rot["witness"]["certificates"]]
    assert kinds == ["structural"] * 4
    assert (rot["partition"]["point_eval_kind"], rot["partition"]["blend_kind"]) == ("structural",) * 2
