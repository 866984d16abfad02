"""Structural cb certificates against dense references.

The averaging map psi and the partition blend factor as
x -> R (I (x) rho(x)) S with monomial R, S and a p-completely isometric
rho.  These tests build R, rho and S densely from their definitions, check
that they reproduce the maps, compare each certificate with ||R|| ||S||
(the reference ``monomial_norms``, checked against exact formulas and
Riesz-Thorin), and check that every sampled cross-check stays at or below
its structural bound.  The blend's certificate is its bumps' largest
column sum, rounded up, which is also checked against exact rational sums.
"""

import math
from fractions import Fraction
import tracemalloc
from itertools import permutations

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
from lpalg.groups import FolnerSet, ZWindow, cyclic_group, group_from_table
from lpalg.lpnorm import as_exponent, pnorm_estimate, pnorm_exact
from lpalg.nuclearity import (
    crossed_nuclearity_witness,
    folner_phi_map,
    folner_psi,
    folner_psi_map,
    rotation_demo,
)
from lpalg.opspace import (
    CbEstimate,
    averaging_cb,
    block_matrix,
    cb_norm_lower,
    compression_cb,
    split_blocks,
    weighted_sum_cb,
)
from lpalg.partition import (
    circle_partition,
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
    r = np.hstack([k ** (-1.0 / pe.q) * rep.v(s) for s in folner.members])
    s = np.vstack([k ** (-1.0 / pe.p) * rep.v(rep.carrier.inv(t)) for t in folner.members])
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
    # every row of P_W R and every column of S P_W holds |F| entries
    assert ((r_wide[rows] != 0).sum(axis=1) == k).all() and ((s_wide[:, rows] != 0).sum(axis=0) == k).all()

    rng = np.random.default_rng(1)
    for _ in range(3):
        m = _random_square(rng, k * d)
        got = r_wide[rows] @ _amplified_pi(m, k, wide) @ s_wide[:, rows]
        assert np.abs(got - folner_psi(m, folner, rep)).max() <= 1e-14
    assert averaging_cb(folner.size).levels == [(1, 1.0), (2, 1.0)]


def _window_loop_factors(folner, rep):
    """Dense R, S of psi on rep: on a Z window {-W..W}, P_W R and S P_W of
    the factors on the window of radius W + max|F|, which hold every
    nonzero entry; on a finite group the factors themselves."""
    if rep.carrier.order is not None:
        return _loop_factors(folner, rep)
    reach = rep.window_radius + max(map(abs, folner.members))
    wide = CovariantRep(ConcreteAlgebra(rep.base_dim), rep.action, rep.p, window_radius=reach)
    r_wide, s_wide = _loop_factors(folner, wide)
    d = rep.base_dim
    rows = np.arange((reach - rep.window_radius) * d, (reach + rep.window_radius + 1) * d)
    return r_wide[rows], s_wide[:, rows]


def _entries(dense):
    """(rows, cols, values) of the nonzero entries of a dense matrix."""
    rows, cols = np.nonzero(dense)
    return rows, cols, dense[rows, cols]


def _s3_signed_action():
    """S_3 from its multiplication table, acting on C^3 by the signed permutations sgn(g) P_g."""
    perms = list(permutations(range(3)))
    table = [[perms.index(tuple(g[h[i]] for i in range(3))) for h in perms] for g in perms]
    signed = []
    for g in perms:
        u = np.zeros((3, 3), dtype=complex)
        u[list(g), range(3)] = np.linalg.det(np.eye(3)[:, list(g)])
        signed.append(u)
    return IsometricAction(group_from_table(table), unitaries=signed)


def _psi_cb_case(case, p):
    """(Folner set, representation at p): Z/6 rotating coordinates and S_3
    with F of size 1, 4 and the whole group, then Z windows of radius
    max|F| + |F| under a phased generator (d = 2) with |F| = 1, 4 and 21."""
    group, size = divmod(case, 3)
    if group < 2:
        action = cyclic_coordinate_rotation(6, 1) if group == 0 else _s3_signed_action()
        folner = FolnerSet(action.carrier, tuple(range((1, 4, 6)[size])))
        return folner, CovariantRep(ConcreteAlgebra(action.base_dim), action, p)
    k = (1, 4, 21)[size]
    members = tuple(range(-(k // 2), k - k // 2))
    rep = CovariantRep(ConcreteAlgebra(2), _phased_z_action(), p, window_radius=max(map(abs, members)) + k)
    return FolnerSet(ZWindow(0), members), rep


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
@pytest.mark.parametrize("case", range(9))
def test_folner_psi_cb_is_monomial_cb_on_the_dense_factors_bit_for_bit(case, p, monomial_norms):
    # psi's certificate, averaging_cb at count |F|, lists no entry of R or S
    # and is exactly 1; ||R|| ||S|| of the listed factors rounds two powers,
    # a root and a product per factor, so it lands within 8 units of 2^-52
    folner, rep = _psi_cb_case(case, p)
    r, s = _window_loop_factors(folner, rep)
    closed = averaging_cb(folner.size)
    assert closed.kind == "structural"
    assert closed.levels == [(1, 1.0), (2, 1.0)]
    assert abs(monomial_norms(_entries(r), _entries(s), rep.p) - 1.0) <= 8 * 2.0**-52


# ---------------------------------------------------------------------------
# the reference ||R|| ||S||: closed-form norms
# ---------------------------------------------------------------------------

def _random_monomial(rng, n_rows, n_cols):
    """(rows, cols, values) of an n_rows x n_cols matrix with one entry per column."""
    values = rng.standard_normal(n_cols) * np.exp(2j * np.pi * rng.random(n_cols))
    return rng.integers(0, n_rows, n_cols), np.arange(n_cols), values


def _identity(n):
    idx = np.arange(n)
    return idx, idx, np.ones(n)


@pytest.mark.parametrize("seed", range(4))
def test_monomial_norms_match_exact_formulas_and_riesz_thorin(seed, monomial_norms):
    rng = np.random.default_rng(seed)
    r = _random_monomial(rng, 5, 9)
    rows, cols, values = r
    s = (cols, rows, values)  # the transpose: one entry per row
    r_dense, s_dense = _dense(r, (5, 9)), _dense(s, (9, 5))
    for p in (1.0, 2.0, math.inf):
        r_norm = monomial_norms(r, _identity(9), p)
        s_norm = monomial_norms(_identity(9), s, p)
        assert r_norm == pytest.approx(pnorm_exact(r_dense, p), rel=1e-13)
        assert s_norm == pytest.approx(pnorm_exact(s_dense, p), rel=1e-13)
    for p in (1.2, 1.5, 3.0, 4.0):
        q = p / (p - 1.0)
        for dense, level in (
            (r_dense, monomial_norms(r, _identity(9), p)),
            (s_dense, monomial_norms(_identity(9), s, p)),
        ):
            riesz = pnorm_exact(dense, 1) ** (1.0 / p) * pnorm_exact(dense, math.inf) ** (1.0 / q)
            assert level <= riesz * (1.0 + 1e-12)
            assert pnorm_estimate(dense, p).value <= level * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# the partition blend
# ---------------------------------------------------------------------------

def _blend_factors(part, p):
    """Listed R, S of blending: sum_i d_i sigma_i = R ((+)_i d_i I_grid) S
    with R = [diag(sigma_i^{1/q})]_i, a row of blocks, and
    S = [diag(sigma_i^{1/p})]_i, a column; the middle index of bump i at
    grid point x is i * n_points + x, and only entries with sigma_i(x) > 0
    are listed."""
    pe = as_exponent(p)
    bump, x = np.nonzero(part.bumps)
    weight = part.bumps[bump, x]
    mid = bump * part.n_points + x
    return (x, mid, weight ** (1.0 / pe.q)), (mid, x, weight ** (1.0 / pe.p))


def _exact_largest_column_sum(weights):
    return max(sum(map(Fraction, column)) for column in np.asarray(weights).T.tolist())


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_blend_factorization_reproduces_blending(p, monomial_norms):
    # row x of R and column x of S have the norms (sum_i sigma_i(x))^{1/q}
    # and (sum_i sigma_i(x))^{1/p}: ||R|| ||S|| is the largest column sum
    part = circle_partition(12, 4)
    n, m = part.n_points, part.n_bumps
    r, s = _blend_factors(part, p)
    r_dense, s_dense = _dense(r, (n, m * n)), _dense(s, (m * n, n))
    rng = np.random.default_rng(6)
    for _ in range(3):
        d = _random_square(rng, 1)[0, 0] * rng.standard_normal(m)
        middle = np.diag(np.repeat(d, n))  # rho(d) = (+)_i d_i I_grid
        assert np.abs(np.diag(r_dense @ middle @ s_dense) - cx_partition_psi(d, part)).max() <= 1e-15
        assert np.abs(r_dense @ middle @ s_dense - np.diag(cx_partition_psi(d, part))).max() <= 1e-15
    assert abs(monomial_norms(r, s, p) - 1.0) <= 1e-12
    level = weighted_sum_cb(part.bumps).best
    assert Fraction(level) >= _exact_largest_column_sum(part.bumps) and level - 1.0 <= 1e-12


def test_blend_cb_is_exactly_one_on_every_rotation_partition():
    # the partitions rotation_demo builds, n = 2..40
    for n in range(2, 41):
        part = circle_partition(n, n // 2 if (n % 2 == 0 and n >= 6) else n)
        assert weighted_sum_cb(part.bumps).levels == [(1, 1.0), (2, 1.0)], n


def test_blend_cb_is_rounded_up_where_the_column_sum_exceeds_one():
    # tents built as 1 - 1/3 and 1 - 2/3 sum to 1 + 2^-53 exactly, which
    # rounds to 1.0: the certificate is the next float
    weights = np.array([[1.0 - 1 / 3, 1.0], [1.0 - 2 / 3, 0.0]])
    assert _exact_largest_column_sum(weights) == 1 + Fraction(1, 2**53)
    level = weighted_sum_cb(weights).best
    assert level == 1.0000000000000002
    assert Fraction(level) >= _exact_largest_column_sum(weights)


def test_blend_cb_is_one_where_the_column_sums_are_one():
    # ||R|| ||S|| computed with powers and roots reads 1.0000000000000002
    # here at p = 1.5 and 3
    part = circle_partition(60, 6)
    assert _exact_largest_column_sum(part.bumps) == 1
    assert weighted_sum_cb(part.bumps).best == 1.0


def test_every_circle_partition_column_sums_to_exactly_one():
    # fsum rounds exactly, so it reads 0 only where a column's exact sum is
    # 1.  The smaller tent at a point is 1 minus the larger, which is exact;
    # the two tents computed on their own summed to 1 + 2^-53 on (12, 4) and
    # (30, 10), among others
    for n in range(2, 121):
        for n_arcs in (a for a in range(2, n + 1) if n % a == 0):
            columns = circle_partition(n, n_arcs).bumps.T.tolist()
            assert all(math.fsum([*column, -1.0]) == 0.0 for column in columns), (n, n_arcs)
    for n, n_arcs in ((12, 4), (30, 10)):
        assert weighted_sum_cb(circle_partition(n, n_arcs).bumps).best == 1.0


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
    structural_phi = compression_cb(rep.block_selector(folner.members), rep.dimension)
    structural_psi = averaging_cb(folner.size)
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
         compression_cb(np.asarray(part.points), part.n_points)),
        (cx_psi_cb_certificate(part, p, n_max=2, trials=3, rng=np.random.default_rng(10)),
         weighted_sum_cb(part.bumps)),
    )
    for sampled, structural in pairs:
        for (_, low), (_, high) in zip(sampled.levels, structural.levels):
            assert low <= high + CB_TOL


# ---------------------------------------------------------------------------
# the witness and the rotation model decide on structural bounds, draw nothing
# ---------------------------------------------------------------------------

def _line_witness(eps=0.3, **kwargs):
    zw = ZWindow(0)
    f = CcElement.delta(zw, 1, base_dim=1)
    return crossed_nuclearity_witness([f], eps, ConcreteAlgebra(1), zw, trivial_action(zw, 1), 1.5, **kwargs)


def test_line_witness_at_small_epsilon_reads_its_certificates_off_the_folner_size():
    # |F| = 6,001 in a window of 12,005 positions: listing the entries of
    # psi's factors would take GBs, the closed forms take none
    tracemalloc.start()
    try:
        _, report = _line_witness(0.001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["passed"] is True
    assert len(report["folner"]["members"]) == 6001
    assert [c["kind"] for c in report["certificates"]] == ["structural"] * 2
    assert peak < 64 * 2**20


def test_every_structural_certificate_lists_levels_one_and_two():
    # ||R|| ||S|| holds at every level at once, so each certificate lists the
    # one value v at levels 1 and 2, in the functions and in every report
    part = circle_partition(12, 4)
    certs = [
        weighted_sum_cb(part.bumps),
        averaging_cb(21),
        averaging_cb(0),
        compression_cb(np.array([4, 0, 2]), 5),
    ]
    levels = [cb.levels for cb in certs]
    _, report = _line_witness()
    rot = rotation_demo(8, 3, 1.5, 0.3)
    for entry in report["certificates"] + rot["witness"]["certificates"]:
        levels.append([tuple(level) for level in entry["levels"]])
    levels += [[tuple(level) for level in rot["partition"][key]] for key in ("point_eval_levels", "blend_levels")]
    assert all(cb.kind == "structural" for cb in certs)
    for listed in levels:
        (v,) = {value for _, value in listed}
        assert listed == [(1, v), (2, v)]


@pytest.mark.parametrize("n, k, p", [(8, 3, 1.5), (8, 3, 3.0), (4, 1, 4.0)])
def test_rotation_reports_list_the_folner_certificates_at_exactly_one(n, k, p):
    # computed with powers and roots, psi's level reads 0.9999999999999999
    # at (8, 3) and 1.0000000000000004 at (4, 1, 4.0)
    report = rotation_demo(n, k, p, 0.3)
    assert report["passed"]
    assert [c["levels"] for c in report["witness"]["certificates"]] == [[[1, 1.0], [2, 1.0]]] * 2


def test_witness_refuses_to_pass_on_a_sampled_certificate(monkeypatch):
    sampled = CbEstimate(levels=[(1, 1.0), (2, 1.0)])  # a lower bound: proves nothing
    structural = nuclearity.averaging_cb  # phi's certificate is the count 1, psi's |F| = 21
    monkeypatch.setattr(nuclearity, "averaging_cb", lambda count: structural(count) if count == 1 else sampled)
    with pytest.raises(CertificateError, match="psi certificate"):
        _line_witness()


def test_rotation_model_refuses_to_pass_on_a_sampled_partition_certificate(monkeypatch):
    # only the partition's point evaluation is certified by compression_cb
    monkeypatch.setattr(nuclearity, "compression_cb", lambda sel, domain_dim: CbEstimate(levels=[(1, 1.0)]))
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
