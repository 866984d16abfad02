"""Tests for linear maps on matrix spaces and completely bounded norms."""

import math

import numpy as np
import pytest

from lpalg.opspace import (
    CbEstimate,
    LinearMap,
    apply_amplified,
    averaging_cb,
    block_matrix,
    cb_norm_lower,
    compression,
    compression_cb,
    embedding,
    split_blocks,
    weighted_sum_cb,
)
from lpalg.crossed import ConcreteAlgebra, CovariantRep, IsometricAction, cyclic_coordinate_rotation
from lpalg.groups import ZWindow
from lpalg.lpnorm import as_exponent
from lpalg.partition import circle_partition, cx_phi_cb_certificate

CB_SLACK = 1e-6


def _random_block(rng, n, d):
    return rng.standard_normal((n * d, n * d)) + 1j * rng.standard_normal((n * d, n * d))


def test_split_and_reassemble_are_inverse():
    rng = np.random.default_rng(0)
    m = _random_block(rng, 3, 2)
    blocks = split_blocks(m, 3, 2)
    assert blocks.shape == (3, 3, 2, 2)
    assert np.array_equal(block_matrix(blocks), m)


def test_split_blocks_reads_row_blocks():
    m = np.arange(16, dtype=float).reshape(4, 4)
    blocks = split_blocks(m, 2, 2)
    assert np.array_equal(blocks[0, 1], np.array([[2.0, 3.0], [6.0, 7.0]]))


def test_linear_map_matrix_matches_apply():
    rng = np.random.default_rng(1)

    def phi(a):
        a = np.asarray(a, dtype=complex)
        return 0.5 * (a + a.T)

    lm = LinearMap(2, 2, apply_fn=phi)
    coeff = lm.matrix
    for _ in range(4):
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        via_matrix = (coeff @ x.reshape(-1)).reshape(2, 2)
        assert np.allclose(via_matrix, phi(x), atol=1e-14)


def test_linear_map_compose_order():
    double = LinearMap(2, 2, apply_fn=lambda a: 2.0 * np.asarray(a, dtype=complex))
    transpose = LinearMap(2, 2, apply_fn=lambda a: np.asarray(a, dtype=complex).T)
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    composed = double.compose(transpose)  # double after transpose
    assert np.array_equal(composed.apply(x), 2.0 * x.T)


def test_linear_map_shape_mismatch_raises():
    lm = LinearMap(2, 2, apply_fn=lambda a: np.asarray(a, dtype=complex))
    with pytest.raises(ValueError):
        lm.apply(np.zeros((3, 3)))


def test_amplified_identity_is_bitwise_identity():
    ident = LinearMap.identity(2)
    rng = np.random.default_rng(2)
    m = _random_block(rng, 3, 2)
    assert np.array_equal(apply_amplified(ident, m, 3), m)


def test_amplified_map_acts_blockwise():
    transpose = LinearMap(2, 2, apply_fn=lambda a: np.asarray(a, dtype=complex).T)
    rng = np.random.default_rng(3)
    m = _random_block(rng, 2, 2)
    out = apply_amplified(transpose, m, 2)
    blocks_in = split_blocks(m, 2, 2)
    blocks_out = split_blocks(out, 2, 2)
    for i in range(2):
        for j in range(2):
            assert np.array_equal(blocks_out[i, j], blocks_in[i, j].T)


# ---------------------------------------------------------------------------
# cb-norm lower bounds
# ---------------------------------------------------------------------------

def test_identity_map_levels_are_one():
    cb = cb_norm_lower(LinearMap.identity(2), 2.0, n_max=3, trials=4,
                       rng=np.random.default_rng(4))
    for n, value in cb.levels:
        assert value == pytest.approx(1.0, abs=1e-9)
    assert cb.best == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n_max, trials", [(0, 4), (-1, 4), (2, -3)])
def test_a_sampled_certificate_needs_a_level_and_no_negative_trials(n_max, trials):
    # n_max=0 used to give no levels and best 0.0, and trials=-3 ran as 0
    with pytest.raises(ValueError, match="^a sampled certificate needs n_max >= 1 and trials >= 0"):
        cb_norm_lower(LinearMap.identity(2), 1.5, n_max=n_max, trials=trials)


@pytest.mark.parametrize("opts, message", [
    ({"restarts": -1}, "restarts must be a positive integer, got -1$"),
    ({"restarts": -2}, "restarts must be a positive integer, got -2$"),
    ({"restarts": 0}, "restarts must be a positive integer, got 0$"),
    ({"ascent_steps": -3}, "ascent_steps must be a nonnegative integer, got -3$"),
], ids=["restarts=-1", "restarts=-2", "restarts=0", "ascent_steps=-3"])
def test_the_ascent_refuses_the_restarts_and_steps_it_is_given(opts, message):
    # restarts=-1 ran with one restart, -2 was refused as "got 0" (after
    # the two extra restarts), and ascent_steps=-3 ran as 0
    with pytest.raises(ValueError, match=f"^{message}"):
        cb_norm_lower(LinearMap.identity(2), 1.5, n_max=1, trials=1, **opts)


def test_one_restart_and_no_ascent_step_still_run():
    cb = cb_norm_lower(LinearMap.identity(2), 1.5, n_max=2, trials=2, restarts=1, ascent_steps=0)
    assert cb.levels == [(1, 1.0), (2, 1.0)]


def test_levels_are_monotone():
    def shrink(a):
        return 0.9 * np.asarray(a, dtype=complex)

    cb = cb_norm_lower(LinearMap(2, 2, apply_fn=shrink), 1.5, n_max=3, trials=4,
                       rng=np.random.default_rng(5))
    values = [v for _, v in cb.levels]
    assert values == sorted(values)
    assert [n for n, _ in cb.levels] == [1, 2, 3]


def test_transpose_map_grows_at_level_two():
    # the transpose on 2x2 matrices has norm 1 but amplifies to 2 at level 2
    # when p = 2; the swap witness attains it exactly.
    transpose = LinearMap(2, 2, apply_fn=lambda a: np.asarray(a, dtype=complex).T)
    cb = cb_norm_lower(transpose, 2.0, n_max=2, trials=4, ascent_steps=0,
                       rng=np.random.default_rng(0))
    assert cb.levels[0][1] == pytest.approx(1.0, abs=1e-12)
    assert cb.levels[1][1] == 2.0
    assert cb.best == 2.0


def test_compression_map_is_completely_contractive():
    proj = np.diag([1.0, 1.0, 0.0])

    def compress(a):
        return proj @ np.asarray(a, dtype=complex) @ proj

    for p in (1.0, 1.5, 2.0, 3.0):
        cb = cb_norm_lower(LinearMap(3, 3, apply_fn=compress), p, n_max=2, trials=6,
                           rng=np.random.default_rng(6))
        assert cb.best <= 1.0 + CB_SLACK


def test_default_seed_repeats_sampled_levels():
    # level 1 sees the corner block and the random inputs only: the identity
    # and the swap witness are annihilated there
    def keep_entry(a):
        out = np.zeros((2, 2), dtype=complex)
        out[0, 1] = np.asarray(a)[0, 1]
        return out

    phi = LinearMap(2, 2, apply_fn=keep_entry)
    first = cb_norm_lower(phi, 3.0, n_max=2, trials=3, ascent_steps=2)
    assert 0.0 < first.levels[0][1] < 1.0
    assert cb_norm_lower(phi, 3.0, n_max=2, trials=3, ascent_steps=2).levels == first.levels
    assert cb_norm_lower(phi, 3.0, n_max=2, trials=3, ascent_steps=2, rng=0).levels == first.levels
    part = circle_partition(8, 4)
    point_eval = cx_phi_cb_certificate(part, 3.0, n_max=2, trials=3)
    assert cx_phi_cb_certificate(part, 3.0, n_max=2, trials=3).levels == point_eval.levels


def test_cb_estimate_best():
    est = CbEstimate(levels=[(1, 0.7), (2, 0.9), (3, 1.3)])
    assert est.best == 1.3


# ---------------------------------------------------------------------------
# the structural certificate of a coordinate compression
# ---------------------------------------------------------------------------

def test_compression_cb_is_the_structural_bound_one():
    cb = compression_cb(np.array([4, 0, 2]), 5)
    assert cb.kind == "structural"
    assert cb.levels == [(1, 1.0), (2, 1.0)]
    assert CbEstimate().kind == "sampled_lower"


@pytest.mark.parametrize("sel", [[], [3], [4, 0, 2], [0, 1, 2, 3, 4]])
def test_compression_cb_is_monomial_cb_on_the_inclusion_bit_for_bit(sel, monomial_norms):
    # the closed form lists no entry of J or J*; the empty selector gives 0.0
    sel = np.array(sel, dtype=np.int64)
    inner, ones = np.arange(sel.size), np.ones(sel.size)
    listed = monomial_norms((inner, sel, ones), (sel, inner, ones), 1.0)
    assert compression_cb(sel, 5).levels == [(n, listed) for n in (1, 2)]
    assert listed == (1.0 if sel.size else 0.0)


def test_averaging_cb_is_exactly_one_for_every_count_and_zero_at_count_zero():
    assert averaging_cb(0).levels == [(1, 0.0), (2, 0.0)]
    for count in range(1, 10_001):
        assert averaging_cb(count).levels == [(1, 1.0), (2, 1.0)]
    assert averaging_cb(7).kind == "structural"


@pytest.mark.parametrize("count", [0, 1, 2, 7, 6001])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_averaging_cb_is_monomial_cb_on_a_row_of_count_entries_bit_for_bit(count, p, monomial_norms):
    # R = count^(-1/q) [1 ... 1] and S = count^(-1/p) [1 ... 1]^T; the listed
    # factors round two powers, a root and a product each, so ||R|| ||S||
    # lands within 8 units of 2^-52 of the exact 1 (0.0 at count 0)
    pe = as_exponent(p)
    zeros, idx = np.zeros(count, dtype=np.int64), np.arange(count)
    r = (zeros, idx, np.full(count, count ** (-1.0 / pe.q) if count else 0.0))
    s = (idx, zeros, np.full(count, count ** (-1.0 / pe.p) if count else 0.0))
    exact = 1.0 if count else 0.0
    assert averaging_cb(count).levels == [(1, exact), (2, exact)]
    assert abs(monomial_norms(r, s, p) - exact) <= 8 * 2.0**-52


def test_weighted_sum_cb_is_the_largest_column_sum_rounded_up():
    # columns 0.75, 0.5 and 0.1 + 0.2, whose float sum 0.30000000000000004
    # lies above the exact one and is kept; the sum of 1 and 2^-53 rounds
    # down to 1, so it is raised to the next float
    cb = weighted_sum_cb([[0.5, 0.5, 0.1], [0.25, 0.0, 0.2]])
    assert (cb.kind, cb.levels) == ("structural", [(1, 0.75), (2, 0.75)])
    assert weighted_sum_cb([[0.1], [0.2]]).best == 0.1 + 0.2
    assert weighted_sum_cb([[1.0], [2.0**-53]]).best == math.nextafter(1.0, 2.0)
    assert weighted_sum_cb(np.zeros((0, 3))).levels == [(1, 0.0), (2, 0.0)]


@pytest.mark.parametrize("weights", [
    [1.0, 0.5],  # one-dimensional
    [[[1.0]]],  # three-dimensional
    [[1.0, -0.5]],  # a negative weight
    [[1.0, math.nan]],
    [[math.inf]],
])
def test_weighted_sum_cb_refuses_weights_that_bound_nothing(weights):
    with pytest.raises(ValueError, match="finite, nonnegative two-dimensional"):
        weighted_sum_cb(weights)


# each refusal holds for the certificate and for both maps it certifies
_SELECTOR_TAKERS = (
    compression_cb,
    compression,
    embedding,
)


def test_compression_cb_refuses_a_repeated_index():
    for take in _SELECTOR_TAKERS:
        with pytest.raises(ValueError):
            take(np.array([0, 0]), 2)
    # the map it would certify sends e_00 to the all-ones 2 x 2 matrix, of norm 2
    doubled = LinearMap(2, 2, apply_fn=lambda t: np.asarray(t, dtype=complex)[np.ix_([0, 0], [0, 0])])
    sampled = cb_norm_lower(doubled, 1.5, n_max=2, trials=4, rng=np.random.default_rng(7))
    assert sampled.levels[0][1] == pytest.approx(2.0, rel=1e-9)
    assert sampled.best > 1.0 + CB_SLACK


@pytest.mark.parametrize("sel", [[0, 3], [-1, 1], [[0, 1]], [0.0, 1.0]])
def test_compression_cb_refuses_indices_outside_the_domain(sel):
    for take in _SELECTOR_TAKERS:
        with pytest.raises(ValueError):
            take(np.array(sel), 3)


def _gauss(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def test_compression_recovers_what_embedding_pads_bit_for_bit():
    rng = np.random.default_rng(12)
    for sel, dim in (([4, 0, 2], 5), ([1], 3), ([0, 1, 2, 3], 4), ([], 2)):
        m = _gauss(rng, len(sel), len(sel))
        padded = embedding(np.array(sel, dtype=int), dim).apply(m)
        assert padded.shape == (dim, dim)
        assert np.array_equal(compression(np.array(sel, dtype=int), dim).apply(padded), m)


def _block_selectors():
    """Selectors of the F blocks and of the identity block of two
    representations, and a scattered one, with their dimension."""
    finite = CovariantRep(ConcreteAlgebra(5), cyclic_coordinate_rotation(5, 2), 1.5)
    line = CovariantRep(ConcreteAlgebra(2), IsometricAction(ZWindow(4), generator=np.eye(2)), 3.0,
                        window_radius=4)
    cases = [(np.array([6, 1, 3]), 7)]
    for rep, folner in ((finite, (4, 0, 1)), (line, (-1, 0, 1, 2))):
        cases.append((rep.block_selector(folner), rep.dimension))
        cases.append((rep.block_selector([rep.identity_position]), rep.dimension))
    return cases


@pytest.mark.parametrize("case", range(5))
def test_embedding_after_compression_is_the_dense_coordinate_projection(case):
    sel, dim = _block_selectors()[case]
    proj = np.zeros((dim, dim), dtype=complex)
    proj[sel, sel] = 1.0
    t = _gauss(np.random.default_rng(case), dim, dim)
    cut = embedding(sel, dim).compose(compression(sel, dim))
    assert np.array_equal(cut.apply(t), proj @ t @ proj)
    assert np.array_equal(compression(sel, dim).apply(t), t[np.ix_(sel, sel)])


def test_block_selector_refuses_positions_outside_the_window():
    rep = CovariantRep(ConcreteAlgebra(2), IsometricAction(ZWindow(3), generator=np.eye(2)), 2.0,
                       window_radius=3)
    assert rep.block_selector([-3, 3]).tolist() == [0, 1, 12, 13]
    with pytest.raises(ValueError, match="outside the representation window"):
        rep.block_selector([0, 4])
