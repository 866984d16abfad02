"""Tests for linear maps on matrix spaces and completely bounded norms."""

import numpy as np
import pytest

from lpalg.opspace import (
    CbEstimate,
    LinearMap,
    apply_amplified,
    block_matrix,
    cb_norm_lower,
    compression_cb,
    split_blocks,
)

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
    assert np.array_equal(composed(x), 2.0 * x.T)


def test_linear_map_shape_mismatch_raises():
    lm = LinearMap(2, 2, apply_fn=lambda a: np.asarray(a, dtype=complex))
    with pytest.raises(ValueError):
        lm(np.zeros((3, 3)))


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


def test_cb_estimate_best():
    est = CbEstimate(levels=[(1, 0.7), (2, 0.9), (3, 1.3)])
    assert est.best == 1.3


# ---------------------------------------------------------------------------
# the structural certificate of a coordinate compression
# ---------------------------------------------------------------------------

def test_compression_cb_is_the_structural_bound_one():
    cb = compression_cb(np.array([4, 0, 2]), 5, 3)
    assert cb.kind == "structural"
    assert cb.levels == [(1, 1.0), (2, 1.0), (3, 1.0)]
    assert CbEstimate().kind == "sampled_lower"


def test_compression_cb_refuses_a_repeated_index():
    with pytest.raises(ValueError):
        compression_cb(np.array([0, 0]), 2, 2)
    # the map it would certify sends e_00 to the all-ones 2 x 2 matrix, of norm 2
    doubled = LinearMap(2, 2, apply_fn=lambda t: np.asarray(t, dtype=complex)[np.ix_([0, 0], [0, 0])])
    sampled = cb_norm_lower(doubled, 1.5, n_max=2, trials=4, rng=np.random.default_rng(7))
    assert sampled.levels[0][1] == pytest.approx(2.0, rel=1e-9)
    assert sampled.best > 1.0 + CB_SLACK


@pytest.mark.parametrize("sel", [[0, 3], [-1, 1], [[0, 1]], [0.0, 1.0]])
def test_compression_cb_refuses_indices_outside_the_domain(sel):
    with pytest.raises(ValueError):
        compression_cb(np.array(sel), 3, 2)
