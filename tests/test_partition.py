"""Tests for circle partitions of unity and the point-evaluation leg."""

import numpy as np
import pytest

from lpalg.partition import (
    PartitionOfUnity,
    circle_function,
    circle_partition,
    cx_partition_psi,
    cx_phi_cb_certificate,
    cx_point_eval_phi,
    cx_psi_cb_certificate,
    grid_angles,
    partition_roundtrip,
)

SUM_TOL = 1e-12
FROZEN_TOL = 1e-12


def test_bumps_sum_to_one_exactly():
    part = circle_partition(64, 8)
    assert np.abs(part.bumps.sum(axis=0) - 1.0).max() == 0.0


def test_partition_shapes():
    part = circle_partition(16, 4)
    assert part.bumps.shape == (4, 16)
    assert part.points == (0, 4, 8, 12)
    assert len(part.cover) == 4


def test_roundtrip_coordinate_function():
    part = circle_partition(64, 8)
    z = np.exp(1j * grid_angles(64))
    rt = partition_roundtrip(part, z)
    # oscillation of z over an arc of width 2*pi/8 around its center
    assert rt["error"] == pytest.approx(0.07612046748871328, abs=FROZEN_TOL)
    assert rt["bound"] == pytest.approx(2 * np.sin(np.pi / 8), abs=FROZEN_TOL)
    assert rt["error"] <= rt["bound"] + 1e-12


def test_roundtrip_squared_coordinate():
    part = circle_partition(64, 8)
    angles = grid_angles(64)
    rt = partition_roundtrip(part, np.exp(2j * angles))
    assert rt["error"] == pytest.approx(0.29289321881345265, abs=FROZEN_TOL)
    assert rt["bound"] == pytest.approx(2 * np.sin(np.pi / 4), abs=FROZEN_TOL)


def test_roundtrip_real_part():
    part = circle_partition(64, 8)
    rt = partition_roundtrip(part, np.cos(grid_angles(64)))
    assert rt["error"] == pytest.approx(0.07032614191801301, abs=FROZEN_TOL)
    assert rt["bound"] == pytest.approx(1 / np.sqrt(2), abs=FROZEN_TOL)


def test_roundtrip_constants_are_exact():
    part = circle_partition(64, 8)
    rt = partition_roundtrip(part, np.ones(64))
    assert rt["error"] == 0.0
    assert rt["bound"] == 0.0


def test_one_arc_per_point_reconstructs_exactly():
    part = circle_partition(8, 8)
    values = np.exp(1j * grid_angles(8))
    rt = partition_roundtrip(part, values)
    assert rt["error"] <= 1e-15


def test_circle_function_evaluates_on_grid():
    vals = circle_function("z", 4)
    assert np.allclose(vals, [1.0, 1j, -1.0, -1j], atol=1e-15)
    with pytest.raises(ValueError):
        circle_function("tan", 4)


def test_point_eval_extracts_arc_centers():
    part = circle_partition(16, 4)
    f_values = np.exp(1j * grid_angles(16))
    out = cx_point_eval_phi(f_values, part.points)
    assert out.shape == (4,)
    assert np.array_equal(out, f_values[list(part.points)])


def test_partition_psi_blends_point_values():
    part = circle_partition(16, 4)
    d = np.array([1.0, 1.0, 1.0, 1.0], dtype=complex)
    blended = cx_partition_psi(d, part)
    assert np.allclose(blended, 1.0, atol=1e-15)


def test_cx_leg_certificates_are_exactly_one():
    part = circle_partition(16, 4)
    for p in (1.0, 2.0, 3.0):
        phi = cx_phi_cb_certificate(part, p, n_max=2, trials=3,
                                    rng=np.random.default_rng(3))
        psi = cx_psi_cb_certificate(part, p, n_max=2, trials=3,
                                    rng=np.random.default_rng(4))
        assert all(v == 1.0 for _, v in phi.levels)
        assert all(v == 1.0 for _, v in psi.levels)


def test_partition_validation():
    good = circle_partition(8, 2)
    with pytest.raises(ValueError):
        PartitionOfUnity(points=good.points, bumps=-good.bumps, cover=good.cover)
    with pytest.raises(ValueError):
        PartitionOfUnity(points=good.points, bumps=0.5 * good.bumps, cover=good.cover)
    with pytest.raises(ValueError):
        circle_partition(8, 3)  # arcs must divide the grid
