"""Tests for circle partitions of unity and the point-evaluation leg."""

import re

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
    assert part.cover.shape == (4, 16) and part.cover.dtype == bool


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


@pytest.mark.parametrize("certificate", [cx_phi_cb_certificate, cx_psi_cb_certificate])
@pytest.mark.parametrize("n_max, trials", [(0, 8), (2, -3)])
def test_a_field_certificate_needs_a_level_and_no_negative_trials(certificate, n_max, trials):
    # n_max=0 used to give no levels, and trials=-3 ran as 0
    name, least, value = ("n_max", 1, n_max) if n_max < 1 else ("trials", 0, trials)
    message = f"{name} must be an integer >= {least}, got {value}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        certificate(circle_partition(6, 3), 1.5, n_max=n_max, trials=trials)


def test_partition_validation():
    good = circle_partition(8, 2)
    with pytest.raises(ValueError):
        PartitionOfUnity(points=good.points, bumps=-good.bumps, cover=good.cover)
    with pytest.raises(ValueError):
        PartitionOfUnity(points=good.points, bumps=0.5 * good.bumps, cover=good.cover)
    with pytest.raises(ValueError):
        circle_partition(8, 3)  # arcs must divide the grid
    for n_points in (2, 3, 8):  # one tent never falls to zero on the circle, so it cannot sum to 1
        with pytest.raises(ValueError, match="^n_arcs must be an integer >= 2, got 1$"):
            circle_partition(n_points, 1)
    with pytest.raises(ValueError, match="^n_points must be an integer >= 2, got 1$"):
        circle_partition(1, 2)


@pytest.mark.parametrize("n_points, n_arcs, name", [(8, 2.0, "n_arcs"), (8.0, 4, "n_points")])
def test_a_circle_partition_takes_integer_arguments(n_points, n_arcs, name):
    # both used to fail as "sample point must be an integer, got 0.0"
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 2, got "):
        circle_partition(n_points, n_arcs)


def _with_cover(part, **changes):
    """The partition's points and cover with some patches (given by their
    grid indices) or points replaced."""
    cover = part.cover.copy()
    points = list(part.points)
    for i, patch in changes.get("cover", {}).items():
        cover[i] = False
        cover[i, list(patch)] = True
    for i, y in changes.get("points", {}).items():
        points[i] = y
    return PartitionOfUnity(points=points, bumps=part.bumps, cover=cover)


def test_partition_refusals_name_the_first_failing_bump():
    good = circle_partition(12, 4)  # spacing 3: patch i is the 7 points within 3 of 3i
    assert np.flatnonzero(good.cover[1]).tolist() == [0, 1, 2, 3, 4, 5, 6]
    with pytest.raises(ValueError, match="bumps must be nonnegative"):
        bumps = good.bumps.copy()
        bumps[0, 0] = -1e-300
        PartitionOfUnity(points=good.points, bumps=bumps, cover=good.cover)
    with pytest.raises(ValueError, match=r"bumps must sum to 1 at every grid point \(off by 1\.000e-09\)"):
        bumps = good.bumps.copy()
        bumps[2, 6] += 1e-9
        PartitionOfUnity(points=good.points, bumps=bumps, cover=good.cover)
    with pytest.raises(ValueError, match=re.escape("bump 1 is nonzero outside its patch at [1, 5]")):
        _with_cover(good, cover={1: (0, 2, 3, 4, 6), 2: (6,)})
    with pytest.raises(ValueError, match=re.escape("sample point 7 of bump 1 is outside its patch")):
        _with_cover(good, points={1: 7, 2: 0})
    # within one bump a stray nonzero is named before its sample point
    with pytest.raises(ValueError, match=re.escape("bump 2 is nonzero outside its patch at [4]")):
        _with_cover(good, cover={2: (5, 6, 7, 8, 9, 10)}, points={2: 11, 3: 0})
    # a patch is a row of the grid's mask, so it cannot reach off the grid,
    # and neither can a sample point
    with pytest.raises(ValueError, match=re.escape("cover must be a boolean array of shape (4, 12)")):
        PartitionOfUnity(points=good.points, bumps=good.bumps, cover=np.pad(good.cover, ((0, 0), (0, 2))))
    for y in (12, -4):
        with pytest.raises(ValueError, match=re.escape(f"sample point {y} of bump 0 is off the grid")):
            _with_cover(good, points={0: y})


def test_partition_sample_points_must_be_integers():
    # the points (0.7, 2.7, 4.7) used to become (0, 2, 4)
    good = circle_partition(6, 3)
    assert good.points == (0, 2, 4)
    for points in ((0.7, 2.7, 4.7), (0, 2.0, 4), (0, True, 4)):
        with pytest.raises(ValueError, match="^sample point must be an integer, got "):
            PartitionOfUnity(points, good.bumps, good.cover)
    assert PartitionOfUnity(np.array(good.points), good.bumps, good.cover).points == (0, 2, 4)


@pytest.mark.parametrize("cover", [
    lambda c: c.astype(int),
    lambda c: c.astype(float),
    lambda c: c[:, :-1],
    lambda c: c[:-1],
    lambda c: c.T,
    lambda c: tuple(tuple(np.flatnonzero(row).tolist()) for row in c),  # patches as index tuples
], ids=["int", "float", "short rows", "missing patch", "transposed", "index tuples"])
def test_partition_refuses_a_cover_of_the_wrong_shape_or_dtype(cover):
    good = circle_partition(8, 2)
    with pytest.raises(ValueError, match="cover must be a boolean array of shape"):
        PartitionOfUnity(points=good.points, bumps=good.bumps, cover=cover(good.cover))


@pytest.mark.parametrize("n, k", [(2, 2), (6, 3), (8, 8), (12, 4), (12, 6), (16, 4), (30, 5), (64, 8)])
def test_oscillation_bound_is_the_largest_move_over_each_patch(n, k):
    part = circle_partition(n, k)
    rng = np.random.default_rng(n * 100 + k)
    samples = [circle_function(name, n) for name in ("one", "z", "z2", "re_z")]
    samples.append(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    for f in samples:
        # one patch at a time, as index arrays (Python's scalar abs may round
        # a complex modulus one ulp away from numpy's array abs)
        brute = max(float(np.abs(f[np.flatnonzero(patch)] - f[y]).max()) for y, patch in zip(part.points, part.cover))
        assert partition_roundtrip(part, f)["bound"] == brute
