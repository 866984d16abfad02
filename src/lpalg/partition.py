"""Partitions of unity on a discretized circle.

The continuous functions on a compact space factor approximately through a
finite-dimensional diagonal algebra: evaluate at finitely many sample
points, then blend the sampled values back with a partition of unity.  Here
the space is a grid of n equally spaced points on the unit circle, the
bumps are piecewise-linear tents (in angle) centered at every
``spacing``-th grid point, and functions are plain value vectors over the
grid.

The two maps of the factorization are

    point_eval  f  |->  (f(y_1), ..., f(y_m))        (into diagonal M_m)
    blend       (d_1, ..., d_m)  |->  sum_i d_i sigma_i

and the reconstruction error is controlled by how much f moves across each
bump's patch: |f(x) - sum_i sigma_i(x) f(y_i)| <= max_i sup_{x in U_i}
|f(x) - f(y_i)| because the weights are a convex combination.

Both maps are p-completely contractive by their form.  Point evaluation is
the compression of the diagonal to the sample points, and blending sends
the fibres d_i to the fibre sum_i sigma_i(x) d_i at x, so the largest
column sum of the bumps, max_x sum_i sigma_i(x), bounds it at every level
(``opspace.weighted_sum_cb``, rounded up); both give structural bounds
through :mod:`lpalg.opspace`.  The sampled certificates here cross-check
them through the block-diagonal structure: a matrix-valued field over the
grid acts on l^p(grid) (x) l^p_k as a direct sum, so its operator norm is
the maximum of the small fiber norms, and no large-matrix estimation is
involved.
"""

from __future__ import annotations

import numpy as np

from .groups import Record, as_integer
from .lpnorm import as_exponent, as_generator, pnorm_estimate_stack, validate_vector
from .opspace import CbEstimate

__all__ = [
    "PartitionOfUnity",
    "circle_function",
    "circle_partition",
    "cx_partition_psi",
    "cx_phi_cb_certificate",
    "cx_point_eval_phi",
    "cx_psi_cb_certificate",
    "grid_angles",
    "partition_roundtrip",
]

_SUM_TOL = 1e-12


class PartitionOfUnity(Record):
    """Nonnegative bump vectors over a finite grid that sum to one.

    points: one sample point index per bump, lying inside that bump's patch.
    bumps:  array of shape (n_bumps, n_points), bump i as a vector of values.
    cover:  boolean array of the same shape, row i the patch of bump i; the
            bump must vanish off its patch.

    Read-only (a :class:`lpalg.groups.Record`).
    """

    def __init__(self, points: tuple, bumps: np.ndarray, cover: np.ndarray):
        bumps = np.asarray(bumps, dtype=float)
        if bumps.ndim != 2 or bumps.shape[0] == 0:
            raise ValueError("bumps must be a nonempty (n_bumps, n_points) array")
        cover = np.asarray(cover)
        if cover.dtype != bool or cover.shape != bumps.shape:
            raise ValueError(f"cover must be a boolean array of shape {bumps.shape}, got {cover.dtype} {cover.shape}")
        points = tuple(as_integer(y, "sample point") for y in points)
        if len(points) != bumps.shape[0]:
            raise ValueError("need exactly one sample point per bump")
        if not np.isfinite(bumps).all():
            raise ValueError("bumps must be finite")
        if bumps.min() < 0.0:
            raise ValueError("bumps must be nonnegative")
        colsums = bumps.sum(axis=0)
        worst = float(np.abs(colsums - 1.0).max())
        if worst > _SUM_TOL:
            raise ValueError(f"bumps must sum to 1 at every grid point (off by {worst:.3e})")
        pts = np.array(points)
        off = (pts < 0) | (pts >= bumps.shape[1])
        if off.any():
            i = int(off.argmax())
            raise ValueError(f"sample point {points[i]} of bump {i} is off the grid")
        stray = (bumps != 0.0) & ~cover  # the nonzeros of each bump off its patch
        lost = ~cover[np.arange(len(points)), pts]
        i = int((stray.any(axis=1) | lost).argmax())  # the first failing bump, if any
        if stray[i].any():
            raise ValueError(f"bump {i} is nonzero outside its patch at {np.flatnonzero(stray[i]).tolist()}")
        if lost[i]:
            raise ValueError(f"sample point {points[i]} of bump {i} is outside its patch")
        self._set(points=points, bumps=bumps, cover=cover)

    @property
    def n_points(self) -> int:
        return self.bumps.shape[1]

    @property
    def n_bumps(self) -> int:
        return self.bumps.shape[0]


def grid_angles(n_points: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(n_points) / n_points


def circle_function(name: str, n_points: int) -> np.ndarray:
    """Named test functions as value vectors over the circle grid."""
    theta = grid_angles(n_points)
    table = {
        "one": np.ones(n_points, dtype=complex),
        "z": np.exp(1j * theta),
        "z2": np.exp(2j * theta),
        "re_z": np.cos(theta).astype(complex),
    }
    if name not in table:
        raise ValueError(f"unknown circle function {name!r}; choose from {sorted(table)}")
    return table[name]


def circle_partition(n_points: int = 64, n_arcs: int = 8) -> PartitionOfUnity:
    """Tent functions centered at every (n_points/n_arcs)-th grid point.

    Tent i peaks at center c_i = i*spacing and falls linearly to zero over
    one spacing on each side, so adjacent tents overlap and the total is
    exactly one everywhere (the two weights at any grid point are the
    linear-interpolation coefficients between neighboring centers).  The
    patch of tent i is the closed arc of radius one spacing around c_i.
    With spacing 1 the tents degenerate to coordinate indicators and the
    factorization becomes exact.
    """
    # one arc would be one tent of half-width n_points, which never falls to
    # zero on the circle, so it cannot sum to 1: two arcs at least
    n_points, n_arcs = as_integer(n_points, "n_points", 2), as_integer(n_arcs, "n_arcs", 2)
    if n_points % n_arcs != 0:
        raise ValueError("n_arcs must divide n_points so the centers sit on the grid")
    spacing = n_points // n_arcs
    centers = spacing * np.arange(n_arcs)
    j = np.arange(n_points)
    dist = np.abs(j[None, :] - centers[:, None])
    dist = np.minimum(dist, n_points - dist)
    bumps = np.clip(1.0 - dist / spacing, 0.0, None)
    # the larger of a point's two tents is at least 1/2, so 1 minus it is
    # exact (Sterbenz): the smaller is set to that, and each column sums to 1
    larger = bumps.max(axis=0)
    smaller = (bumps > 0.0) & (bumps < larger)
    bumps[smaller] = np.broadcast_to(1.0 - larger, bumps.shape)[smaller]
    return PartitionOfUnity(points=tuple(centers.tolist()), bumps=bumps, cover=dist <= spacing)


def cx_point_eval_phi(f_values, points) -> np.ndarray:
    """Evaluate a function vector, read by ``validate_vector``, at the
    sample points, each read by ``as_integer`` as in :class:`PartitionOfUnity`."""
    f = validate_vector(f_values, what="grid vector")
    idx = [as_integer(y, "sample point") for y in points]
    if not idx:
        raise ValueError("need at least one sample point")
    if not all(0 <= y < f.size for y in idx):
        raise ValueError("sample point index outside the grid")
    return f[idx]


def cx_partition_psi(d, partition: PartitionOfUnity) -> np.ndarray:
    """Blend sampled values back over the grid: sum_i d_i sigma_i, d read
    by ``validate_vector``."""
    return validate_vector(d, partition.n_bumps, "sample vector") @ partition.bumps


def partition_roundtrip(partition: PartitionOfUnity, f_values) -> dict:
    """Reconstruct f from its samples and report the error and its bound.

    ``error`` is the sup norm of the reconstruction defect on the grid.
    ``bound`` is max_i sup_{x in patch_i} |f(x) - f(y_i)| — the oscillation
    of f around each sample point over that bump's patch, which dominates
    the error because the bump weights are a convex combination supported
    in the patches.
    """
    f = validate_vector(f_values, partition.n_points, "grid vector")
    samples = cx_point_eval_phi(f, partition.points)
    error = float(np.abs(cx_partition_psi(samples, partition) - f).max())
    moves = np.abs(f - samples[:, None])  # row i: |f(x) - f(y_i)| over the grid
    return {"error": error, "bound": float(moves.max(where=partition.cover, initial=0.0))}


# ---------------------------------------------------------------------------
# cb certificates via exact direct-sum fiber norms
# ---------------------------------------------------------------------------


def _field_norm(field: np.ndarray, pe) -> float:
    """Norm of a matrix field acting block-diagonally on l^p(grid) (x) l^p_k:
    the largest fiber norm, all fibers estimated in one stacked call."""
    return max(est.value for est in pnorm_estimate_stack(field, pe, restarts=8, max_iters=60))


def _sampled_field_cb(first, apply, size: int, p, n_max: int, trials: int, rng) -> CbEstimate:
    """Sampled lower bounds for the cb norm of a fiberwise map of fields.

    Level k compares ||apply(field)|| with ||field|| on the structured field
    first(k) and on ``trials`` random (size, k, k) fields; each level keeps
    the running maximum of the ratios.  ``n_max`` and ``trials`` must be
    integers (a float or a bool is refused, see :func:`lpalg.groups.as_integer`),
    ``n_max`` at least 1 and ``trials`` at least 0.
    """
    n_max, trials = as_integer(n_max, "n_max", 1), as_integer(trials, "trials", 0)
    pe = as_exponent(p)
    gen = as_generator(rng)
    levels = []
    running = 0.0
    for k in range(1, n_max + 1):
        inputs = [first(k)]
        inputs.extend(
            gen.standard_normal((size, k, k)) + 1j * gen.standard_normal((size, k, k))
            for _ in range(trials)
        )
        best = 0.0
        for field in inputs:
            den = _field_norm(field, pe)
            if den <= 1e-12:
                continue
            best = max(best, _field_norm(apply(field), pe) / den)
        running = max(running, best)
        levels.append((k, running))
    return CbEstimate(levels=levels)


def cx_phi_cb_certificate(
    partition: PartitionOfUnity, p, n_max: int = 3, trials: int = 8, *, rng=None
) -> CbEstimate:
    """Sampled lower bounds for the cb norm of point evaluation.

    Level k inputs are random M_k-valued fields over the grid; the amplified
    map keeps the fibers at the sample points.  Both norms decompose into
    small fiber norms, so each ratio is computed without any large-matrix
    estimation.  A field concentrated at a sample point witnesses ratio 1
    exactly (the map is a fiber selection, never expansive).
    """
    pts = np.asarray(partition.points, dtype=int)

    def peak(k: int) -> np.ndarray:
        field = np.zeros((partition.n_points, k, k), dtype=complex)
        field[pts[0]] = np.eye(k)
        return field

    return _sampled_field_cb(peak, lambda field: field[pts], partition.n_points, p, n_max, trials, rng)


def cx_psi_cb_certificate(
    partition: PartitionOfUnity, p, n_max: int = 3, trials: int = 8, *, rng=None
) -> CbEstimate:
    """Sampled bounds for the cb norm of blending, expected to sit at 1.

    The amplified map sends (D_1, ..., D_m) to the field sum_i sigma_i(x) D_i.
    Every output fiber is a convex combination of the inputs (ratio <= 1),
    and the fiber at sample point y_i is exactly D_i (ratio >= 1), so the
    map is completely isometric; the certificate should pin each level to 1
    up to fiber estimator noise.
    """
    return _sampled_field_cb(
        lambda k: np.tile(np.eye(k, dtype=complex), (partition.n_bumps, 1, 1)),
        lambda d: np.einsum("ix,ikl->xkl", partition.bumps, d),
        partition.n_bumps, p, n_max, trials, rng,
    )
