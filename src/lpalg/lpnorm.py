"""Operator norms on finite-dimensional l^p spaces.

All spaces are l^p over a finite index set with counting measure, so a
matrix A in C^{m x n} is an operator l^p(n) -> l^p(m) and

    ||A||_{p->p} = sup { ||A x||_p : ||x||_p = 1 }.

Exact formulas exist for p in {1, 2, inf}: maximum column sum of moduli,
largest singular value, and maximum row sum of moduli.  For every other
exponent the supremum is the value of a nonconvex maximization, so it is
approached from below along two independent routes:

* :func:`pnorm_estimate` runs the dual power iteration

      x  <-  dualmap_q( A* . dualmap_p( A x ) ),   normalized in l^p,

  from many random starts and returns the best certified lower bound
  together with the witness vector that attains it.
* :func:`pnorm_oracle` maximizes ||A x||_p directly, by projected gradient
  ascent with a vectorized line search from random unit vectors plus the
  extreme points of the unit ball that are optimal when p is 1 or inf.
  It never shares iterates with the power iteration and is restricted to
  small matrices; tests treat it as ground truth.

Complex scalars are used throughout, with sign(z) = z / |z| and
sign(0) = 0.  The adjoint is the conjugate transpose, so that
<A x, y> = <x, A* y> for the pairing <u, v> = sum_i u_i conj(v_i), and
||A||_{p->p} = ||A*||_{q->q} for conjugate exponents 1/p + 1/q = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionGuardError, UnsupportedExponentError

__all__ = [
    "PExponent",
    "PNormEstimate",
    "adjoint",
    "as_exponent",
    "dual_vector",
    "pnorm_estimate",
    "pnorm_exact",
    "pnorm_oracle",
    "validate_matrix",
    "vector_pnorm",
]

_ORACLE_DIM_CAP = 6


@dataclass(frozen=True)
class PExponent:
    """An exponent p in [1, inf] together with its conjugate q, 1/p + 1/q = 1.

    ``PExponent(1)`` has q = inf and ``PExponent(math.inf)`` has q = 1.
    """

    p: float
    q: float = field(init=False)

    def __post_init__(self):
        p = float(self.p)
        if math.isnan(p) or p < 1.0:
            raise ValueError(f"exponent must lie in [1, inf], got {self.p!r}")
        object.__setattr__(self, "p", p)
        if p == 1.0:
            q = math.inf
        elif math.isinf(p):
            q = 1.0
        else:
            q = p / (p - 1.0)
        object.__setattr__(self, "q", q)

    @property
    def is_one(self) -> bool:
        return self.p == 1.0

    @property
    def is_two(self) -> bool:
        return self.p == 2.0

    @property
    def is_inf(self) -> bool:
        return math.isinf(self.p)

    @property
    def has_exact_formula(self) -> bool:
        return self.is_one or self.is_two or self.is_inf

    def conjugate(self) -> "PExponent":
        return PExponent(self.q)

    def __repr__(self) -> str:
        return f"PExponent(p={self.p}, q={self.q})"


def as_exponent(p) -> PExponent:
    """Coerce a float, int, or PExponent into a PExponent."""
    if isinstance(p, PExponent):
        return p
    return PExponent(float(p))


@dataclass
class PNormEstimate:
    """A certified lower bound for ||A||_{p->p}.

    ``witness`` is a unit vector in l^p with ||A witness||_p equal to
    ``value``, so the value is a valid lower bound regardless of whether
    the iteration converged.  ``method`` records which route produced it.
    """

    value: float
    witness: np.ndarray
    method: str  # "exact" | "power-iteration" | "oracle"
    converged: bool
    restarts_used: int


def validate_matrix(a) -> np.ndarray:
    """Return ``a`` as a 2-D complex ndarray, rejecting non-finite entries."""
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ValueError(f"expected a nonempty 2-D matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError("matrix entries must be finite")
    return arr


def adjoint(a) -> np.ndarray:
    """Conjugate transpose of ``a``."""
    return validate_matrix(a).conj().T


def vector_pnorm(x, p) -> float:
    """l^p norm of a complex vector; p may be any value in [1, inf]."""
    pe = as_exponent(p)
    arr = np.asarray(x, dtype=complex).ravel()
    if arr.size == 0:
        raise ValueError("vector_pnorm of an empty vector")
    mags = np.abs(arr)
    if pe.is_inf:
        return float(mags.max())
    if pe.is_one:
        return float(mags.sum())
    top = float(mags.max())
    if top == 0.0:
        return 0.0
    # scale by the largest modulus so that mags**p cannot overflow
    return float(top * (((mags / top) ** pe.p).sum()) ** (1.0 / pe.p))


def _sign(z: np.ndarray) -> np.ndarray:
    mags = np.abs(z)
    out = np.zeros_like(z)
    nz = mags > 0.0
    out[nz] = z[nz] / mags[nz]
    return out


def dual_vector(y, p) -> np.ndarray:
    """Unit-l^q norming functional of ``y``: <y, u> = ||y||_p, ||u||_q = 1.

    Entries follow sign(y_i) |y_i|^{p-1} rescaled to unit l^q norm, with the
    extreme-point choices at p = 1 (pure sign vector) and p = inf (signed
    coordinate vector at a maximizing index).  Returns the zero vector when
    ``y`` is zero.
    """
    pe = as_exponent(p)
    arr = np.asarray(y, dtype=complex).ravel()
    mags = np.abs(arr)
    if not mags.any():
        return np.zeros_like(arr)
    if pe.is_one:
        return _sign(arr)
    if pe.is_inf:
        out = np.zeros_like(arr)
        k = int(np.argmax(mags))
        out[k] = arr[k] / mags[k]
        return out
    u = _sign(arr) * (mags / mags.max()) ** (pe.p - 1.0)
    return u / vector_pnorm(u, pe.q)


def _pnorms_along(y: np.ndarray, p: float, axis: int) -> np.ndarray:
    mags = np.abs(y)
    if math.isinf(p):
        return mags.max(axis=axis)
    if p == 1.0:
        return mags.sum(axis=axis)
    tops = mags.max(axis=axis, keepdims=True)
    safe = np.where(tops > 0.0, tops, 1.0)
    vals = ((mags / safe) ** p).sum(axis=axis) ** (1.0 / p)
    return np.squeeze(safe, axis=axis) * vals


def _column_pnorms(y: np.ndarray, p: float) -> np.ndarray:
    return _pnorms_along(y, p, axis=0)


def _dual_columns(y: np.ndarray, p: float) -> np.ndarray:
    """Columnwise unnormalized dual directions sign(y) |y|^{p-1} (finite p > 1)."""
    mags = np.abs(y)
    tops = mags.max(axis=0)
    safe = np.where(tops > 0.0, tops, 1.0)
    signs = np.zeros_like(y)
    nz = mags > 0.0
    signs[nz] = y[nz] / mags[nz]
    return signs * (mags / safe) ** (p - 1.0)


def _norming_columns(y: np.ndarray, p: float, q: float) -> np.ndarray:
    """Columnwise norming functionals: unit-l^q duals with <y, u> = ||y||_p."""
    u = _dual_columns(y, p)
    qnorms = _column_pnorms(u, q)
    return u / np.where(qnorms > 0.0, qnorms, 1.0)


def _normalize_columns(x: np.ndarray, p: float) -> np.ndarray:
    norms = _column_pnorms(x, p)
    safe = np.where(norms > 0.0, norms, 1.0)
    return x / safe


def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    if rng is None:
        return np.random.default_rng(0)
    return np.random.default_rng(rng)


def _exact_value_and_witness(a: np.ndarray, pe: PExponent) -> tuple[float, np.ndarray]:
    m, n = a.shape
    if pe.is_one:
        col_sums = np.abs(a).sum(axis=0)
        j = int(np.argmax(col_sums))
        witness = np.zeros(n, dtype=complex)
        witness[j] = 1.0
        return float(col_sums[j]), witness
    if pe.is_inf:
        row_sums = np.abs(a).sum(axis=1)
        k = int(np.argmax(row_sums))
        row = a[k]
        witness = np.ones(n, dtype=complex)
        nz = np.abs(row) > 0.0
        witness[nz] = row[nz].conj() / np.abs(row[nz])
        return float(row_sums[k]), witness
    # p = 2: top right singular vector
    _, s, vh = np.linalg.svd(a)
    witness = vh[0].conj()
    return float(s[0]), witness


def pnorm_exact(a, p) -> float:
    """||A||_{p->p} by closed formula, for p in {1, 2, inf} only.

    Raises :class:`UnsupportedExponentError` for any other exponent.
    """
    pe = as_exponent(p)
    arr = validate_matrix(a)
    if not pe.has_exact_formula:
        raise UnsupportedExponentError(
            f"no exact formula for p = {pe.p}; use pnorm_estimate or pnorm_oracle"
        )
    value, _ = _exact_value_and_witness(arr, pe)
    return value


def pnorm_estimate(
    a,
    p,
    *,
    restarts: int = 32,
    max_iters: int = 100,
    tol: float = 1e-10,
    rng=None,
) -> PNormEstimate:
    """Certified lower bound for ||A||_{p->p} via the dual power iteration.

    For p in {1, 2, inf} the exact formula is used and the result is tagged
    ``method="exact"`` with zero restarts.  Otherwise ``restarts`` random
    complex starting vectors are iterated simultaneously; the reported value
    is the best value of ||A x||_p seen at any iterate, and ``converged``
    states whether the winning restart stagnated below ``tol`` before the
    iteration cap.

    :param a: complex matrix, square or rectangular.
    :param p: exponent in [1, inf].
    :param restarts: number of random starting vectors (at least 1).
    :param max_iters: iteration cap per restart.
    :param tol: relative stagnation threshold.
    :param rng: ``numpy.random.Generator``, seed int, or None (seed 0).
    """
    pe = as_exponent(p)
    arr = validate_matrix(a)
    if pe.has_exact_formula:
        value, witness = _exact_value_and_witness(arr, pe)
        return PNormEstimate(value, witness, "exact", True, 0)
    if restarts < 1:
        raise ValueError("restarts must be a positive integer")
    gen = _as_rng(rng)
    m, n = arr.shape
    # iterate on 2^-e A, largest modulus in [1, 2): exact, and clear of underflow
    e = math.frexp(float(np.abs(arr).max()))[1] - 1
    if e:
        arr = arr * math.ldexp(1.0, -e // 2) * math.ldexp(1.0, -e - (-e // 2))

    x = gen.standard_normal((n, restarts)) + 1j * gen.standard_normal((n, restarts))
    x[:, 0] = 1.0  # one deterministic start alongside the random ones
    x = _normalize_columns(x, pe.p)
    a_h = arr.conj().T

    best_val = -np.inf
    best_witness = x[:, 0].copy()
    best_col = 0
    prev_vals = np.full(restarts, -np.inf)
    stagnant = np.zeros(restarts, dtype=bool)

    for _ in range(max_iters):
        y = arr @ x
        vals = _column_pnorms(y, pe.p)
        top = int(np.argmax(vals))
        if vals[top] > best_val:
            best_val = float(vals[top])
            best_witness = x[:, top].copy()
            best_col = top
        stagnant |= np.abs(vals - prev_vals) <= tol * vals
        prev_vals = vals
        if stagnant.all():
            break
        u = _dual_columns(y, pe.p)
        z = a_h @ u
        x_next = _normalize_columns(_dual_columns(z, pe.q), pe.p)
        dead = _column_pnorms(x_next, pe.p) == 0.0
        if dead.any():
            x_next[:, dead] = x[:, dead]
            stagnant |= dead
        x = x_next

    if best_val <= 0.0:
        witness = np.zeros(n, dtype=complex)
        witness[0] = 1.0
        return PNormEstimate(0.0, witness, "power-iteration", True, restarts)

    witness = best_witness / vector_pnorm(best_witness, pe)
    value = math.ldexp(vector_pnorm(arr @ witness, pe), e)
    return PNormEstimate(value, witness, "power-iteration", bool(stagnant[best_col]), restarts)


def pnorm_oracle(
    a,
    p,
    samples: int = 64,
    *,
    rng=None,
    max_iters: int = 200,
) -> float:
    """Brute-force lower bound for ||A||_{p->p} on matrices of dimension <= 6.

    Candidate unit vectors are random complex starts, the standard basis
    vectors (these exhaust the extreme points of the unit l^1 ball up to
    phase), and a phase-aligned vector per row (optimal for p = inf).  For
    1 < p < inf every candidate is refined by projected gradient ascent on
    ||A x||_p / ||x||_p with a vectorized line search along the gradient.

    The search never shares code with the dual power iteration, so the two
    routes cross-check each other.
    """
    pe = as_exponent(p)
    arr = validate_matrix(a)
    m, n = arr.shape
    if max(m, n) > _ORACLE_DIM_CAP:
        raise DimensionGuardError(
            f"pnorm_oracle is capped at dimension {_ORACLE_DIM_CAP}, got shape {arr.shape}"
        )
    if samples < 1:
        raise ValueError("samples must be a positive integer")
    gen = _as_rng(rng)

    nz = np.abs(arr) > 0.0
    aligned = np.where(nz, arr.conj() / np.where(nz, np.abs(arr), 1.0), 1.0).T
    random_starts = gen.standard_normal((n, samples)) + 1j * gen.standard_normal((n, samples))
    x = _normalize_columns(
        np.concatenate([np.eye(n, dtype=complex), aligned, random_starts], axis=1), pe.p
    )

    vals = _column_pnorms(arr @ x, pe.p)
    if pe.is_one or pe.is_inf:
        # the basis / phase-aligned candidates attain the extreme-point optimum
        return float(vals.max())

    a_h = arr.conj().T
    steps = np.concatenate([[0.0], np.geomspace(1e-7, 2.0, 16)])
    best = float(vals.max())
    flat_rounds = 0
    for _ in range(max_iters):
        y = arr @ x
        ratio = _column_pnorms(y, pe.p)  # x kept at unit l^p norm
        # gradient of the quotient ||Ax||_p / ||x||_p: the radial component
        # is removed so the line search moves along the sphere
        grad = a_h @ _norming_columns(y, pe.p, pe.q) - ratio * _norming_columns(x, pe.p, pe.q)
        gnorm = _column_pnorms(grad, pe.p)
        live = gnorm > 0.0
        if not live.any():
            break
        grad[:, live] = grad[:, live] / gnorm[live]
        ag = arr @ grad
        # quotient objective along each ray x + t * grad, all columns at once
        xc = x[None, :, :] + steps[:, None, None] * grad[None, :, :]
        yc = y[None, :, :] + steps[:, None, None] * ag[None, :, :]
        den = _pnorms_along(xc, pe.p, axis=1)
        num = _pnorms_along(yc, pe.p, axis=1)
        ratios = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), 0.0)
        pick = ratios.argmax(axis=0)
        idx = np.arange(x.shape[1])
        new_vals = ratios[pick, idx]
        x = _normalize_columns(xc[pick, :, idx].T, pe.p)
        new_best = float(new_vals.max())
        if new_best <= best * (1.0 + 1e-15):
            flat_rounds += 1
            if flat_rounds >= 4:
                best = max(best, new_best)
                break
        else:
            flat_rounds = 0
        best = max(best, new_best)
    return best
