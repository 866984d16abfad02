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
  together with the witness vector that attains it.  It is the one-matrix
  call of :func:`pnorm_estimate_stack`, which iterates a (B, m, n) stack of
  matrices together, each from its own rng, with one batched matmul per
  half-step; a matrix leaves the stack once all its restarts have
  stagnated, and every result equals the one-matrix estimate bit for bit.
  On small matrices an iteration costs its numpy calls, not its
  arithmetic, so the loop inlines the column helpers, works in place, and
  divides by the moduli unmasked unless one of them is at or below
  2^-1024 (then :func:`_signs` scales first); its values are those of the
  helpers bit for bit.
* :func:`pnorm_oracle` maximizes ||A x||_p directly, by projected gradient
  ascent with a vectorized line search from random unit vectors plus the
  extreme points of the unit ball that are optimal when p is 1 or inf.
  It never shares iterates with the power iteration and is restricted to
  small matrices; tests treat it as ground truth.

Both give lower bounds, which can only refute ||A|| <= c; :func:`pnorm_upper`
gives the proved upper bound that such a claim needs, from |A| alone.

Complex scalars are used throughout, with sign(z) = z / |z| and
sign(0) = 0.  The adjoint is the conjugate transpose, so that
<A x, y> = <x, A* y> for the pairing <u, v> = sum_i u_i conj(v_i), and
||A||_{p->p} = ||A*||_{q->q} for conjugate exponents 1/p + 1/q = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionGuardError, NormOverflowError, UnsupportedExponentError

__all__ = [
    "PExponent",
    "PNormEstimate",
    "adjoint",
    "as_exponent",
    "as_generator",
    "pnorm_estimate",
    "pnorm_estimate_stack",
    "pnorm_exact",
    "pnorm_oracle",
    "pnorm_upper",
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
    return _validated(a, 2, "2-D matrix")


def _validated(a, ndim: int, what: str) -> np.ndarray:
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != ndim or 0 in arr.shape:
        raise ValueError(f"expected a nonempty {what}, got shape {arr.shape}")
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


def _signs(y: np.ndarray, mags: np.ndarray) -> np.ndarray:
    """sign(y) = y / |y| entrywise, with sign(0) = 0; ``mags`` is |y|.

    numpy divides a complex array by a real one as y * (1/|y|), and 1/|y|
    overflows for moduli at or below 2^-1024; those entries are scaled by
    2^1022 (exactly) and divided by their own recomputed modulus.
    """
    normal = mags > 2.0**-1024
    out = np.divide(y, mags, out=np.zeros_like(y), where=normal)
    if not normal.all():
        tiny = ~normal & (mags > 0.0)
        scaled = y[tiny] * 2.0**1022
        out[tiny] = scaled / np.abs(scaled)
    return out


def _pnorms_along(y: np.ndarray, p: float, axis: int = 0) -> np.ndarray:
    """l^p norms of the vectors of ``y`` along ``axis``."""
    mags = np.abs(y)
    if math.isinf(p):
        return mags.max(axis=axis)
    if p == 1.0:
        return mags.sum(axis=axis)
    tops = mags.max(axis=axis, keepdims=True)
    safe = np.where(tops > 0.0, tops, 1.0)
    vals = ((mags / safe) ** p).sum(axis=axis) ** (1.0 / p)
    return np.squeeze(safe, axis=axis) * vals


def _dual_columns(y: np.ndarray, p: float, axis: int = 0) -> np.ndarray:
    """Unnormalized dual directions sign(y) |y|^{p-1} along ``axis`` (finite p > 1)."""
    mags = np.abs(y)
    tops = mags.max(axis=axis, keepdims=True)
    safe = np.where(tops > 0.0, tops, 1.0)
    return _signs(y, mags) * (mags / safe) ** (p - 1.0)


def _norming_columns(y: np.ndarray, p: float, q: float) -> np.ndarray:
    """Columnwise norming functionals: unit-l^q duals with <y, u> = ||y||_p."""
    return _normalized(_dual_columns(y, p), q)[0]


def _normalized(x: np.ndarray, p: float, axis: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The vectors of ``x`` along ``axis`` scaled to unit l^p norm (zero
    vectors stay zero), and their norms before scaling."""
    norms = _pnorms_along(x, p, axis)
    return x / np.expand_dims(np.where(norms > 0.0, norms, 1.0), axis), norms


def _signs_and_scaled(y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sign(y), |y| divided by its maxima along axis 1, and those maxima
    (at least 5e-324), for a (B, m, r) array ``y`` that the caller gives
    up: its signs are written into it unless some modulus lies at or below
    2^-1024, where :func:`_signs` takes over."""
    mags = np.abs(y)
    tops = mags.max(axis=1, keepdims=True, initial=5e-324)
    if mags.min() > 2.0**-1024:  # the one division _signs would make, unmasked
        np.divide(y, mags, out=y)
    else:
        y = _signs(y, mags)
    mags /= tops
    return y, mags, tops


def as_generator(rng) -> np.random.Generator:
    """A Generator as is; a seed or None (fresh entropy) through ``default_rng``."""
    return rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)


def _as_rng(rng) -> np.random.Generator:
    """Like :func:`as_generator`, but None means seed 0: estimates repeat by default."""
    return as_generator(0 if rng is None else rng)


def _overflow(a: np.ndarray, pe: PExponent) -> NormOverflowError:
    return NormOverflowError(f"the p = {pe.p} norm of this {a.shape[0]}x{a.shape[1]} matrix exceeds the float range")


def _exact_value_and_witness(a: np.ndarray, pe: PExponent) -> tuple[float, np.ndarray]:
    with np.errstate(over="ignore"):  # an overflowing norm is refused below
        value, witness = _exact_formula(a, pe)
    if not math.isfinite(value):
        raise _overflow(a, pe)
    return value, witness


def _exact_formula(a: np.ndarray, pe: PExponent) -> tuple[float, np.ndarray]:
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
        mags = np.abs(row)
        witness = _signs(row.conj(), mags)
        witness[mags == 0.0] = 1.0
        return float(row_sums[k]), witness
    # p = 2: top right singular vector
    _, s, vh = np.linalg.svd(a)
    witness = vh[0].conj()
    return float(s[0]), witness


def pnorm_exact(a, p) -> float:
    """||A||_{p->p} by closed formula, for p in {1, 2, inf} only.

    Raises :class:`UnsupportedExponentError` for any other exponent, and
    :class:`NormOverflowError` when the norm exceeds the float range.
    """
    pe = as_exponent(p)
    arr = validate_matrix(a)
    if not pe.has_exact_formula:
        raise UnsupportedExponentError(
            f"no exact formula for p = {pe.p}; use pnorm_estimate or pnorm_oracle"
        )
    value, _ = _exact_value_and_witness(arr, pe)
    return value


def pnorm_upper(a, p) -> float:
    """A proved upper bound on ||A||_{p->p}, from the moduli B = |A| alone.

    ||A||_p <= ||B||_p, and dropping zero rows and columns changes no norm.
    For p in {1, inf} the bound is the exact column or row sum; otherwise
    the smaller of Riesz-Thorin, ||B||_1^{1/p} ||B||_inf^{1/q}, and
    Collatz-Wielandt: ||B||_p^p <= max_i (B^T (B x)^{p-1})_i / x_i^{p-1} for
    every x > 0.  Proof: for y >= 0, Hoelder on B_ji y_i =
    (B_ji x_i)^{1/q} (B_ji y_i^p x_i^{1-p})^{1/p} gives
    (B y)_j^p <= (B x)_j^{p-1} sum_i B_ji y_i^p x_i^{1-p}; sum over j.  The
    bound cannot rise along x <- (B^T (B x)^{p-1})^{q-1} (Boyd 1974; Gautier,
    Tudisco & Hein 2019), iterated from x = 1 while it falls, at most 100
    times; it is exact on rank-one matrices, and Riesz-Thorin on phased
    permutations.  With B scaled to largest entry 1 and reduced to m x n,
    either bound is within (m + n + 10) 2^-53 of its exact value (sums of at
    most max(m, n) nonnegative terms; the 1/p-th root divides what the power
    p - 1 multiplied), so it is raised by 1 + (m + n + 8) 2^-52 and its
    product with the scale to the next float.  A step with an entry below
    2^-900, where underflow errs absolutely, is not used.  Raises
    :class:`NormOverflowError` when the bound exceeds the float range.
    """
    pe = as_exponent(p)
    arr = validate_matrix(a)
    with np.errstate(over="ignore"):  # an overflowing modulus is refused below
        mags = np.abs(arr)
    mags = mags[mags.any(axis=1)][:, mags.any(axis=0)]
    top = float(mags.max(initial=0.0))
    if top == 0.0:
        return 0.0
    if math.isinf(top):
        raise _overflow(arr, pe)
    b = mags / top
    m, n = b.shape
    col, row = float(b.sum(axis=0).max()), float(b.sum(axis=1).max())
    if pe.is_one or pe.is_inf:
        bound = col if pe.is_one else row
    else:
        bound = min(col ** (1.0 / pe.p) * row ** (1.0 / pe.q), _collatz_wielandt(b, pe.p, pe.q))
    value = math.nextafter(top * (bound * (1.0 + (m + n + 8) * 2.0**-52)), math.inf)
    if math.isinf(value):
        raise _overflow(arr, pe)
    return value


def _collatz_wielandt(b: np.ndarray, p: float, q: float) -> float:
    """The least bound along the iteration (inf if no step is usable); (B x)^{p-1}
    is taken of B x scaled to maximum 1, whose scale returns as y_max^{1/q}."""
    best, x = math.inf, np.ones(b.shape[1])
    with np.errstate(all="ignore"):  # a step that leaves the normal range is discarded
        for _ in range(100):
            y = b @ x
            z = (y / y.max()) ** (p - 1.0)
            w, xp = b.T @ z, x ** (p - 1.0)
            if not min(y.min(), z.min(), w.min(), xp.min()) >= 2.0**-900:
                break
            bound = float(y.max() ** (1.0 / q) * (w / xp).max() ** (1.0 / p))
            if not bound < best:
                break
            best, x = bound, (w / w.max()) ** (q - 1.0)
    return best


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
    iteration cap.  This is the one-matrix call of :func:`pnorm_estimate_stack`.

    :param a: complex matrix, square or rectangular.
    :param p: exponent in [1, inf].
    :param restarts: number of random starting vectors (at least 1).
    :param max_iters: iteration cap per restart.
    :param tol: relative stagnation threshold.
    :param rng: ``numpy.random.Generator``, seed int, or None (seed 0).
    :raises NormOverflowError: when the norm exceeds the float range.
    """
    return _estimates(validate_matrix(a)[None].copy(), as_exponent(p), restarts, max_iters, tol, [rng])[0]


def pnorm_estimate_stack(
    stack,
    p,
    *,
    restarts: int = 32,
    max_iters: int = 100,
    tol: float = 1e-10,
    rngs=None,
) -> list[PNormEstimate]:
    """:func:`pnorm_estimate` of every matrix in a (B, m, n) stack at once.

    ``stack`` is a 3-D array or a sequence of same-shape matrices; it is
    never modified, since the iteration runs on a new array made from it.
    Matrix b draws its starting vectors from ``rngs[b]`` (a Generator, a
    seed, or None for seed 0; ``rngs=None`` gives every matrix seed 0), so
    each result equals ``pnorm_estimate(stack[b], p, rng=rngs[b])`` bit for
    bit.  The matrices are iterated together, one batched matmul per
    half-step, and a matrix leaves the stack once all its restarts have
    stagnated.
    """
    arr = _validated(np.array(stack, dtype=complex), 3, "(B, m, n) stack")
    rngs = [None] * arr.shape[0] if rngs is None else list(rngs)
    if len(rngs) != arr.shape[0]:
        raise ValueError(f"need one rng per matrix, got {len(rngs)} for {arr.shape[0]}")
    return _estimates(arr, as_exponent(p), restarts, max_iters, tol, rngs)


def _estimates(arr, pe, restarts, max_iters, tol, rngs) -> list[PNormEstimate]:
    """Estimates for a validated stack that the caller owns: closed formulas or the iteration."""
    if pe.has_exact_formula:
        out = []
        for mat in arr:
            value, witness = _exact_value_and_witness(mat, pe)
            out.append(PNormEstimate(value, witness, "exact", True, 0))
        return out
    if restarts < 1:
        raise ValueError("restarts must be a positive integer")
    return _power_iteration(arr, pe, restarts, max_iters, tol, [_as_rng(r) for r in rngs])


def _power_iteration(arr, pe, restarts, max_iters, tol, gens) -> list[PNormEstimate]:
    """The dual power iteration on a stack, one generator per matrix.

    Slot k of every state array holds matrix ``member[k]``; finished
    matrices are compacted out of the leading slots, so the live part of
    each array stays contiguous and the batched matmuls make the same BLAS
    calls as one matrix at a time.  ``arr`` must be an array the caller
    owns: it is scaled and compacted in place.

    The loop is :func:`_dual_columns`, :func:`_normalized` and
    :func:`_pnorms_along` inlined: each iteration makes the same
    floating-point operations on the same operands as those helpers, so
    every estimate keeps its bits, but with far fewer numpy calls and
    temporaries, which are what an iteration on a small matrix costs.

    * Per half-step, :func:`_signs_and_scaled` overwrites the product by its
      signs with a plain ``y / |y|``, the division :func:`_signs` makes
      under its mask, and falls back to :func:`_signs` when some modulus is
      at or below 2^-1024 (zeros included).
    * Column maxima are taken with ``initial=5e-324``, that is
      max(top, 5e-324), where the helpers used 1.0 for a zero top.  A zero
      column gives 0 either way: 0 / 5e-324 = 0 and 5e-324 * 0 = 0; a
      nonzero top is at least 5e-324, the least positive double, and stays.
    * Powers use ``**`` and ``**=``, which take numpy's fast paths for the
      exponents 0.5 and 2 exactly as the helpers' ``**`` did.
    * A column of the dual direction w is zero exactly when its l^p norm
      is (a nonzero column's norm is at least its top), so the dead-column
      repair (keep the old iterate, mark it stagnant) runs only when the
      smallest norm is 0.
    """
    p, q = pe.p, pe.q
    count, _, n = arr.shape
    # iterate on 2^-e A, largest modulus in [1, 2): exact, and clear of underflow
    e = [math.frexp(float(t))[1] - 1 for t in np.abs(arr).max(axis=(1, 2))]
    half = np.array([math.ldexp(1.0, -ek // 2) for ek in e])[:, None, None]
    rest = np.array([math.ldexp(1.0, -ek - (-ek // 2)) for ek in e])[:, None, None]
    arr *= half
    arr *= rest

    x = np.empty((count, n, restarts), dtype=complex)
    for k, gen in enumerate(gens):
        x[k] = gen.standard_normal((n, restarts)) + 1j * gen.standard_normal((n, restarts))
    x[:, :, 0] = 1.0  # one deterministic start alongside the random ones
    x = _normalized(x, p, axis=1)[0]
    a_h = arr.conj().transpose(0, 2, 1)

    member = np.arange(count)
    best_val = np.full(count, -np.inf)
    best_witness = x[:, :, 0].copy()
    best_col = np.zeros(count, dtype=int)
    prev_vals = np.full((count, restarts), -np.inf)
    stagnant = np.zeros((count, restarts), dtype=bool)
    results: list = [None] * count

    def finish(slots):
        for k in slots:
            b = int(member[k])
            results[b] = _finished(arr[k], best_val[k], best_witness[k], bool(stagnant[k, best_col[k]]),
                                   e[b], pe, restarts)

    for _ in range(max_iters):
        live = len(member)
        # forward half-step: y = A x becomes sign(y) in place, |y| its column-scaled moduli
        u, scaled, tops = _signs_and_scaled(arr[:live] @ x)
        vals = (scaled**p).sum(axis=1)
        vals **= 1.0 / p
        vals *= tops[:, 0, :]
        top_vals = vals.max(axis=1)
        gain = top_vals > best_val[:live]
        if gain.any():
            rows = np.flatnonzero(gain)
            cols = vals[rows].argmax(axis=1)
            best_val[rows] = top_vals[rows]
            best_witness[rows] = x[rows, :, cols]
            best_col[rows] = cols
        stagnant[:live] |= np.abs(vals - prev_vals[:live]) <= tol * vals
        prev_vals[:live] = vals
        done = stagnant[:live].all(axis=1)
        if done.any():
            finish(np.flatnonzero(done))
            keep = np.flatnonzero(~done)
            if keep.size == 0:
                break
            for state in (arr, a_h, best_val, best_witness, best_col, prev_vals, stagnant):
                state[: keep.size] = state[keep]
            member = member[keep]
            x, u, scaled = x[keep], u[keep], scaled[keep]
            live = keep.size
        # dual half-step: w = dualmap_q(A* dualmap_p(y)), then w / ||w||_p
        scaled **= p - 1.0
        u *= scaled
        w, scaled, _ = _signs_and_scaled(a_h[:live] @ u)
        scaled **= q - 1.0
        w *= scaled
        mags = np.abs(w)
        tops = mags.max(axis=1, keepdims=True, initial=5e-324)
        mags /= tops
        mags **= p
        norms = mags.sum(axis=1)
        norms **= 1.0 / p
        norms *= tops[:, 0, :]
        if norms.min() > 0.0:
            w /= norms[:, None, :]
        else:  # w is zero exactly where its norm is: keep that iterate, mark it stagnant
            dead = norms == 0.0
            w /= np.where(dead, 1.0, norms)[:, None, :]
            slot, col = np.nonzero(dead)
            w[slot, :, col] = x[slot, :, col]
            stagnant[:live] |= dead
        x = w
    else:
        finish(range(len(member)))
    return results


def _finished(mat, best_val, best_witness, converged, e, pe, restarts) -> PNormEstimate:
    """The estimate of one matrix (already scaled by 2^-e) from its best iterate."""
    if best_val <= 0.0:
        witness = np.zeros(mat.shape[1], dtype=complex)
        witness[0] = 1.0
        return PNormEstimate(0.0, witness, "power-iteration", True, restarts)
    witness = best_witness / vector_pnorm(best_witness, pe)
    try:
        value = math.ldexp(vector_pnorm(mat @ witness, pe), e)
    except OverflowError:
        raise _overflow(mat, pe) from None
    return PNormEstimate(value, witness, "power-iteration", converged, restarts)


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

    mags = np.abs(arr)
    aligned = np.where(mags > 0.0, _signs(arr.conj(), mags), 1.0).T
    random_starts = gen.standard_normal((n, samples)) + 1j * gen.standard_normal((n, samples))
    x = _normalized(np.concatenate([np.eye(n, dtype=complex), aligned, random_starts], axis=1), pe.p)[0]

    vals = _pnorms_along(arr @ x, pe.p)
    if pe.is_one or pe.is_inf:
        # the basis / phase-aligned candidates attain the extreme-point optimum
        return float(vals.max())

    a_h = arr.conj().T
    steps = np.concatenate([[0.0], np.geomspace(1e-7, 2.0, 16)])
    best = float(vals.max())
    flat_rounds = 0
    for _ in range(max_iters):
        y = arr @ x
        ratio = _pnorms_along(y, pe.p)  # x kept at unit l^p norm
        # gradient of the quotient ||Ax||_p / ||x||_p: the radial component
        # is removed so the line search moves along the sphere
        grad = a_h @ _norming_columns(y, pe.p, pe.q) - ratio * _norming_columns(x, pe.p, pe.q)
        gnorm = _pnorms_along(grad, pe.p)
        live = gnorm > 2.0**-1024  # numpy divides by 1/gnorm, which overflows below
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
        x = _normalized(xc[pick, :, idx].T, pe.p)[0]
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
