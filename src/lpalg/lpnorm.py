"""Operator norms on finite-dimensional l^p spaces.

All spaces are l^p over a finite index set with counting measure, so a
matrix A in C^{m x n} is an operator l^p(n) -> l^p(m) and

    ||A||_{p->p} = sup { ||A x||_p : ||x||_p = 1 }.

:func:`pnorm_estimate` answers along one of four routes:

* p in {1, 2, inf}: the exact formulas, maximum column sum of moduli,
  largest singular value, and maximum row sum of moduli.
* A monomial matrix, with at most one nonzero entry per row and per
  column: ||A||_{p->p} = max |a_ij| for every p, attained at the basis
  vector e_j of a largest entry.  Proof: with sigma(i) the column of row
  i's entry, ||A x||_p^p = sum_i |a_{i sigma(i)}|^p |x_{sigma(i)}|^p
  <= max |a|^p ||x||_p^p.  For p != 2 the isometries of l^p are exactly
  the phased permutations (Lamperti), so translations, spatial actions and
  their integrated forms are of this kind.
* A matrix that is nonnegative up to phases, A = D1 |A| D2 with unimodular
  diagonal D1 and D2, such as rank-one matrices and the window forms of
  scalar and phased coefficients: ||A||_p = ||B||_p for B = |A|.  A walk
  of the bipartite graph of nonzeros decides the phases and splits B into
  its connected components, and :func:`_bracket` closes the
  Collatz-Wielandt bracket of each from the one positive start x = 1,
  with Boyd's iteration and guarded Newton steps, until it is ``tol``
  wide; so ``converged`` is a certificate.  The value is ||A w||_p for the
  best iterate mapped back through D2*.
* Any other matrix: the dual power iteration

      x  <-  dualmap_q( A* . dualmap_p( A x ) ),   normalized in l^p,

  from many random starts, which returns the best certified lower bound
  together with the witness vector that attains it.  The iteration runs
  on a (B, m, n) stack of matrices at once, each from its own rng, with
  one batched matmul per half-step; a matrix leaves the stack once all its
  restarts have stagnated, and every result equals the one-matrix estimate
  bit for bit.  While a single matrix is left, as in every one-matrix
  call, the same loop skips the stack's bookkeeping of slots, compaction
  and per-member tests.  On small matrices an iteration costs its numpy
  calls, not its arithmetic, so the loop inlines the column helpers, works
  in place, and divides by the moduli unmasked unless one of them is at or
  below 2^-1024 (then :func:`_signs` scales first); its values are those
  of the helpers bit for bit.

:func:`pnorm_oracle` maximizes ||A x||_p directly, by projected gradient
ascent with a vectorized line search from random unit vectors plus the
extreme points of the unit ball that are optimal when p is 1 or inf.  It
never shares iterates with the power iteration and is restricted to small
matrices; tests treat it as ground truth.

The iteration and the oracle give lower bounds, which can only refute
||A|| <= c; :func:`pnorm_upper` gives the proved upper bound that such a
claim needs, from |A| alone, with the same bracket.

Complex scalars are used throughout, with sign(z) = z / |z| and
sign(0) = 0.  The adjoint is the conjugate transpose, so that
<A x, y> = <x, A* y> for the pairing <u, v> = sum_i u_i conj(v_i), and
||A||_{p->p} = ||A*||_{q->q} for conjugate exponents 1/p + 1/q = 1.
"""

from __future__ import annotations

import math

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
_ORACLE_ITERS = 200  # the most gradient rounds pnorm_oracle runs


class PExponent:
    """An exponent p in [1, inf] together with its conjugate q, 1/p + 1/q = 1.

    ``PExponent(1)`` has q = inf and ``PExponent(math.inf)`` has q = 1.  A
    bool is refused: True is not the exponent 1; so is a string, even one
    that ``float`` parses.  Read-only, and equal exponents are equal and
    hash alike.
    """

    def __init__(self, p: float):
        if isinstance(p, (bool, np.bool_, str, bytes)):
            raise ValueError(f"exponent must be a number, not a {type(p).__name__}, got {p!r}")
        value = float(p)
        if math.isnan(value) or value < 1.0:
            raise ValueError(f"exponent must lie in [1, inf], got {p!r}")
        if value == 1.0:
            q = math.inf
        elif math.isinf(value):
            q = 1.0
        else:
            q = value / (value - 1.0)
        object.__setattr__(self, "p", value)
        object.__setattr__(self, "q", q)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.p == other.p  # q is a function of p

    def __hash__(self):
        return hash(self.p)

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

    def __repr__(self) -> str:
        return f"PExponent(p={self.p}, q={self.q})"


def as_exponent(p) -> PExponent:
    """Coerce a float, int, or PExponent into a PExponent (a bool is refused)."""
    if isinstance(p, PExponent):
        return p
    return PExponent(p)


class PNormEstimate:
    """A certified lower bound for ||A||_{p->p}.

    ``witness`` is a unit vector in l^p with ||A witness||_p equal to
    ``value``, so the value is a valid lower bound regardless of whether
    the iteration converged.  ``method`` records which route produced it:
    "exact", "positive-iteration" or "power-iteration".

    ``converged`` says the iteration stopped on its tolerance, not that the
    value is exact to the last bit.  A converged power-iteration value fixes
    about 12 digits, and equal operators written differently can read
    differently: on a 6 x 6 complex Gaussian a and the 36 x 36 form of
    a delta_s under the Z/6 rotation (a direct sum of conjugates of a, with
    the same norm) the two converged values differ by up to 2.9e-12
    relative.
    """

    def __init__(self, value: float, witness: np.ndarray, method: str, converged: bool, restarts_used: int):
        self.value = value
        self.witness = witness
        self.method = method
        self.converged = converged
        self.restarts_used = restarts_used


def validate_matrix(a) -> np.ndarray:
    """Return ``a`` as a 2-D complex ndarray, rejecting non-finite entries."""
    return _validated(a, 2, "2-D matrix")


def _validated(a, ndim: int, what: str) -> np.ndarray:
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != ndim or 0 in arr.shape:
        raise ValueError(f"expected a nonempty {what}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    return arr


def adjoint(a) -> np.ndarray:
    """Conjugate transpose of ``a``."""
    return validate_matrix(a).conj().T


def vector_pnorm(x, p) -> float:
    """l^p norm of a complex vector; p may be any value in [1, inf].

    Non-finite entries are refused, and a norm beyond the float range
    raises :class:`NormOverflowError`.
    """
    pe = as_exponent(p)
    arr = np.asarray(x, dtype=complex).ravel()
    if arr.size == 0:
        raise ValueError("vector_pnorm of an empty vector")
    if not np.isfinite(arr).all():
        raise ValueError("vector entries must be finite")
    with np.errstate(over="ignore"):  # an overflowing norm is refused below
        value = float(_pnorms_along(arr, pe.p))
    if not math.isfinite(value):
        raise NormOverflowError(f"the p = {pe.p} norm of this vector of length {arr.size} exceeds the float range")
    return value


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
    """A Generator as is; a seed through ``default_rng``; None means seed 0,
    so estimates and sampled certificates repeat by default."""
    return rng if isinstance(rng, np.random.Generator) else np.random.default_rng(0 if rng is None else rng)


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

    ||A||_p <= ||B||_p, and zero rows and columns change no norm.  With B
    scaled to largest entry 1 and m x n its nonzero rows and columns, the
    bound for p in {1, inf} is the exact column or row sum.  Otherwise it
    is Riesz-Thorin, ||B||_1^{1/p} ||B||_inf^{1/q}, where that is at most 1,
    and then exact, since the largest entry 1 is a lower bound (so on
    scalars and phased permutations); elsewhere the smaller of Riesz-Thorin
    and the upper end of :func:`_bracket` over the connected components of
    B, run until it is as wide as the margin below, at most 100 steps.
    Either bound is within (m + n + 10) 2^-53 of its exact value (sums of
    at most max(m, n) nonnegative terms; the 1/p-th root divides what the
    power p - 1 multiplied), so it is raised by 1 + (m + n + 8) 2^-52 and
    its product with the scale to the next float.  Raises
    :class:`NormOverflowError` when the bound exceeds the float range.
    """
    pe = as_exponent(p)
    arr = validate_matrix(a)
    with np.errstate(over="ignore"):  # an overflowing modulus is refused below
        mags = np.abs(arr)
    top = float(mags.max())
    if top == 0.0:
        return 0.0
    if math.isinf(top):
        raise _overflow(arr, pe)
    b = mags / top
    col_sums, row_sums = b.sum(axis=0), b.sum(axis=1)  # zero exactly on the zero columns and rows
    margin = int(np.count_nonzero(row_sums) + np.count_nonzero(col_sums) + 8) * 2.0**-52
    col, row = float(col_sums.max()), float(row_sums.max())
    if pe.is_one or pe.is_inf:
        bound = col if pe.is_one else row
    else:
        bound = col ** (1.0 / pe.p) * row ** (1.0 / pe.q)
        if bound > 1.0:
            rows, cols, blocks, _ = _components(b > 0.0)
            upper = _bracket(b.take(rows, axis=0).take(cols, axis=1), blocks, pe, 100, margin)[2]
            bound = min(bound, float(upper.max()))
    value = math.nextafter(top * (bound * (1.0 + margin)), math.inf)
    if math.isinf(value):
        raise _overflow(arr, pe)
    return value


def _bracket(b: np.ndarray, blocks: tuple, pe: PExponent, max_iters: int, tol: float) -> tuple:
    """The Collatz-Wielandt bracket of ||B||_p for a nonnegative B with
    largest entry 1 whose connected components are the blocks of
    :func:`_boyd_step`: the best lower bound per block, the iterate that
    gave it, the least upper bound per block (inf where no step was
    usable), and whether the bracket closed.

    Each step, from x = 1, gives per block c the lower bound
    ||B_c x_c||_p / ||x_c||_p (:func:`_lower_bounds`) and the
    Collatz-Wielandt upper bound ||B_c||_p^p <= max_i (B_c^T (B_c x)^{p-1})_i
    / x_i^{p-1}, valid for every x > 0 (for y >= 0, Hoelder on B_ji y_i =
    (B_ji x_i)^{1/q} (B_ji y_i^p x_i^{1-p})^{1/p} gives (B y)_j^p <=
    (B x)_j^{p-1} sum_i B_ji y_i^p x_i^{1-p}; sum over j).  ||B|| is the
    largest ||B_c||, so the largest lower and the largest upper bound
    bracket it, and the loop stops, converged, once they meet within
    ``tol`` relative, or after ``max_iters`` steps.  Boyd's step
    x <- (B^T (B x)^{p-1})^{q-1} never raises the upper bound and rises
    from the positive start to the global maximiser (Boyd, LAA 1974;
    Gautier, Tudisco & Hein, SIMAX 2019), but slowly on window forms and
    nearly reducible matrices; so where the bracket fails to halve over a
    step, a B with at most :data:`_NEWTON_MAX_COLS` columns takes the
    guarded :func:`_newton_step` instead, if it has one (the first step is
    always Boyd's).  Any x > 0 gives valid bounds, so Newton's steps change
    how fast the bracket closes, not what it certifies, and a bracket that
    halves at every step takes none."""
    p, q = pe.p, pe.q
    col_block = blocks[3]
    x = np.ones(b.shape[1])
    best, best_x = np.full(len(blocks[2]), -np.inf), x.copy()
    upper = -best
    converged, width = False, math.inf
    newton = b.shape[1] <= _NEWTON_MAX_COLS
    with np.errstate(all="ignore"):  # a step that leaves the normal range gives no upper bound
        for _ in range(max_iters):
            y_top, u, bounds, usable, w = _boyd_step(b, x, p, q, blocks)
            ratio, lower = _lower_bounds(x, y_top, u, p, blocks)
            np.copyto(best_x, x, where=(lower > best)[col_block])
            np.fmax(best, lower, out=best)  # a NaN bound is no bound
            np.fmin(upper, bounds, out=upper, where=usable)
            low = best.max()
            gap = upper.max() - low
            if gap <= tol * low:
                converged = True
                break
            step = _newton_step(b, x, u, y_top, ratio, lower, p, blocks) if newton and gap > width / 2.0 else None
            if step is None:  # Boyd's: (w / w_max)^{q-1} per block, at least 2^-1074 so that x stays positive
                step = np.maximum((w / np.maximum.reduceat(w, blocks[2])[col_block]) ** (q - 1.0), 2.0**-1074)
            x, width = step, gap
    return best, best_x, upper, converged


def _boyd_step(b: np.ndarray, x: np.ndarray, p: float, q: float, blocks: tuple) -> tuple:
    """The products of Boyd's step x <- (B^T (B x)^{p-1})^{q-1} at x > 0, on
    a nonnegative B that is block diagonal: ``blocks = (row_starts,
    row_block, col_starts, col_block)`` gives where each block's rows and
    columns start and the block of every row and column, and each block is
    normalized on its own.

    Returns the maxima of y = B x per block and y divided by them, the
    Collatz-Wielandt bound y_max^{1/q} max_i (w_i / x_i^{p-1})^{1/p} per
    block for w = B^T (y / y_max)^{p-1} (the scale of y returns as
    y_max^{1/q}), whether each block's step stayed at or above 2^-900
    (below it underflow errs absolutely and the bound is not used; the
    check is on y, z, w and x^{p-1}), and w, whose power w^{q-1} is Boyd's
    next iterate."""
    row_starts, row_block, col_starts, _ = blocks
    y = b @ x
    y_top = np.maximum.reduceat(y, row_starts)
    u = y / y_top[row_block]
    z = u ** (p - 1.0)
    w, xp = b.T @ z, x ** (p - 1.0)
    low = np.minimum(np.minimum.reduceat(np.minimum(y, z), row_starts),
                     np.minimum.reduceat(np.minimum(w, xp), col_starts))
    ratio_top = np.maximum.reduceat(w / xp, col_starts)
    bounds = [yt ** (1.0 / q) * rt ** (1.0 / p) for yt, rt in zip(y_top.tolist(), ratio_top.tolist())]
    return y_top, u, bounds, low >= 2.0**-900, w


def pnorm_estimate(
    a,
    p,
    *,
    restarts: int = 32,
    max_iters: int = 100,
    tol: float = 1e-10,
    rng=None,
) -> PNormEstimate:
    """Certified lower bound for ||A||_{p->p}, exact where a closed form exists.

    Four routes, as in the module docstring.  For p in {1, 2, inf} the
    exact formula is used.  A monomial matrix (at most one nonzero per row
    and per column) has norm max |a_ij| for every p, since
    ||A x||_p^p = sum_i |a_{i sigma(i)}|^p |x_{sigma(i)}|^p
    <= max |a|^p ||x||_p^p with equality at e_j; the witness is e_j for
    the column j of the first largest modulus (e_0 for the zero matrix).
    Both are tagged ``method="exact"``, converged, with zero restarts.  A
    matrix that is nonnegative up to phases, D1 |A| D2, is iterated from
    the one positive start (``method="positive-iteration"``, one restart)
    until the Collatz-Wielandt bracket of :func:`_bracket` is ``tol`` wide,
    so ``converged`` certifies the value to ``tol``.  Otherwise
    ``restarts`` random complex starting vectors are iterated
    simultaneously; the reported value is the best value of ||A x||_p seen
    at any iterate, and ``converged`` states whether the winning restart
    stagnated below ``tol`` before the iteration cap.  This is the
    one-matrix call of :func:`pnorm_estimate_stack`.

    :param a: complex matrix, square or rectangular.
    :param p: exponent in [1, inf].
    :param restarts: number of random starting vectors (at least 1).
    :param max_iters: iteration cap per restart.
    :param tol: relative stagnation threshold; on the positive route, the
        relative width of the bracket that stops it.
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
    """Estimates for a validated stack that the caller owns: closed formulas,
    the closed form of monomial members, the positive iteration on members
    that are nonnegative up to phases, or the dual power iteration on the
    others.  A member with more nonzeros than min(m, n) cannot be monomial,
    and one whose leading 2 x 2 block has four nonzeros around an
    inconsistent phase cycle cannot be nonnegative up to phases, so a dense
    complex member costs one ``count_nonzero`` and four signs before it is
    iterated.  ``restarts`` and ``max_iters`` must be at least 1 for every p."""
    for name, value in (("restarts", restarts), ("max_iters", max_iters)):
        if value < 1:
            raise ValueError(f"{name} must be a positive integer, got {value!r}")
    if pe.has_exact_formula:
        out = []
        for mat in arr:
            value, witness = _exact_value_and_witness(mat, pe)
            out.append(PNormEstimate(value, witness, "exact", True, 0))
        return out
    cap = min(arr.shape[1:])
    out = [_monomial(mat, pe) if np.count_nonzero(mat) <= cap else None for mat in arr]
    out = [_positive_iteration(mat, pe, max_iters, tol) if est is None else est for est, mat in zip(out, arr)]
    rest = [b for b, est in enumerate(out) if est is None]
    if rest:
        live = arr if len(rest) == len(arr) else arr[rest]
        iterated = _power_iteration(live, pe, restarts, max_iters, tol, [as_generator(rngs[b]) for b in rest])
        for b, est in zip(rest, iterated):
            out[b] = est
    return out


def _monomial(mat: np.ndarray, pe: PExponent) -> PNormEstimate | None:
    """The exact estimate of a matrix with at most one nonzero per row and
    per column, or None for any other matrix: value max |a_ij|, witness e_j
    for the column j of the first largest modulus (e_0 if all are zero)."""
    with np.errstate(over="ignore"):  # an overflowing modulus is refused below
        mags = np.abs(mat)
    nonzero = mags > 0.0
    count = np.count_nonzero(nonzero)
    # two nonzeros in one row or column leave fewer nonzero rows or columns than nonzeros
    if np.count_nonzero(nonzero.any(axis=0)) < count or np.count_nonzero(nonzero.any(axis=1)) < count:
        return None
    k = int(np.argmax(mags))
    value = float(mags.flat[k])
    if math.isinf(value):
        raise _overflow(mat, pe)
    witness = np.zeros(mat.shape[1], dtype=complex)
    witness[k % mat.shape[1]] = 1.0
    return PNormEstimate(value, witness, "exact", True, 0)


def _scale_down(arr: np.ndarray, pe: PExponent) -> list[int]:
    """Scale every matrix of the (B, m, n) stack ``arr`` in place by 2^-e,
    its largest modulus into [1, 2): exact, and clear of underflow.  Returns
    the exponents e; raises :class:`NormOverflowError` when a modulus is not
    a float."""
    with np.errstate(over="ignore"):  # an overflowing modulus is refused below
        tops = np.abs(arr).max(axis=(1, 2))
    if np.isinf(tops).any():
        raise _overflow(arr[0], pe)
    e = [math.frexp(float(t))[1] - 1 for t in tops]
    half = np.array([math.ldexp(1.0, -ek // 2) for ek in e])[:, None, None]
    rest = np.array([math.ldexp(1.0, -ek - (-ek // 2)) for ek in e])[:, None, None]
    arr *= half
    arr *= rest
    return e


# A phase mismatch of delta multiplies a term of (A w)_i by e^{i theta} with
# |theta| <~ delta, so ||A w||_p falls short of ||B x||_p by a factor of at
# most cos(delta) >= 1 - delta^2 / 2; at 2^-26 that is below one rounding.
_PHASE_TOL = 2.0**-26

# Newton's step (:func:`_newton_step`) solves a dense (n + K) x (n + K)
# system; measured with one BLAS thread on a 2-core x86-64 host, one step
# costs about 4 of Boyd's steps at n = 47, 8 at n = 94, 12 at n = 128 and 42
# at n = 200, hence the cap.
_NEWTON_MAX_COLS = 128


def _positive_iteration(mat: np.ndarray, pe: PExponent, max_iters: int, tol: float) -> PNormEstimate | None:
    """The estimate of a matrix A = D1 B D2 with B = |A| >= 0 and unimodular
    diagonal D1, D2, or None for any other matrix.

    :func:`_bracket` runs on B / max B, as in :func:`pnorm_upper`, one
    connected component per block, to ``tol`` or ``max_iters`` steps.  The
    witness is the best iterate of the component with the best lower bound,
    mapped back through D2*, and the value is ||A w||_p on A itself, a
    certified lower bound whatever the phases.  A component whose steps
    never stay in the normal range (entries more than about 900 binades
    apart) gives no upper bound; then the matrix is left to the dual power
    iteration (None).  ``mat`` is a member of a stack the caller owns; an
    estimate scales it in place by 2^-e, the kernel's exact scaling, and
    computes the value on it."""
    if _corner_cycle_breaks(mat):
        return None
    found = _phased_components(mat)
    if found is None:
        return None
    rows, cols, blocks, phases, mags = found
    b = mags.take(rows, axis=0).take(cols, axis=1)
    top = b.max()
    if math.isinf(top):
        raise _overflow(mat, pe)
    b /= top
    best, best_x, upper, converged = _bracket(b, blocks, pe, max_iters, tol)
    if math.isinf(upper.max()):  # no bracket: one start proves no more than the restarted kernel
        return None
    k = int(np.argmax(best))
    witness = np.zeros(mat.shape[1], dtype=complex)
    witness[cols] = np.where(blocks[3] == k, best_x * phases.conj(), 0.0)
    e = _scale_down(mat[None], pe)[0]
    return _finished(mat, best[k], witness, converged, e, pe, "positive-iteration", 1)


def _lower_bounds(x: np.ndarray, y_top: np.ndarray, u: np.ndarray, p: float, blocks: tuple) -> tuple:
    """Per block of :func:`_boyd_step`: ratio = sum u^p / sum x^p, and the
    lower bound ||B_c x_c||_p / ||x_c||_p = y_top ratio^{1/p} for an x with
    largest entry 1 in every block."""
    row_starts, _, col_starts, _ = blocks
    ratio = np.add.reduceat(u**p, row_starts) / np.add.reduceat(x**p, col_starts)
    return ratio, y_top * ratio ** (1.0 / p)


def _newton_step(b, x, u, y_top, ratio, lower, p, blocks) -> np.ndarray | None:
    """Newton's step on the stationarity equation B^T (B x)^{p-1} =
    lambda_c x^{p-1}, lambda_c = sum_c (B x)^p / sum_c x^p, at the iterate x
    of :func:`_boyd_step` (u = B x / y_top per block, ``ratio`` and
    ``lower`` from :func:`_lower_bounds`); None if no step is fit.

    Row block c of B is divided by y_top_c, which multiplies that block's
    equation by a constant and leaves its Newton step alone.  The Jacobian
    (p-1) (B^T diag(u^{p-2}) B - diag(lambda_c x^{p-2})) is singular along x
    itself, the scale the equation does not fix, so the system is bordered
    by E, with x_j^{p-1} in column c(j), and E^T dx = 0 holds each block's
    l^p scale to first order.  The step is taken in log coordinates,
    x exp(t dx / x) for t = 1, 1/2, 1/4, 1/8: dx / x is Newton's step for
    the same equation in s = log x, so convergence stays quadratic, and no
    candidate leaves the positive cone, where x + t dx overshoots zero on
    weakly coupled entries.  The first candidate that is positive after
    rounding and keeps every block's lower bound (scaled to largest entry 1
    per block) at or above its current value, less the (m + n) 2^-52 by
    which rounding moves the bound's sums near a maximiser, is returned; a
    singular or non-finite system, or no such t, gives None."""
    row_starts, row_block, col_starts, col_block = blocks
    n, k = len(x), len(col_starts)
    scaled = b / y_top[row_block, None]
    u_p2, x_p1 = u ** (p - 2.0), x ** (p - 1.0)
    diag, border = np.arange(n), n + col_block
    system = np.zeros((n + k, n + k))
    system[:n, :n] = (scaled.T * u_p2) @ scaled
    system[diag, diag] -= ratio[col_block] * x ** (p - 2.0)
    system[diag, border] = x_p1
    system[border, diag] = x_p1
    rhs = np.zeros(n + k)
    rhs[:n] = (ratio[col_block] * x_p1 - scaled.T @ (u * u_p2)) / (p - 1.0)
    try:
        dx = np.linalg.solve(system, rhs)[:n]
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(dx).all():
        return None
    floor = lower * (1.0 - (len(u) + n) * 2.0**-52)
    for t in (1.0, 0.5, 0.25, 0.125):
        cand = x * np.exp(t * (dx / x))
        if not (cand > 0.0).all():
            continue
        cand /= np.maximum.reduceat(cand, col_starts)[col_block]
        y = b @ cand
        y_top_c = np.maximum.reduceat(y, row_starts)
        if (_lower_bounds(cand, y_top_c, y / y_top_c[row_block], p, blocks)[1] >= floor).all():
            return cand
    return None


def _corner_cycle_breaks(mat: np.ndarray) -> bool:
    """Whether the leading 2 x 2 block has four nonzeros whose phase cycle
    s_00 s_11 conj(s_01 s_10) is not 1: then no D1, D2 make A nonnegative."""
    if min(mat.shape) < 2:
        return False
    corner = mat[:2, :2].tolist()
    if not all(corner[0] + corner[1]):
        return False
    # each entry over its larger component has modulus in [1, sqrt 2], so the
    # cycle neither overflows nor underflows
    (a, b), (c, d) = ([z / max(abs(z.real), abs(z.imag)) for z in row] for row in corner)
    cycle = a * d * (b * c).conjugate()
    return abs(cycle / abs(cycle) - 1.0) > _PHASE_TOL


def _phased_components(a: np.ndarray):
    """For a = D1 |a| D2 (up to phase mismatches of :data:`_PHASE_TOL`):
    the nonzero rows, columns and blocks of :func:`_components`, the phases
    of D2 on those columns, and |a|.  None for any other matrix.

    The phases follow from s_ij = d1_i d2_j along the walk of
    :func:`_components`, with phase 1 at every root, and every entry is then
    checked against them in place, with no array of signs per nonzero."""
    m, n = a.shape
    rows, cols, blocks, (order, row_from, col_from) = _components(a != 0.0)
    with np.errstate(over="ignore"):  # an overflowing modulus passes here and is refused by the scaling
        mags = np.abs(a)
    # the signs of the forest's edges; a root's and an empty column's are unused
    row_edge = (np.arange(m), np.array(row_from))
    col_edge = (np.array(col_from), np.arange(n))
    row_sign = _signs(a[row_edge], mags[row_edge]).tolist()
    col_sign = _signs(a[col_edge], mags[col_edge]).tolist()
    d1, d2 = [1.0 + 0j] * m, [0j] * n
    for node in order:
        if node < 0:
            d2[~node] = col_sign[~node] * d1[col_from[~node]].conjugate()
        elif row_from[node] >= 0:
            d1[node] = row_sign[node] * d2[row_from[node]].conjugate()
    d1, d2 = np.array(d1), np.array(d2)
    step = max(1, 4096 // n)  # rows per check, so a dense check needs no full-size complex temporary
    with np.errstate(invalid="ignore", over="ignore"):
        for top in range(0, m, step):
            part = slice(top, top + step)
            dev = a[part] * d1[part, None].conj()
            dev *= d2.conj()
            dev -= mags[part]  # |a_ij| (conj(d1_i d2_j) s_ij - 1)
            if not (np.abs(dev) <= _PHASE_TOL * mags[part]).all():
                return None
    return rows, cols, blocks, d2[cols], mags


def _starts(block: list) -> np.ndarray:
    """Where each run of a nondecreasing list of block numbers begins."""
    return np.array([k for k in range(len(block)) if k == 0 or block[k] != block[k - 1]])


def _components(nz: np.ndarray) -> tuple:
    """The connected components of the bipartite graph of a boolean
    matrix's nonzeros, from one walk that visits every nonzero once from its
    row and once from its column and each component in one piece.

    Returns the nonempty rows and columns in the order reached, the block
    structure of :func:`_boyd_step` for the components, numbered in the
    order reached, and the walk: the nonempty rows i >= 0 and columns ~j in
    the order reached, each after the node that reached it, the column that
    reached each row (-1 for a component's root, its first row) and the row
    that reached each column.  A matrix without zeros is one component; its
    walk, every column from row 0 and then every other row from the last
    column, is written down without walking."""
    m, n = nz.shape
    if nz.all():
        zero = np.zeros(1, dtype=int)
        walk = [0, *range(-1, -n - 1, -1), *range(1, m)], [-1] + [n - 1] * (m - 1), [0] * n  # ~j = -1 - j
        return np.arange(m), np.arange(n), (zero, np.zeros(m, dtype=int), zero, np.zeros(n, dtype=int)), walk
    row_ptr, row_cols = _adjacency(nz)
    col_ptr, col_rows = _adjacency(nz.T)
    row_block, col_block = [-1] * m, [-1] * n
    row_from, col_from = [-1] * m, [0] * n
    order, count = [], 0
    for root in range(m):
        if row_block[root] >= 0 or row_ptr[root] == row_ptr[root + 1]:
            continue
        row_block[root] = count
        order.append(root)
        todo = [root]
        while todo:
            node = todo.pop()
            if node >= 0:
                for j in row_cols[row_ptr[node] : row_ptr[node + 1]]:
                    if col_block[j] < 0:
                        col_block[j], col_from[j] = count, node
                        order.append(~j)
                        todo.append(~j)
            else:
                for i in col_rows[col_ptr[~node] : col_ptr[~node + 1]]:
                    if row_block[i] < 0:
                        row_block[i], row_from[i] = count, ~node
                        order.append(i)
                        todo.append(i)
        count += 1
    rows, cols = [i for i in order if i >= 0], [~j for j in order if j < 0]
    row_block, col_block = [row_block[i] for i in rows], [col_block[j] for j in cols]
    blocks = (_starts(row_block), np.array(row_block), _starts(col_block), np.array(col_block))
    return np.array(rows), np.array(cols), blocks, (order, row_from, col_from)


def _adjacency(nz: np.ndarray) -> tuple[list, list]:
    """Row pointers and column indices of the nonzeros of a boolean matrix, as lists."""
    m, n = nz.shape
    flat = np.flatnonzero(nz)
    ptr = np.searchsorted(flat, np.arange(0, m * n + 1, n)).tolist()
    flat %= n
    return ptr, flat.tolist()


def _power_iteration(arr, pe, restarts, max_iters, tol, gens) -> list[PNormEstimate]:
    """The dual power iteration on a stack, one generator per matrix.

    Slot k of every state array holds matrix ``member[k]``; finished
    matrices are compacted out of the leading slots, so the live part of
    each array stays contiguous and the batched matmuls make the same BLAS
    calls as one matrix at a time.  The views of the live slots (``live_*``)
    are taken once and again only after a compaction, not per iteration.
    While one member is live, a one-matrix call from its start or the last
    member of a stack, its slot is 0 and there are no slots to keep: its
    best value is one scalar test on ``argmax``, it stops when all its
    restarts stagnate, and it is finished after the loop.  Both branches
    make the same floating-point operations on the same operands, so an
    estimate keeps its bits whether it ran alone or in a stack.  ``arr``
    must be an array the caller owns: it is scaled and compacted in place.

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
    e = _scale_down(arr, pe)

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
                                   e[b], pe, "power-iteration", restarts)

    live = count
    live_arr, live_a_h, live_best, live_prev, live_stagnant = arr, a_h, best_val, prev_vals, stagnant
    for _ in range(max_iters):
        # forward half-step: y = A x becomes sign(y) in place, |y| its column-scaled moduli
        u, scaled, tops = _signs_and_scaled(live_arr @ x)
        vals = (scaled**p).sum(axis=1)
        vals **= 1.0 / p
        vals *= tops[:, 0, :]
        if live == 1:  # one member: its slot is 0 and it is finished after the loop
            col = vals[0].argmax()
            if vals[0, col] > best_val[0]:
                best_val[0] = vals[0, col]
                best_witness[0] = x[0, :, col]
                best_col[0] = col
            live_stagnant |= np.abs(vals - live_prev) <= tol * vals
            live_prev[...] = vals
            if live_stagnant.all():
                break
        else:
            top_vals = vals.max(axis=1)
            gain = top_vals > live_best
            if gain.any():
                rows = np.flatnonzero(gain)
                cols = vals[rows].argmax(axis=1)
                best_val[rows] = top_vals[rows]
                best_witness[rows] = x[rows, :, cols]
                best_col[rows] = cols
            live_stagnant |= np.abs(vals - live_prev) <= tol * vals
            live_prev[...] = vals
            done = live_stagnant.all(axis=1)
            if done.all():
                break
            if done.any():
                finish(np.flatnonzero(done))
                keep = np.flatnonzero(~done)
                for state in (arr, a_h, best_val, best_witness, best_col, prev_vals, stagnant):
                    state[: keep.size] = state[keep]
                member = member[keep]
                x, u, scaled = x[keep], u[keep], scaled[keep]
                live = keep.size
                live_arr, live_a_h, live_best = arr[:live], a_h[:live], best_val[:live]
                live_prev, live_stagnant = prev_vals[:live], stagnant[:live]
        # dual half-step: w = dualmap_q(A* dualmap_p(y)), then w / ||w||_p
        scaled **= p - 1.0
        u *= scaled
        w, scaled, _ = _signs_and_scaled(live_a_h @ u)
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
            live_stagnant |= dead
        x = w
    finish(range(live))
    return results


def _finished(mat, best_val, best_witness, converged, e, pe, method, restarts) -> PNormEstimate:
    """The estimate of one matrix (already scaled by 2^-e) from its best iterate."""
    if best_val <= 0.0:
        witness = np.zeros(mat.shape[1], dtype=complex)
        witness[0] = 1.0
        return PNormEstimate(0.0, witness, method, True, restarts)
    witness = best_witness / vector_pnorm(best_witness, pe)
    try:
        value = math.ldexp(vector_pnorm(mat @ witness, pe), e)
    except OverflowError:
        raise _overflow(mat, pe) from None
    return PNormEstimate(value, witness, method, converged, restarts)


def pnorm_oracle(a, p, samples: int = 64, *, rng=None) -> float:
    """Brute-force lower bound for ||A||_{p->p} on matrices of dimension <= 6.

    Candidate unit vectors are random complex starts, the standard basis
    vectors (these exhaust the extreme points of the unit l^1 ball up to
    phase), and a phase-aligned vector per row (optimal for p = inf).  For
    1 < p < inf every candidate is refined by projected gradient ascent on
    ||A x||_p / ||x||_p with a vectorized line search along the gradient,
    for at most 200 rounds.

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
    gen = as_generator(rng)

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
    for _ in range(_ORACLE_ITERS):
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
