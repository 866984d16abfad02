"""Matrix spaces over l^p, linear maps between them, and amplification.

An operator space here is just M_d acting on l^p({1..d}).  Tensor products
follow the lexicographic identification of l^p(X x Y) with l^p(X) (x) l^p(Y)
(outer index major), which is exactly ``numpy.kron``.  A linear map between
matrix spaces is the function that applies it, with the dense coefficient
matrix over the row-major matrix-unit basis derived on demand.

The p-completely-bounded norm of a map phi is sup_n of the norm of
id_{M_n} (x) phi.  ``cb_norm_lower`` samples the first few amplification
levels and reports the (nondecreasing) lower bounds it finds; such levels
can only refute contractivity.  Structural certificates are proved upper
bounds read off the form of a map, with no sampling, each exact or rounded
up: ``averaging_cb`` for x -> R (I (x) rho(x)) S whose monomial factors
have norm exactly 1, and ``weighted_sum_cb`` for a map of direct sums whose
output fibres are nonnegative combinations of its input fibres, bounded by
the largest column sum of the weights.

Every coordinate cut is one map: ``compression`` is T -> J* T J = T[sel, sel]
for the coordinate inclusion J of l^p(sel), ``embedding`` its adjoint
M -> J M J*, the zero-padding back, and ``compression_cb`` the certificate
of both, with levels 1.
"""

from __future__ import annotations

import math

import numpy as np

from .groups import as_integer
from .lpnorm import as_exponent, as_generator, pnorm_estimate_stack

__all__ = [
    "CbEstimate",
    "LinearMap",
    "amplify",
    "averaging_cb",
    "block_matrix",
    "cb_norm_lower",
    "compression",
    "compression_cb",
    "embedding",
    "split_blocks",
    "weighted_sum_cb",
]


def split_blocks(m: np.ndarray, n: int, d: int) -> np.ndarray:
    """View an (n*d) x (n*d) matrix as the (n, n, d, d) array of its d x d blocks."""
    return m.reshape(n, d, n, d).transpose(0, 2, 1, 3)


def block_matrix(blocks: np.ndarray) -> np.ndarray:
    """Inverse of :func:`split_blocks`: assemble an (n, n, d, c) block array."""
    n, _, d, c = blocks.shape
    return blocks.transpose(0, 2, 1, 3).reshape(n * d, n * c)


class LinearMap:
    """A linear map M_{domain_dim} -> M_{codomain_dim} over C, given by the
    callable that applies it.

    The dense coefficient matrix, of shape (codomain_dim^2, domain_dim^2)
    over row-major vectorizations, is derived from the callable when first
    requested, so cheap closures over large spaces never pay for dense
    storage unless asked to.
    """

    def __init__(self, domain_dim, codomain_dim, *, apply_fn):
        self.domain_dim = as_integer(domain_dim, "domain_dim", 0)
        self.codomain_dim = as_integer(codomain_dim, "codomain_dim", 0)
        self._apply_fn = apply_fn
        self._matrix = None

    @property
    def matrix(self) -> np.ndarray:
        """Coefficient matrix over row-major matrix units, built on first use."""
        if self._matrix is None:
            cols = []
            for k in range(self.domain_dim**2):
                unit = np.zeros(self.domain_dim**2, dtype=complex)
                unit[k] = 1.0
                cols.append(self.apply(unit.reshape(self.domain_dim, self.domain_dim)).reshape(-1))
            self._matrix = np.stack(cols, axis=1)
        return self._matrix

    def apply(self, a) -> np.ndarray:
        a = np.asarray(a, dtype=complex)
        if a.shape != (self.domain_dim, self.domain_dim):
            raise ValueError(
                f"input must be {self.domain_dim} x {self.domain_dim}, got {a.shape}"
            )
        out = np.asarray(self._apply_fn(a), dtype=complex)
        if out.shape != (self.codomain_dim, self.codomain_dim):
            raise ValueError(
                f"map produced shape {out.shape}, expected {(self.codomain_dim,) * 2}"
            )
        return out

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other."""
        if other.codomain_dim != self.domain_dim:
            raise ValueError("composition dimension mismatch")
        return LinearMap(
            other.domain_dim,
            self.codomain_dim,
            apply_fn=lambda a: self.apply(other.apply(a)),
        )

    @staticmethod
    def identity(dim: int) -> "LinearMap":
        return LinearMap(dim, dim, apply_fn=lambda a: a)

    def __repr__(self) -> str:
        return f"LinearMap({self.domain_dim} -> {self.codomain_dim})"


def apply_amplified(phi: LinearMap, m: np.ndarray, n: int) -> np.ndarray:
    """Apply id_{M_n} (x) phi blockwise, without building a dense coefficient."""
    blocks = split_blocks(np.asarray(m, dtype=complex), n, phi.domain_dim)
    out = np.empty((n, n, phi.codomain_dim, phi.codomain_dim), dtype=complex)
    for i in range(n):
        for j in range(n):
            out[i, j] = phi.apply(blocks[i, j])
    return block_matrix(out)


def amplify(phi: LinearMap, n: int) -> LinearMap:
    """The amplification id_{M_n} (x) phi: sum e_{i,j} (x) a_{i,j} maps to
    sum e_{i,j} (x) phi(a_{i,j})."""
    n = as_integer(n, "amplification level", 1)
    return LinearMap(
        n * phi.domain_dim,
        n * phi.codomain_dim,
        apply_fn=lambda m: apply_amplified(phi, m, n),
    )


class CbEstimate:
    """Bounds for a cb norm, one per amplification level, and their kind.

    ``kind`` says which direction the levels are sound in:

    * ``"sampled_lower"``: ``levels`` maps level n to the best ratio found
      at that level after enforcing monotonicity (level n inputs embed in
      level n+1, so the true suprema are nondecreasing and the recorded
      bounds are kept that way).  These are lower bounds: a level above 1
      refutes contractivity, a level at or below 1 proves nothing.
    * ``"structural"``: each level is a proved upper bound for the norm of
      id_{M_n} (x) phi, derived from the form of the map and exact or
      rounded up (see :func:`averaging_cb` and :func:`weighted_sum_cb`).
    """

    def __init__(self, levels: list[tuple[int, float]] | None = None, kind: str = "sampled_lower"):
        self.levels = [] if levels is None else levels
        self.kind = kind

    @property
    def best(self) -> float:
        return max((v for _, v in self.levels), default=0.0)


def weighted_sum_cb(weights) -> CbEstimate:
    """Structural cb certificate of a map between direct sums whose output
    fibre x is sum_i w[i, x] (input fibre i), for a nonnegative
    (n_in, n_out) array w.

    A direct sum's norm is its largest fibre's.  Amplified by id_{M_n},
    output fibre x is the same weighted sum of the M_n-valued input fibres
    D_i, and ||sum_i w[i, x] D_i|| <= sum_i w[i, x] max_i ||D_i|| by the
    triangle inequality, so the largest column sum max_x sum_i w[i, x]
    bounds the map at every level and for every p.  Each column is summed
    with ``math.fsum``, correctly rounded, and raised to the next float
    where that rounding fell below the exact sum, so the level is a proved
    upper bound.  Weights that are not a finite, nonnegative
    two-dimensional array are refused.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2 or not np.isfinite(w).all() or (w < 0.0).any():
        raise ValueError("weights must be a finite, nonnegative two-dimensional array")
    bound = 0.0
    for column in w.T.tolist():
        s = math.fsum(column)
        if math.fsum([*column, -s]) > 0.0:  # the rounded sum lies below the exact one
            s = math.nextafter(s, math.inf)
        bound = max(bound, s)
    return _structural(bound)


def averaging_cb(count: int) -> CbEstimate:
    """Structural cb certificate of x -> R (I (x) rho(x)) S, rho
    p-completely contractive, R with one entry per column and ``count``
    entries of modulus count^(-1/q) in every row, S with one entry per row
    and ``count`` entries of modulus count^(-1/p) in every column.

    The amplification factors through I_n (x) R and I_n (x) S, of the same
    norms, so ||R|| ||S|| bounds every level.  The columns of R are
    disjoint, so by Hoelder ||R||_p is the largest l^q norm of a row, and
    dually ||S||_p the largest l^p norm of a column: for any p both are
    exactly 1, so the bound is exactly 1.0 (0.0 for count 0), with no
    entry listed and no rounding."""
    return _structural(1.0 if count else 0.0)


def _structural(bound: float) -> CbEstimate:
    """The structural certificate of a bound that holds at every level,
    listed at levels 1 and 2."""
    return CbEstimate(levels=[(1, bound), (2, bound)], kind="structural")


def _selector(sel, dim: int) -> np.ndarray:
    """A coordinate selector of l^p(dim): one-dimensional integer indices in
    [0, dim), none repeated."""
    sel = np.asarray(sel)
    if sel.ndim != 1 or not np.issubdtype(sel.dtype, np.integer):
        raise ValueError("a compression selector must be a one-dimensional array of indices")
    if ((sel < 0) | (sel >= dim)).any():
        raise ValueError(f"compression selector leaves the index range [0, {dim})")
    if sel.size and np.bincount(sel).max() > 1:
        raise ValueError("compression selector repeats an index")
    return sel


def compression(sel, domain_dim: int) -> LinearMap:
    """The compression T -> J* T J = T[sel, sel] on M_{domain_dim}, J the
    coordinate inclusion of l^p(sel); :func:`compression_cb` certifies it."""
    sel = _selector(sel, domain_dim)
    grid = np.ix_(sel, sel)
    return LinearMap(domain_dim, sel.size, apply_fn=lambda t: t[grid])


def embedding(sel, codomain_dim: int) -> LinearMap:
    """The adjoint of :func:`compression`: M -> J M J*, M placed at the rows
    and columns ``sel`` of a zero matrix; a complete isometry for every p."""
    sel = _selector(sel, codomain_dim)
    grid = np.ix_(sel, sel)

    def pad(m):
        out = np.zeros((codomain_dim, codomain_dim), dtype=complex)
        out[grid] = m
        return out

    return LinearMap(sel.size, codomain_dim, apply_fn=pad)


def compression_cb(sel, domain_dim: int) -> CbEstimate:
    """Structural cb certificate of :func:`compression` on M_{domain_dim}.

    J* T J is the case R = J*, S = J, rho = id, one entry 1 per row of J*
    and column of J: :func:`averaging_cb` at count 1, levels 1.0 (0.0 for
    the empty selector), with no J built.  A repeated index puts
    two entries in a column of J* (the selector [0, 0] sends e_00 to the
    all-ones 2 x 2 matrix, of norm 2), so it is refused, as is an index
    outside the domain."""
    sel = _selector(sel, domain_dim)
    return averaging_cb(1 if sel.size else 0)


def _swap_like(n: int, d: int) -> np.ndarray:
    """sum_{i,j <= min(n,d)} e_{i,j} (x) e_{j,i}, padded into M_n (x) M_d.

    This input witnesses the level-n growth of transpose-like maps.
    """
    m = min(n, d)
    out = np.zeros((n, n, d, d), dtype=complex)
    for i in range(m):
        for j in range(m):
            out[i, j, j, i] = 1.0
    return block_matrix(out)


def _default_level_inputs(n: int, d: int, rng: np.random.Generator) -> list[np.ndarray]:
    corner = np.zeros((n, n, d, d), dtype=complex)
    corner[0, 0] = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return [np.eye(n * d, dtype=complex), _swap_like(n, d), block_matrix(corner)]


def _gaussian_sampler(rng: np.random.Generator, dim: int) -> np.ndarray:
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def cb_norm_lower(
    phi: LinearMap,
    p,
    n_max: int = 4,
    trials: int = 16,
    *,
    rng=None,
    sampler=None,
    ascent_steps: int = 4,
    restarts: int = 8,
    max_iters: int = 80,
) -> CbEstimate:
    """Lower-bound the p-cb norm of ``phi`` by sampling amplification levels.

    At each level n <= n_max the ratio ||(id_n (x) phi)(M)||_{p->p} / ||M||_{p->p}
    is maximized over ``trials`` random inputs (plus the identity, a
    transpose witness and a corner-supported block), each refined by a
    short stochastic ascent.  ``sampler(rng, n)`` may supply domain-specific
    random inputs; ``rng`` is a Generator, a seed, or None for seed 0.

    Both norms of a ratio are lower bounds from
    :func:`lpalg.lpnorm.pnorm_estimate_stack` run from the same seed, so a
    ratio exceeds the true cb norm only by the denominator's convergence
    slack (kept below the 1e-6 within which the suite compares sampled
    levels with 1, by two extra restarts), and a map acting as the identity on an input gives the ratio
    1.0 bit for bit.

    A level runs in rounds over all its inputs: round 0 takes every input's
    starting ratio and round k its k-th ascent candidate, each round with
    one stacked estimator call per side.  The draws are taken up front, in
    the order of a one-input-at-a-time ascent: per input a seed, then
    (noise, seed) per ascent step.  An input that is zero, or that amplified
    ``phi`` maps to zero, is skipped with no draws after its seed; such a
    candidate gets the ratio 0 without estimates.  ``n_max``, ``trials``,
    ``restarts`` and ``ascent_steps`` must be integers (a float or a bool is
    refused, see :func:`lpalg.groups.as_integer`): ``n_max`` and
    ``restarts`` at least 1, the other two at least 0.  ``restarts`` is
    checked as given, before the two extra.
    """
    n_max, trials = as_integer(n_max, "n_max", 1), as_integer(trials, "trials", 0)
    restarts, ascent_steps = as_integer(restarts, "restarts", 1), as_integer(ascent_steps, "ascent_steps", 0)
    pe = as_exponent(p)
    gen = as_generator(rng)
    d = phi.domain_dim
    est_opts = {"restarts": restarts + 2, "max_iters": max_iters, "tol": 1e-11}

    levels: list[tuple[int, float]] = []
    running = 0.0
    for n in range(1, n_max + 1):
        dim = n * d
        inputs = _default_level_inputs(n, d, gen)
        draw = sampler if sampler is not None else (lambda g, _n: _gaussian_sampler(g, dim))
        inputs.extend(np.asarray(draw(gen, n), dtype=complex) for _ in range(trials))
        running = max(running, _ascend_level(phi, pe, n, inputs, gen, ascent_steps, est_opts))
        levels.append((n, running))
    return CbEstimate(levels=levels)


class _Walk:
    """One input's stochastic ascent: the current point, its ratio, the step
    size, and the draws of its remaining steps."""

    def __init__(self, m: np.ndarray, ratio: float, scale: float, steps: list, sigma: float = 0.25):
        self.m = m
        self.ratio = ratio
        self.scale = scale
        self.steps = steps
        self.sigma = sigma


def _draw_step(gen: np.random.Generator, shape: tuple) -> tuple[np.ndarray, int]:
    """One ascent step's draws: the noise, then the seed of its estimates."""
    return gen.standard_normal(shape) + 1j * gen.standard_normal(shape), int(gen.integers(2**63))


def _nonzero_image(phi: LinearMap, m: np.ndarray, n: int):
    """(id_n (x) phi)(m), or None when m or its image is zero."""
    if not m.any():
        return None
    image = apply_amplified(phi, m, n)
    return image if image.any() else None


def _stacked_ratios(pe, candidates: list, est_opts: dict) -> list[float]:
    """||image|| / ||m|| for each (m, image, seed), one stacked call per side."""
    if not candidates:
        return []
    ms, images, seeds = zip(*candidates)
    dens = pnorm_estimate_stack(ms, pe, rngs=seeds, **est_opts)
    nums = pnorm_estimate_stack(images, pe, rngs=seeds, **est_opts)
    return [num.value / den.value if den.value > 0.0 else 0.0 for num, den in zip(nums, dens)]


def _ascend_level(phi, pe, n: int, inputs: list, gen, ascent_steps: int, est_opts: dict) -> float:
    """Best ratio over the level-n inputs after their ascents."""
    walks, starts = [], []
    for m in inputs:
        seed = int(gen.integers(2**63))
        image = _nonzero_image(phi, m, n)
        if image is None:
            continue
        steps = [_draw_step(gen, m.shape) for _ in range(ascent_steps)]
        walks.append(_Walk(m, 0.0, float(np.linalg.norm(m)) / (n * phi.domain_dim), steps))
        starts.append((m, image, seed))
    for walk, ratio in zip(walks, _stacked_ratios(pe, starts, est_opts)):
        walk.ratio = ratio
    del starts  # the starting images are not needed in the ascent rounds
    for _ in range(ascent_steps):
        trial = []
        for walk in walks:
            noise, seed = walk.steps.pop(0)
            cand = walk.m + walk.sigma * walk.scale * noise
            image = _nonzero_image(phi, cand, n)
            trial.append(None if image is None else (cand, image, seed))
        ratios = iter(_stacked_ratios(pe, [t for t in trial if t is not None], est_opts))
        for walk, t in zip(walks, trial):
            cand_ratio = 0.0 if t is None else next(ratios)
            if cand_ratio > walk.ratio:
                walk.m, walk.ratio = t[0], cand_ratio
                walk.sigma *= 1.5
            else:
                walk.sigma *= 0.5
    return max((walk.ratio for walk in walks), default=0.0)
