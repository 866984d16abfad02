"""Matrix spaces over l^p, linear maps between them, and amplification.

An operator space here is just M_d acting on l^p({1..d}).  Tensor products
follow the lexicographic identification of l^p(X x Y) with l^p(X) (x) l^p(Y)
(outer index major), which is exactly ``numpy.kron``.  A linear map between
matrix spaces is stored by how it acts on entries, with the dense coefficient
matrix over the row-major matrix-unit basis available on demand.

The p-completely-bounded norm of a map phi is sup_n of the norm of
id_{M_n} (x) phi.  ``cb_norm_lower`` samples the first few amplification
levels and reports the (nondecreasing) lower bounds it finds; such levels
can only refute contractivity (a level above 1 + 1e-6 does).  A map that
factors as x -> R (I (x) rho(x)) S, with R and S monomial (one entry per
column of R, per row of S) and rho p-completely contractive, has the
closed-form bound ||R|| ||S|| at every level; ``monomial_cb`` records it as
a structural upper bound with no sampling, and ``compression_cb`` is its
case T -> T[sel, sel], whose levels are 1.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .lpnorm import as_exponent, as_generator, pnorm_estimate_stack

__all__ = [
    "CbEstimate",
    "LinearMap",
    "amplify",
    "block_matrix",
    "cb_norm_lower",
    "compression_cb",
    "monomial_cb",
    "split_blocks",
]


# bytes of stacked matrices in one estimator call of cb_norm_lower
_GROUP_BYTES = 1 << 20


def split_blocks(m: np.ndarray, n: int, d: int) -> np.ndarray:
    """View an (n*d) x (n*d) matrix as the (n, n, d, d) array of its d x d blocks."""
    return m.reshape(n, d, n, d).transpose(0, 2, 1, 3)


def block_matrix(blocks: np.ndarray) -> np.ndarray:
    """Inverse of :func:`split_blocks`: assemble an (n, n, d, c) block array."""
    n, _, d, c = blocks.shape
    return blocks.transpose(0, 2, 1, 3).reshape(n * d, n * c)


class LinearMap:
    """A linear map M_{domain_dim} -> M_{codomain_dim} over C.

    The map is defined either by a dense coefficient matrix of shape
    (codomain_dim^2, domain_dim^2) acting on row-major vectorizations, or by
    a callable; the coefficient matrix is materialized lazily from the
    callable when first requested, so cheap closures over large spaces never
    pay for dense storage unless asked to.
    """

    def __init__(self, domain_dim, codomain_dim, *, matrix=None, apply_fn=None, name=""):
        if (matrix is None) == (apply_fn is None):
            raise ValueError("provide exactly one of matrix= or apply_fn=")
        self.domain_dim = int(domain_dim)
        self.codomain_dim = int(codomain_dim)
        self.name = name
        self._apply_fn = apply_fn
        self._matrix = None
        if matrix is not None:
            matrix = np.asarray(matrix, dtype=complex)
            expected = (self.codomain_dim**2, self.domain_dim**2)
            if matrix.shape != expected:
                raise ValueError(f"coefficient matrix must have shape {expected}, got {matrix.shape}")
            self._matrix = matrix

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
        if self._apply_fn is not None:
            out = np.asarray(self._apply_fn(a), dtype=complex)
        else:
            out = (self._matrix @ a.reshape(-1)).reshape(self.codomain_dim, self.codomain_dim)
        if out.shape != (self.codomain_dim, self.codomain_dim):
            raise ValueError(
                f"map produced shape {out.shape}, expected {(self.codomain_dim,) * 2}"
            )
        return out

    __call__ = apply

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other."""
        if other.codomain_dim != self.domain_dim:
            raise ValueError("composition dimension mismatch")
        return LinearMap(
            other.domain_dim,
            self.codomain_dim,
            apply_fn=lambda a: self.apply(other.apply(a)),
            name=f"{self.name}*{other.name}",
        )

    @staticmethod
    def identity(dim: int) -> "LinearMap":
        return LinearMap(dim, dim, apply_fn=lambda a: a, name=f"id_{dim}")

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"LinearMap({self.domain_dim} -> {self.codomain_dim}{tag})"


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
    if n < 1:
        raise ValueError("amplification level must be a positive integer")
    return LinearMap(
        n * phi.domain_dim,
        n * phi.codomain_dim,
        apply_fn=lambda m: apply_amplified(phi, m, n),
        name=f"id_{n}(x){phi.name}" if phi.name else "",
    )


@dataclass
class CbEstimate:
    """Bounds for a cb norm, one per amplification level, and their kind.

    ``kind`` says which direction the levels are sound in:

    * ``"sampled_lower"``: ``levels`` maps level n to the best ratio found
      at that level after enforcing monotonicity (level n inputs embed in
      level n+1, so the true suprema are nondecreasing and the recorded
      bounds are kept that way).  These are lower bounds: a level above 1
      refutes contractivity, a level at or below 1 proves nothing.
    * ``"structural"``: each level is a proved upper bound for the norm of
      id_{M_n} (x) phi, derived from the form of the map (see
      :func:`monomial_cb`).
    """

    levels: list[tuple[int, float]] = field(default_factory=list)
    kind: str = "sampled_lower"

    @property
    def best(self) -> float:
        return max((v for _, v in self.levels), default=0.0)


def _monomial_norm(groups: np.ndarray, values: np.ndarray, r: float) -> float:
    """Largest l^r norm among the groups of entries that share a label, r in [1, inf]."""
    mags = np.abs(values)
    top = float(mags.max(initial=0.0))
    if top == 0.0:
        return 0.0
    if math.isinf(r):
        return top
    # scaled by the largest modulus so that the r-th powers cannot overflow
    return top * float(np.bincount(groups, weights=(mags / top) ** r).max()) ** (1.0 / r)


def _monomial_entries(factor, one_per: str, what: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validated (rows, cols, values) of a factor with at most one entry per row or column."""
    rows, cols, values = (np.asarray(part) for part in factor)
    if not (rows.ndim == 1 and rows.shape == cols.shape == values.shape):
        raise ValueError(f"{what} must be three one-dimensional arrays of equal length")
    if not (np.issubdtype(rows.dtype, np.integer) and np.issubdtype(cols.dtype, np.integer)):
        raise ValueError(f"{what} needs integer row and column indices")
    if rows.size and min(rows.min(), cols.min()) < 0:
        raise ValueError(f"{what} has a negative index")
    unique = cols if one_per == "column" else rows
    if unique.size and np.bincount(unique).max() > 1:
        raise ValueError(f"{what} is not monomial: a {one_per} holds two entries")
    return rows, cols, values


def monomial_cb(r, s, p, n_max: int) -> CbEstimate:
    """Structural cb certificate of a map x -> R (I (x) rho(x)) S with monomial R and S.

    R has at most one entry per column and S at most one per row; each is
    given by the arrays of its entries, a (rows, cols, values) triple, never
    as a dense matrix.  rho must be p-completely contractive, which the
    caller vouches for (a direct sum of conjugations by phased
    permutations, or of copies of the input, is p-completely isometric).

    The columns of R are disjoint, so by Hoelder ||R||_p is the largest
    l^q norm of a row of R; dually ||S||_p = ||S*||_q is the largest l^p
    norm of a column of S.  Both hold for every p in [1, inf].  The
    amplification id_{M_n} (x) phi factors through I_n (x) R and I_n (x) S,
    which have the same norms, so every level n <= n_max gets the proved
    upper bound ||R|| ||S||, up to the rounding of these few operations.
    Input with two entries in one column of R or one row of S is refused,
    as is ``n_max < 1``: a certificate with no levels proves nothing.
    """
    if n_max < 1:
        raise ValueError(f"a structural certificate needs at least one level, got n_max={n_max}")
    pe = as_exponent(p)
    r_rows, _, r_values = _monomial_entries(r, "column", "R")
    _, s_cols, s_values = _monomial_entries(s, "row", "S")
    bound = _monomial_norm(r_rows, r_values, pe.q) * _monomial_norm(s_cols, s_values, pe.p)
    return CbEstimate(levels=[(n, bound) for n in range(1, n_max + 1)], kind="structural")


def compression_cb(sel, domain_dim: int, n_max: int) -> CbEstimate:
    """Structural cb certificate of the compression T -> T[sel, sel] on M_{domain_dim}.

    The map is J* T J for the coordinate inclusion J of l^p(sel) into
    l^p(domain_dim), so it is the :func:`monomial_cb` case R = J*, S = J,
    rho = id, with levels 1.0 for every p.  A repeated index puts two
    entries in one column of J* (the selector [0, 0] sends e_00 to the
    all-ones 2 x 2 matrix, of norm 2), so it is refused, as is an index
    outside the domain.
    """
    sel = np.asarray(sel)
    if sel.ndim != 1 or not np.issubdtype(sel.dtype, np.integer):
        raise ValueError("a compression selector must be a one-dimensional array of indices")
    if ((sel < 0) | (sel >= domain_dim)).any():
        raise ValueError(f"compression selector leaves the index range [0, {domain_dim})")
    inner, ones = np.arange(sel.size), np.ones(sel.size)
    return monomial_cb((inner, sel, ones), (sel, inner, ones), 1.0, n_max)


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
    tol: float = 1e-11,
) -> CbEstimate:
    """Lower-bound the p-cb norm of ``phi`` by sampling amplification levels.

    At each level n <= n_max the ratio ||(id_n (x) phi)(M)||_{p->p} / ||M||_{p->p}
    is maximized over ``trials`` random inputs (plus a few structured ones:
    the identity, a transpose witness, and a corner-supported block), each
    refined by a short stochastic ascent.  ``sampler(rng, n)`` may supply
    domain-specific random inputs, e.g. elements of a particular subalgebra.

    Inner operator norms use :func:`lpalg.lpnorm.pnorm_estimate_stack`;
    since both numerator and denominator are certified lower bounds, sampled
    ratios can exceed a true cb norm only by the estimator's convergence
    slack on the denominator.  Both estimates of one ratio run from the same
    seed, so a map acting as the identity on an input yields the ratio 1.0
    bit for bit, and the denominator gets two extra restarts to keep its
    slack below the 1e-6 certificate tolerance on the sizes used here.

    Evaluation.  A level's inputs are taken in groups of consecutive inputs,
    each group holding at most ``_GROUP_BYTES`` of stacked matrices counted
    at the larger of the level's domain and codomain dimensions, so the
    largest shapes run one input at a time.  A group runs in rounds: round 0
    computes every input's starting ratio, and round k its k-th ascent
    candidate.  Each round makes one stacked estimator call for the
    denominators and one for the numerators; ``apply_amplified`` runs once
    per candidate.

    Random stream.  The group's share of ``rng`` is drawn before its first
    round, in the order of the one-input-at-a-time ascent: per input a seed,
    then (noise, seed) for each of the ``ascent_steps`` steps.  An input is
    skipped, with no ascent and no draws after its seed, when it is zero or
    amplified ``phi`` maps it to zero; a candidate with that property gets
    the ratio 0 without estimates.  Neither rule depends on an estimate, so
    the results do not depend on the grouping.
    """
    pe = as_exponent(p)
    gen = as_generator(rng)
    d = phi.domain_dim
    est_opts = {"restarts": restarts + 2, "max_iters": max_iters, "tol": tol}

    levels: list[tuple[int, float]] = []
    running = 0.0
    for n in range(1, n_max + 1):
        dim = n * d
        inputs = _default_level_inputs(n, d, gen)
        draw = sampler if sampler is not None else (lambda g, _n: _gaussian_sampler(g, dim))
        inputs.extend(np.asarray(draw(gen, n), dtype=complex) for _ in range(trials))
        size = max(1, _GROUP_BYTES // (16 * max(dim, n * phi.codomain_dim) ** 2))
        level_best = 0.0
        for start in range(0, len(inputs), size):
            group = inputs[start : start + size]
            level_best = max(level_best, _ascend_group(phi, pe, n, group, gen, ascent_steps, est_opts))
        running = max(running, level_best)
        levels.append((n, running))
    return CbEstimate(levels=levels)


@dataclass
class _Walk:
    """One input's stochastic ascent: the current point, its ratio, the step
    size, and a copy of the rng positioned at the draws of its next step."""

    m: np.ndarray
    ratio: float
    scale: float
    gen: np.random.Generator
    sigma: float = 0.25


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


def _ascend_group(phi, pe, n: int, group: list, gen, ascent_steps: int, est_opts: dict) -> float:
    """Best ratio over one group of level-n inputs after their ascents."""
    walks, starts = [], []
    for m in group:
        seed = int(gen.integers(2**63))
        image = _nonzero_image(phi, m, n)
        if image is None:
            continue
        # the walk replays its steps' draws from a copy; gen only moves past them
        walks.append(_Walk(m, 0.0, float(np.linalg.norm(m)) / (n * phi.domain_dim), copy.deepcopy(gen)))
        for _ in range(ascent_steps):
            _draw_step(gen, m.shape)
        starts.append((m, image, seed))
    for walk, ratio in zip(walks, _stacked_ratios(pe, starts, est_opts)):
        walk.ratio = ratio
    del starts  # the starting images are not needed in the ascent rounds
    for _ in range(ascent_steps):
        trial = []
        for walk in walks:
            noise, seed = _draw_step(walk.gen, walk.m.shape)
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
