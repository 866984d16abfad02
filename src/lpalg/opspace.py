"""Matrix spaces over l^p, linear maps between them, and amplification.

An operator space here is just M_d acting on l^p({1..d}).  Tensor products
follow the lexicographic identification of l^p(X x Y) with l^p(X) (x) l^p(Y)
(outer index major), which is exactly ``numpy.kron``.  A linear map between
matrix spaces is stored by how it acts on entries, with the dense coefficient
matrix over the row-major matrix-unit basis available on demand.

The p-completely-bounded norm of a map phi is sup_n of the norm of
id_{M_n} (x) phi.  ``cb_norm_lower`` samples the first few amplification
levels and reports the (nondecreasing) lower bounds it finds; a map is
certified p-completely contractive when no sampled level exceeds 1 + 1e-6.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lpnorm import as_exponent, pnorm_estimate, validate_matrix

__all__ = [
    "CbEstimate",
    "LinearMap",
    "amplify",
    "block_matrix",
    "cb_norm_lower",
    "kron",
    "matrix_unit",
    "split_blocks",
]


def kron(a, b) -> np.ndarray:
    """Kronecker product under the lexicographic basis ordering of l^p(X x Y)."""
    return np.kron(validate_matrix(a), validate_matrix(b))


def matrix_unit(n: int, i: int, j: int) -> np.ndarray:
    """The n x n matrix unit e_{i,j}; indices are 1-based as in e_{1,1}."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"matrix unit indices must lie in 1..{n}, got ({i}, {j})")
    out = np.zeros((n, n), dtype=complex)
    out[i - 1, j - 1] = 1.0
    return out


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
    """Sampled lower bounds for a cb norm, one per amplification level.

    ``levels`` maps level n to the best ratio found at that level after
    enforcing monotonicity (level n inputs embed in level n+1, so the true
    suprema are nondecreasing and the recorded bounds are kept that way).
    """

    levels: list[tuple[int, float]] = field(default_factory=list)

    @property
    def best(self) -> float:
        return max((v for _, v in self.levels), default=0.0)


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

    Inner operator norms use :func:`lpalg.lpnorm.pnorm_estimate`; since both
    numerator and denominator are certified lower bounds, sampled ratios can
    exceed a true cb norm only by the estimator's convergence slack on the
    denominator.  Both estimates of one ratio run from the same spawned
    seed, so a map acting as the identity on an input yields the ratio 1.0
    bit for bit, and the denominator gets two extra restarts to keep its
    slack below the 1e-6 certificate tolerance on the sizes used here.
    """
    pe = as_exponent(p)
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    d = phi.domain_dim

    def ratio_at(m: np.ndarray, n: int) -> float:
        seed = int(gen.integers(2**63))
        den = pnorm_estimate(
            m, pe, restarts=restarts + 2, max_iters=max_iters, tol=tol, rng=np.random.default_rng(seed)
        ).value
        if den <= 1e-12 * float(np.abs(m).max(initial=0.0)):
            return 0.0
        num = pnorm_estimate(
            apply_amplified(phi, m, n),
            pe,
            restarts=restarts + 2,
            max_iters=max_iters,
            tol=tol,
            rng=np.random.default_rng(seed),
        ).value
        return num / den

    levels: list[tuple[int, float]] = []
    running = 0.0
    for n in range(1, n_max + 1):
        dim = n * d
        inputs = _default_level_inputs(n, d, gen)
        draw = sampler if sampler is not None else (lambda g, _n: _gaussian_sampler(g, dim))
        inputs.extend(np.asarray(draw(gen, n), dtype=complex) for _ in range(trials))
        level_best = 0.0
        for m in inputs:
            cur_ratio = ratio_at(m, n)
            if cur_ratio == 0.0:
                continue
            scale = float(np.linalg.norm(m)) / dim
            sigma = 0.25
            for _ in range(ascent_steps):
                noise = gen.standard_normal(m.shape) + 1j * gen.standard_normal(m.shape)
                cand = m + sigma * scale * noise
                cand_ratio = ratio_at(cand, n)
                if cand_ratio > cur_ratio:
                    m, cur_ratio = cand, cand_ratio
                    sigma *= 1.5
                else:
                    sigma *= 0.5
            level_best = max(level_best, cur_ratio)
        running = max(running, level_best)
        levels.append((n, running))
    return CbEstimate(levels=levels)
