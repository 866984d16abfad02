"""Crossed products of matrix algebras by finite-group and integer actions.

Setup: a base algebra of d x d matrices acting on l^p({1..d}), a group G
(finite, or Z carried on a window), and an action alpha implemented by
conjugation with phased permutation matrices U_s (exactly one unimodular
entry per row and column), so that alpha_s(a) = U_s a U_s^{-1} is
p-isometric on every l^p simultaneously and the implementers satisfy
U_e = I and U_s U_t = U_{st} on the nose.  Listed implementers and a
generator pass one validator; on Z the powers of the generator are
tabulated per call, for the elements that call asks for.

A finitely supported function f: G -> M_d is a :class:`CcElement`.  Its
product is the twisted convolution

    (f * g)(t) = sum_s f(s) alpha_s(g(s^{-1} t)),

and its concrete realization is the integrated form of the regular
covariant pair on l^p(G) (x) C^d:

    pi(a)   = block diagonal with blocks alpha_{t^{-1}}(a) over positions t,
    v(s)    = lambda(s) (x) identity,
    f  |->  sum_t pi(f(t)) v(t).

Here lambda(s) = ``CovariantRep.translation(s)`` is the left regular
representation, (lambda(s) xi)(t) = xi(s^{-1} t): the 0/1 matrix sending
the basis vector at t to the one at s t, the same for every p.  On a finite
carrier its conjugate transpose is lambda(s^{-1}) entrywise and exactly.

Blocks follow the Kronecker convention of :mod:`lpalg.opspace`: position t
indexes the outer factor, so block (t, t') of the integrated form is
alpha_{t^{-1}}(f(t t'^{-1})).  For G = Z the representation is truncated to
the window {-W..W}; translation then loses mass at the boundary, so window
norms are certified lower bounds of the full translation-invariant norms
and every window is recorded alongside the numbers computed on it.

The conditional expectation onto the base algebra reads off the coefficient
at the identity, and is realized spatially by the coordinate compression to
the identity block (``CovariantRep.block_selector`` and
``opspace.compression``), embedded back by its adjoint:

    (P_e (x) I) (integrated f) (P_e (x) I) = P_e (x) f(e).
"""

from __future__ import annotations

import numpy as np

from .groups import as_integer, cyclic_group
from .lpnorm import PNormEstimate, as_exponent, pnorm_estimate, validate_matrix
from .opspace import CbEstimate, block_matrix, cb_norm_lower, compression, embedding

__all__ = [
    "CcElement",
    "ConcreteAlgebra",
    "CovariantRep",
    "IsometricAction",
    "compress_identity_check",
    "conditional_expectation",
    "cyclic_coordinate_rotation",
    "expectation_cb_certificate",
    "random_cc_element",
    "reduced_norm",
    "trivial_action",
    "twisted_convolve",
]

_ACTION_TOL = 1e-12
_TABLE_ENTRIES = 1 << 16  # cap on (2R + 1) * base_dim of a Z action's power table


class ConcreteAlgebra:
    """The algebra of base_dim x base_dim matrices on l^p.  Read-only."""

    def __init__(self, base_dim: int):
        base_dim = as_integer(base_dim, "base_dim")
        if base_dim < 1:
            raise ValueError("base_dim must be a positive integer")
        object.__setattr__(self, "base_dim", base_dim)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")


def _all_phased(stack: np.ndarray) -> bool:
    """Whether every matrix of a (n, d, d) stack is a phased permutation:
    exactly one entry of modulus 1 per row and per column and every other
    entry below 1e-12 (the modulus within 1e-12 of 1)."""
    mags = np.abs(stack)
    big = mags > _ACTION_TOL
    return bool((big.sum(axis=1) == 1).all() and (big.sum(axis=2) == 1).all()
                and np.abs(mags[big] - 1.0).max() <= _ACTION_TOL)


def _phased_pair(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(perm, phase) of a phased permutation or a stack: row i of u holds phase[i] at perm[i]."""
    perm = np.abs(u).argmax(axis=-1)
    return perm, u[(*np.indices(perm.shape, sparse=True), perm)]


def _compose_pairs(a: tuple, b: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The pair of U_a U_b, (d,) or (n, d): row i reaches perm_b[perm_a[i]] with phase_a[i] phase_b[perm_a[i]]."""
    (pa, ca), (pb, cb) = a, b
    idx = (pa,) if pa.ndim == 1 else (np.arange(len(pa))[:, None], pa)
    return pb[idx], ca * cb[idx]


def _doubled_table(u: tuple, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The (count, d) pairs of U^0 .. U^(count - 1), U given by its pair u,
    each the binary power of its exponent bit for bit.

    Row t is row t - 2^h times U^(2^h), 2^h the top bit of t, and U^(2^h)
    is squared from U^(2^(h-1)).  That multiplies the same factors in the
    same order as the binary loop (lowest bit first, from the identity),
    with one composition per block of rows [2^h, 2^(h+1)).
    """
    perm = np.empty((count, len(u[0])), dtype=np.int64)
    phase = np.empty(perm.shape, dtype=complex)
    perm[0], phase[0] = np.arange(perm.shape[1]), 1.0
    (pb, cb), top = u, 1
    while top < count:
        low = slice(0, min(top, count - top))
        high = slice(top, top + low.stop)
        perm[high], phase[high] = pb[perm[low]], phase[low] * cb[perm[low]]
        pb, cb = _compose_pairs((pb, cb), (pb, cb))  # U^(2^(h+1)) = U^(2^h) U^(2^h)
        top *= 2
    return perm, phase


def _implementer_stack(unitaries, order: int) -> np.ndarray:
    """The implementers as one (order, d, d) stack of finite phased permutations;
    a generator is checked as the stack of its one matrix."""
    mats = [np.asarray(u, dtype=complex) for u in unitaries]
    if len(mats) != order:
        raise ValueError(f"expected {order} implementers, got {len(mats)}")
    shape = mats[0].shape
    if len(shape) != 2 or shape[0] != shape[1] or 0 in shape or any(u.shape != shape for u in mats):
        raise ValueError("every implementer must be a square phased permutation")
    stack = np.stack(mats)
    if not np.isfinite(stack).all():
        raise ValueError("matrix entries must be finite")
    if not _all_phased(stack):
        raise ValueError("every implementer must be a square phased permutation")
    return stack


class IsometricAction:
    """An action of a group carrier on M_d by phased permutation conjugation.

    Each implementer U_s is stored as its (perm, phase) pair of arrays, with
    U_s[i, perm[i]] = phase[i], so alpha_s(a) = U_s a U_s^{-1} is the gather
    a[perm_i, perm_j] times the phase product phase_i conj(phase_j).  The
    action is given in one of two ways, whatever the carrier's type:

    * ``unitaries``, one implementer per element of a finite carrier, are
      validated as one (n, d, d) stack; U_e = I is checked, and for every
      (s, t) at once the stored pairs, which :meth:`apply` uses, must give
      U_s U_t the permutation of U_{st} and its phases within 1e-12.
    * ``generator``, one U on a cyclic carrier (Z or Z/n), gives U_s = U^s,
      U^{-1} being the conjugate transpose.  It is validated as a stack of
      one implementer, so a bad generator is refused with the implementers'
      message.  Each pair is the binary power for its s alone, bit for bit.
      On Z/n the n pairs are stored, and the one check that U^n is I
      (phases within 1e-12) proves every relation U_s U_t = U_{s+t mod n}.
      On Z each call tabulates the pairs for |t| <= R, R the largest |s|
      it asks for, and keeps nothing, so an action assigns no attribute
      after construction.  Tables are built by doubling (row t is row
      t - 2^h times U^(2^h), 2^h the top bit of t, and U^{-1} for negative
      t), which multiplies the binary power's factors in its order, so
      every row is that power bit for bit whatever R is; an element beyond
      the table's cap is raised on its own.
    """

    def __init__(self, carrier, *, unitaries=None, generator=None):
        self.carrier = carrier
        if unitaries is not None:
            if carrier.order is None:
                raise ValueError("implementers can be listed only for a finite carrier; give a generator")
            stack = _implementer_stack(unitaries, carrier.order)
            self.base_dim = stack.shape[1]
            if np.abs(stack[carrier.identity] - np.eye(self.base_dim)).max() > _ACTION_TOL:
                raise ValueError("the implementer at the identity must be the identity matrix")
            self._perm, self._phase = _phased_pair(stack)
            s, t = np.divmod(np.arange(carrier.order**2), carrier.order)  # every pair, row-major
            st = carrier.op(s, t)
            perm, phase = _compose_pairs(self._pair(s), self._pair(t))
            bad = (perm != self._perm[st]).any(axis=-1)
            bad |= (np.abs(phase - self._phase[st]) > _ACTION_TOL).any(axis=-1)
            if bad.any():
                s, t = divmod(int(np.argmax(bad)), carrier.order)  # the first failing pair
                raise ValueError(
                    f"implementers are not multiplicative at ({s}, {t}); "
                    "projective phases are not allowed"
                )
        elif generator is not None:
            if not carrier.cyclic:
                raise ValueError(f"a generator determines an action only on a cyclic carrier, not {carrier!r}")
            u = _implementer_stack([generator], 1)[0]
            self.base_dim = u.shape[0]
            self._generator, self._inverse = _phased_pair(u), _phased_pair(u.conj().T)
            if carrier.order is not None:
                self._perm, self._phase = _doubled_table(self._generator, carrier.order)
                perm, phase = _compose_pairs((self._perm[-1], self._phase[-1]), self._generator)
                if (perm != np.arange(self.base_dim)).any() or np.abs(phase - 1.0).max() > _ACTION_TOL:
                    raise ValueError(f"the generator's power {carrier.order} is not the identity matrix")
        else:
            raise ValueError("an action needs its implementers or a generator")

    def _pair(self, s) -> tuple[np.ndarray, np.ndarray]:
        """(perm, phase) of U_s for an element or an array of elements s."""
        s = np.asarray(s, dtype=np.int64)
        if not self.carrier.contains(s).all():
            raise KeyError(f"element {s} outside the carrier")
        if self.carrier.order is not None:
            return self._perm[s], self._phase[s]
        reach = int(np.abs(s).max(initial=0))
        if reach > (_TABLE_ENTRIES // self.base_dim - 1) // 2:  # too far out to tabulate
            return self._powers(s)
        ahead, back = (_doubled_table(u, reach + 1) for u in (self._generator, self._inverse))
        # rows U^{-reach} .. U^{-1}, then U^0 .. U^{reach}
        perm, phase = (np.concatenate((b[:0:-1], a)) for a, b in zip(ahead, back))
        return perm[s + reach], phase[s + reach]

    def _powers(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(perm, phase) of U^s by binary powers, for each entry of s on its own."""
        shape, s = np.shape(s), np.reshape(s, -1)  # pairs are composed as (n, d) stacks
        pos = (s >= 0)[..., None]
        base = tuple(np.where(pos, g, i) for g, i in zip(self._generator, self._inverse))
        out = (np.broadcast_to(np.arange(self.base_dim), base[0].shape), np.ones(base[1].shape, complex))
        k = np.abs(s)
        while k.any():  # binary powers of U or U^{-1}
            odd = (k & 1).astype(bool)[..., None]
            out = tuple(np.where(odd, new, old) for new, old in zip(_compose_pairs(out, base), out))
            base = _compose_pairs(base, base)
            k = k >> 1
        return tuple(x.reshape(shape + (self.base_dim,)) for x in out)

    def unitary(self, s: int) -> np.ndarray:
        """The implementer U_s, built from its (perm, phase) pair."""
        perm, phase = self._pair(int(s))
        u = np.zeros((self.base_dim, self.base_dim), dtype=complex)
        u[np.arange(self.base_dim), perm] = phase
        return u

    def apply(self, s, a) -> np.ndarray:
        """alpha_s(a) = U_s a U_s^{-1}.

        s may be an array of elements and a a stack (..., d, d) of matrices;
        their leading shapes broadcast, and the whole stack moves with one
        gather and one phase product.
        """
        perm, phase = self._pair(s)
        a = np.asarray(a, dtype=complex)
        stack = (g[..., None, None] for g in np.indices(a.shape[:-2], sparse=True))
        moved = a[(*stack, perm[..., :, None], perm[..., None, :])]
        return moved * (phase[..., :, None] * phase[..., None, :].conj())

    def __repr__(self) -> str:
        return f"IsometricAction(dim={self.base_dim} on {self.carrier!r})"


def trivial_action(carrier, dim: int) -> IsometricAction:
    """Every group element acts as the identity on M_dim."""
    eye = np.eye(dim, dtype=complex)
    if carrier.cyclic:
        return IsometricAction(carrier, generator=eye)
    return IsometricAction(carrier, unitaries=[eye] * carrier.order)


def cyclic_coordinate_rotation(n: int, k: int) -> IsometricAction:
    """Z/n acting on M_n by rotating coordinates k steps per generator.

    On diagonal matrices this is alpha_1(diag d)_j = d_{j+k mod n}, i.e. the
    pullback of the grid rotation j |-> j - k.
    """
    n, k = as_integer(n, "rotation grid size n"), as_integer(k, "rotation step k")
    shift = np.zeros((n, n), dtype=complex)
    shift[(np.arange(n) - k) % n, np.arange(n)] = 1.0  # column i to row i - k
    return IsometricAction(cyclic_group(n), generator=shift)


class CcElement:
    """A finitely supported function from a group carrier into M_d.

    The support is the set of nonzero coefficients: an all-zero coefficient
    is dropped on construction and any other kept, however small, so
    c * f has the support of f for every nonzero c that does not underflow.
    """

    def __init__(self, carrier, coeffs: dict, base_dim: int | None = None):
        self.carrier = carrier
        keys = np.array([as_integer(s, "group element") for s in coeffs], dtype=np.int64)
        if not carrier.contains(keys).all():
            raise ValueError(f"elements {keys[~carrier.contains(keys)].tolist()} lie outside the carrier")
        kept: dict[int, np.ndarray] = {}
        dim = base_dim
        for key, mat in zip(keys.tolist(), coeffs.values()):
            arr = np.asarray(mat, dtype=complex)
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise ValueError(f"coefficient at {key} must be square, got {arr.shape}")
            if dim is None:
                dim = arr.shape[0]
            if arr.shape != (dim, dim):
                raise ValueError("all coefficients must share one base dimension")
            if arr.any():
                kept[key] = arr.copy()
        if dim is None:
            raise ValueError("cannot infer base dimension from an empty element; pass base_dim")
        self.base_dim = dim
        self._coeffs = kept

    @property
    def support(self) -> tuple:
        return tuple(sorted(self._coeffs))

    def coeff(self, s: int) -> np.ndarray:
        return self._coeffs.get(int(s), np.zeros((self.base_dim, self.base_dim), dtype=complex))

    def items(self):
        return ((s, self._coeffs[s]) for s in self.support)

    @staticmethod
    def delta(carrier, s: int, mat=None, base_dim: int | None = None) -> "CcElement":
        """The single-term element (mat) delta_s; identity coefficient if mat is None."""
        if mat is None:
            if base_dim is None:
                raise ValueError("delta needs a matrix or a base_dim")
            mat = np.eye(base_dim, dtype=complex)
        return CcElement(carrier, {int(s): mat}, base_dim=base_dim)

    def __add__(self, other: "CcElement") -> "CcElement":
        """The sum over the left operand's carrier; the carriers must be one group."""
        if not self.carrier.same_group(other.carrier):
            raise ValueError("cannot add elements over different carriers")
        merged = {s: self.coeff(s) + other.coeff(s) for s in set(self.support) | set(other.support)}
        return CcElement(self.carrier, merged, base_dim=self.base_dim)

    def __sub__(self, other: "CcElement") -> "CcElement":
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "CcElement":
        return CcElement(
            self.carrier,
            {s: scalar * m for s, m in self.items()},
            base_dim=self.base_dim,
        )

    def __repr__(self) -> str:
        return f"CcElement(dim={self.base_dim}, support={self.support})"


def random_cc_element(
    rng: np.random.Generator,
    carrier,
    base_dim: int,
    n_terms: int = 2,
    max_shift: int = 2,
) -> CcElement:
    """A random finitely supported element, for tests and certificates."""
    pool = carrier.window(max_shift)
    chosen = rng.choice(pool, size=min(n_terms, pool.size), replace=False)
    coeffs = {
        int(s): rng.standard_normal((base_dim, base_dim)) + 1j * rng.standard_normal((base_dim, base_dim))
        for s in chosen
    }
    return CcElement(carrier, coeffs, base_dim=base_dim)


def twisted_convolve(f: CcElement, g: CcElement, action: IsometricAction) -> CcElement:
    """(f * g)(t) = sum_s f(s) alpha_s(g(s^{-1} t))."""
    if f.base_dim != g.base_dim or f.base_dim != action.base_dim:
        raise ValueError("element and action dimensions must agree")
    for h in (f, g):
        if not h.carrier.same_group(action.carrier):
            raise ValueError(f"an element over {h.carrier!r} under an action of {action.carrier!r}")
    carrier = action.carrier
    out: dict[int, np.ndarray] = {}
    for s, fs in f.items():
        for u, gu in g.items():
            t = carrier.op(s, u)
            term = fs @ action.apply(s, gu)
            if t in out:
                out[t] = out[t] + term
            else:
                out[t] = term
    return CcElement(carrier, out, base_dim=f.base_dim)


class CovariantRep:
    """The regular covariant pair (pi, v) on l^p(positions) (x) C^d.

    The positions are the carrier's window: for a finite carrier all group
    elements, for Z the interval {-W..W}, where translation is truncated at
    the edges.  Either window is a run of consecutive integers starting at
    -window_radius (0 on a finite carrier), so element t sits at index
    t + window_radius.
    """

    def __init__(self, algebra: ConcreteAlgebra, action: IsometricAction, p, window_radius: int | None = None):
        if algebra.base_dim != action.base_dim:
            raise ValueError("algebra and action dimensions must agree")
        self.algebra = algebra
        self.action = action
        self.p = as_exponent(p)
        window = action.carrier.window(window_radius)
        self.positions = window.tolist()
        self.window_radius = -self.positions[0]
        self.identity_position = action.carrier.identity
        self._inv_positions = action.carrier.inv(window)

    @property
    def carrier(self):
        return self.action.carrier

    @property
    def base_dim(self) -> int:
        return self.algebra.base_dim

    @property
    def dimension(self) -> int:
        return len(self.positions) * self.base_dim

    def position_index(self, t):
        """Index of t among the positions, elementwise over integer arrays."""
        index = np.asarray(t, dtype=np.int64) + self.window_radius
        outside = (index < 0) | (index >= len(self.positions))
        if outside.any():
            raise KeyError(np.asarray(t)[outside].tolist())
        return index

    def block_selector(self, positions) -> np.ndarray:
        """Indices of the d x d blocks at the given positions, in their order:
        the selector of the coordinate compression to those positions."""
        try:
            starts = self.position_index(positions) * self.base_dim
        except KeyError as exc:
            raise ValueError(f"positions {exc} lie outside the representation window") from exc
        return (starts[:, None] + np.arange(self.base_dim)).ravel()

    def _translate(self, shifts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Index triples (k, i, j) with positions[i] = shifts[k] positions[j]."""
        shifts = np.asarray(shifts, dtype=np.int64)
        nt = len(self.positions)
        which, cols = np.indices((shifts.size, nt))
        rows = self.carrier.op(shifts[which], cols - self.window_radius) + self.window_radius
        keep = (rows >= 0) & (rows < nt)
        return which[keep], rows[keep], cols[keep]

    def _assemble(self, rows, cols, blocks) -> np.ndarray:
        """The matrix with block (rows[k], cols[k]) equal to blocks[k], zero elsewhere."""
        nt, d = len(self.positions), self.base_dim
        out = np.zeros((nt, d, nt, d), dtype=complex)
        out[rows, :, cols, :] = blocks
        return out.reshape(nt * d, nt * d)

    def pi(self, a) -> np.ndarray:
        """Block-diagonal matrix with blocks alpha_{t^{-1}}(a)."""
        diag = np.arange(len(self.positions))
        return self._assemble(diag, diag, self.action.apply(self._inv_positions, validate_matrix(a)))

    def translation(self, s: int) -> np.ndarray:
        """Translation by s on the position space alone (0/1 matrix)."""
        _, rows, cols = self._translate([s])
        out = np.zeros((len(self.positions),) * 2, dtype=complex)
        out[rows, cols] = 1.0
        return out

    def v(self, s: int) -> np.ndarray:
        """v(s) = translation(s) (x) identity on the fiber."""
        return np.kron(self.translation(s), np.eye(self.base_dim, dtype=complex))

    def integrated(self, f: CcElement) -> np.ndarray:
        """sum_t pi(f(t)) v(t), assembled with one gather over all blocks.

        Block (t, t') equals alpha_{t^{-1}}(f(t t'^{-1})); each pair of
        positions receives exactly one coefficient.
        """
        if f.base_dim != self.base_dim:
            raise ValueError("element dimension does not match the representation")
        if not f.carrier.same_group(self.carrier):
            raise ValueError(f"an element over {f.carrier!r} on a representation of {self.carrier!r}")
        which, rows, cols = self._translate(f.support)
        coeffs = np.array([f.coeff(s) for s in f.support]).reshape(-1, self.base_dim, self.base_dim)[which]
        return self._assemble(rows, cols, self.action.apply(self._inv_positions[rows], coeffs))

    def __repr__(self) -> str:
        return (
            f"CovariantRep(p={self.p.p}, positions={len(self.positions)}, "
            f"fiber={self.base_dim}, dim={self.dimension})"
        )


def reduced_norm(f: CcElement, rep: CovariantRep, **estimate_opts) -> PNormEstimate:
    """Norm of the integrated form of f on the representation space.

    Returns the full :class:`PNormEstimate`, so callers see the convergence
    flag and witness alongside the value.  On Z windows this is a certified
    lower bound for the untruncated norm.
    """
    return pnorm_estimate(rep.integrated(f), rep.p, **estimate_opts)


def conditional_expectation(f: CcElement) -> np.ndarray:
    """The coefficient of f at the group identity."""
    return f.coeff(f.carrier.identity)


def compress_identity_check(rep: CovariantRep, f: CcElement) -> dict:
    """Compare (P_e (x) I) (integrated f) (P_e (x) I) with P_e (x) f(e).

    Both sides come from the identity block's compression and embedding.
    Returns the two matrices and their max entrywise deviation; the
    conditional expectation is exactly this compression, so the deviation
    is pure floating-point noise.
    """
    sel = rep.block_selector([rep.identity_position])
    pad = embedding(sel, rep.dimension)
    lhs = pad.apply(compression(sel, rep.dimension).apply(rep.integrated(f)))
    rhs = pad.apply(conditional_expectation(f))
    return {"lhs": lhs, "rhs": rhs, "max_abs_diff": float(np.abs(lhs - rhs).max())}


def _crossed_sampler(rep: CovariantRep):
    """Level sampler drawing amplified crossed-product elements, supported
    on two shifts of modulus at most 2 (anywhere on a finite carrier)."""

    def draw(rng: np.random.Generator, n: int) -> np.ndarray:
        forms = [
            rep.integrated(random_cc_element(rng, rep.carrier, rep.base_dim, n_terms=2, max_shift=2))
            for _ in range(n * n)
        ]
        return block_matrix(np.array(forms).reshape(n, n, rep.dimension, rep.dimension))

    return draw


def expectation_cb_certificate(
    rep: CovariantRep,
    n_max: int = 3,
    trials: int = 8,
    *,
    rng=None,
    **engine_opts,
) -> CbEstimate:
    """Certify that the spatial conditional expectation is p-completely
    contractive on sampled crossed-product elements.

    The map is X |-> (P_e (x) I) X (P_e (x) I), the embedding after the
    compression to the identity block; inputs are amplified integrated
    forms of random finitely supported elements.
    """
    sel = rep.block_selector([rep.identity_position])
    phi = embedding(sel, rep.dimension).compose(compression(sel, rep.dimension))
    sampler = _crossed_sampler(rep)
    return cb_norm_lower(phi, rep.p, n_max=n_max, trials=trials, rng=rng, sampler=sampler, **engine_opts)
