"""Finite-matrix approximation factorizations and nuclearity witnesses.

Everything here factors an algebra approximately through a matrix algebra
by a pair of completely contractive maps and keeps the books on how much is
lost.  The central pair compresses a crossed-product operator to the block
square over an approximately invariant set F and averages it back:

    phi(T)   = (P_F (x) I) T (P_F (x) I),  a block matrix over F,
    psi(M)   = (1/|F|) sum_{s,t in F} pi(alpha_s(M_{s,t})) v(s t^{-1}).

For an integrated crossed-product element the composition scales each group
coefficient a_s by |F (cap) sF| / |F|, so shrinking the translate ratios of
F shrinks the defect.  ``crossed_nuclearity_witness`` sizes F and bounds
each defect by proved upper bounds of the coefficients' norms, certifies
both maps by their form, and emits a machine-checkable report that gives
each certificate's kind.  phi is a coordinate compression.  By covariance
psi(M) = R (id_F (x) pi)(M) S, where the middle map is a direct sum of
conjugations by phased permutations (this is where the action must be
p-completely isometric) and R, S are monomial with norm 1
(``folner_psi_factors``), so every level of either certificate is a proved
upper bound, 1 up to rounding, with no sampling.
The remaining operations supply the bookkeeping lemmas: an exact identity
factorization for matrix algebras, amplification and corner stability,
window truncation, and the triangle-inequality composition of two
approximations.  A ``Factorization`` holds only proofs: every certificate
must be structural and at most 1, and each lemma derives its legs' bounds
from the parent's by cb(A o B) <= cb(A) cb(B), so nothing in this module
samples a cb norm (``opspace.cb_norm_lower`` stays the refuting
cross-check of the suite and the tests).

Both maps work on whole arrays: phi is an index compression, and psi moves
all blocks with one gather.  When all contributions to one group
coefficient are bitwise identical (which is exactly what happens for
integrated crossed elements under permutation actions), their average is
value * (count / |F|) rather than a floating accumulation, so whole-group
round trips reproduce coefficients bit for bit and single-term defects
carry the intersection ratio exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .crossed import (
    CcElement,
    ConcreteAlgebra,
    CovariantRep,
    cyclic_coordinate_rotation,
    twisted_convolve,
)
from .errors import CertificateError
from .groups import (
    FolnerSet,
    ZWindow,
    cyclic_group,
    folner_intersection,
    folner_ratio,
    folner_search,
    group_to_descriptor,
)
from .lpnorm import as_exponent, as_generator, pnorm_estimate, pnorm_upper
from .opspace import (
    CbEstimate,
    LinearMap,
    amplify,
    block_matrix,
    compression_cb,
    monomial_cb,
    split_blocks,
)
from .partition import (
    circle_function,
    circle_partition,
    cx_blend_factors,
    partition_roundtrip,
)

__all__ = [
    "Factorization",
    "compose_factorizations",
    "corner_embed",
    "corner_project",
    "corner_restrict",
    "crossed_nuclearity_witness",
    "folner_phi",
    "folner_phi_map",
    "folner_psi",
    "folner_psi_factors",
    "folner_psi_map",
    "folner_roundtrip",
    "identity_factorization",
    "lift_factorization",
    "measure_roundtrip",
    "rotation_demo",
    "truncate_map",
    "truncate_stable",
]

_CB_TOL = 1e-6


def _proved_contractive(*certs: CbEstimate) -> bool:
    """Every certificate is a structural upper bound at or below 1 (up to
    tolerance) on at least one level; a sampled lower bound at or below 1,
    or a certificate with no levels, proves nothing."""
    return all(
        cb.kind == "structural" and cb.levels and cb.best <= 1.0 + _CB_TOL for cb in certs
    )


def _require_proved(name: str, cb: CbEstimate):
    if not _proved_contractive(cb):
        raise CertificateError(f"{name} certificate proves no contraction: {cb.kind} bound {cb.best:.9f}")


@dataclass
class Factorization:
    """A pair of maps through a matrix algebra with its quality records.

    ``roundtrip_errors`` maps a test-element id to the measured operator
    norm of psi(phi(x)) - x.  Both cb certificates must be proofs: kind
    ``structural`` (upper bounds derived from the form of the map) with at
    least one level and every level at most 1 + 1e-6.  A sampled lower
    bound, or a certificate with no levels, proves nothing, so it is
    refused at construction like an expansive bound.
    """

    phi: LinearMap
    psi: LinearMap
    target_dim: int
    phi_cb: CbEstimate
    psi_cb: CbEstimate
    roundtrip_errors: dict = field(default_factory=dict)
    p: float = 2.0

    def __post_init__(self):
        _require_proved("phi", self.phi_cb)
        _require_proved("psi", self.psi_cb)
        for key, err in self.roundtrip_errors.items():
            if not err >= 0.0:
                raise ValueError(f"negative round-trip error recorded for {key!r}")

    @property
    def worst_error(self) -> float:
        return max(self.roundtrip_errors.values(), default=0.0)


def measure_roundtrip(phi: LinearMap, psi: LinearMap, elements: dict, p, **est_opts) -> dict:
    """Measured ||psi(phi(x)) - x||_{p->p} per test element."""
    pe = as_exponent(p)
    out = {}
    for key, x in elements.items():
        x = np.asarray(x, dtype=complex)
        out[key] = pnorm_estimate(psi.apply(phi.apply(x)) - x, pe, **est_opts).value
    return out


def identity_factorization(dim: int, p, n_max: int = 1) -> Factorization:
    """The exact factorization of a matrix algebra through itself.

    The identity is the compression to every coordinate, so
    ``compression_cb`` certifies both legs with levels 1.
    """
    ident = LinearMap.identity(dim)
    pe = as_exponent(p)
    cb = compression_cb(np.arange(dim), dim, n_max)
    return Factorization(
        phi=ident,
        psi=ident,
        target_dim=dim,
        phi_cb=cb,
        psi_cb=cb,
        roundtrip_errors={},
        p=pe.p,
    )


# ---------------------------------------------------------------------------
# The Folner compression / averaging pair
# ---------------------------------------------------------------------------


def _folner_selector(folner: FolnerSet, rep: CovariantRep) -> np.ndarray:
    """Row/column indices of the F-block square inside the representation."""
    d = rep.base_dim
    try:
        starts = rep.position_index(folner.members) * d
    except KeyError as exc:
        raise ValueError(f"Folner members {exc} lie outside the representation window") from exc
    return (starts[:, None] + np.arange(d)).ravel()


def folner_phi(f: CcElement, folner: FolnerSet, rep: CovariantRep) -> np.ndarray:
    """Compress the integrated form of f to the block square over F.

    The (r, s^{-1}r) block of the result is alpha_{r^{-1}}(f(s)) for each
    r in F (cap) sF, the entries of the integrated form at those positions.
    """
    sel = _folner_selector(folner, rep)
    return rep.integrated(f)[np.ix_(sel, sel)]


def folner_phi_map(folner: FolnerSet, rep: CovariantRep) -> LinearMap:
    """The compression T -> (P_F (x) I) T (P_F (x) I) as a map on matrices.

    Its selector holds distinct indices, so ``compression_cb`` certifies
    it with levels 1.
    """
    sel = _folner_selector(folner, rep)
    grid = np.ix_(sel, sel)
    return LinearMap(
        rep.dimension,
        folner.size * rep.base_dim,
        apply_fn=lambda t: np.asarray(t, dtype=complex)[grid],
        name="folner_phi",
    )


def folner_psi(m, folner: FolnerSet, rep: CovariantRep) -> np.ndarray:
    """Average a block matrix over F back into the representation.

    Reads m as blocks (M_{s,t})_{s,t in F} and returns
    (1/|F|) sum_{s,t} pi(alpha_s(M_{s,t})) v(s t^{-1}), assembled by first
    collecting the coefficient of every group element u = s t^{-1} and then
    integrating the resulting finitely supported function.  All-zero blocks
    are skipped; identical contributions to one u are averaged as
    value * (count/|F|), others summed by row of F and divided by |F|.
    """
    return rep.integrated(_psi_coefficients(m, folner, rep))


def _psi_coefficients(m, folner: FolnerSet, rep: CovariantRep) -> CcElement:
    """The function :func:`folner_psi` integrates: its coefficients collected from m."""
    d = rep.base_dim
    k = folner.size
    m = np.asarray(m, dtype=complex)
    if m.shape != (k * d, k * d):
        raise ValueError(f"expected a {k * d}x{k * d} block matrix over F, got {m.shape}")
    blocks = split_blocks(m, k, d)
    rows, cols = np.nonzero(blocks.any(axis=(2, 3)))  # row-major: by row of F
    members = np.asarray(folner.members)
    s, t = members[rows], members[cols]
    u = rep.carrier.op(s, rep.carrier.inv(t))
    u, first, group, counts = np.unique(u, return_index=True, return_inverse=True, return_counts=True)
    terms = rep.action.apply(s, blocks[rows, cols])
    same = (terms == terms[first][group]).all(axis=(1, 2))
    totals = np.zeros((u.size, d, d), dtype=complex)
    np.add.at(totals, group, terms)  # a running sum in row order
    coeffs = np.where(
        (np.bincount(group[~same], minlength=u.size) == 0)[:, None, None],
        terms[first] * (counts / k)[:, None, None],
        totals / k,
    )
    return CcElement(rep.carrier, dict(zip(u.tolist(), coeffs)), base_dim=d)


def folner_psi_map(folner: FolnerSet, rep: CovariantRep) -> LinearMap:
    """The averaging map as a map on matrices; :func:`folner_psi_factors`
    certifies it."""
    return LinearMap(
        folner.size * rep.base_dim,
        rep.dimension,
        apply_fn=lambda m: folner_psi(m, folner, rep),
        name="folner_psi",
    )


def folner_psi_factors(folner: FolnerSet, rep: CovariantRep) -> tuple[tuple, tuple]:
    """Monomial factors R, S of the averaging map, for :func:`monomial_cb`.

    Covariance, v(s) pi(a) v(s)^{-1} = pi(alpha_s(a)), turns the averaging
    form into psi(M) = R (id_F (x) pi)(M) S with the row of blocks
    R = |F|^{-1/q} [v(s)]_{s in F} and the column S = |F|^{-1/p} [v(t)^{-1}]_{t in F};
    id_F (x) pi is a direct sum over positions of conjugations by phased
    permutations, hence p-completely isometric.  The middle space is
    l^p(F) (x) l^p(B) (x) C^d, index (a * |B| + b) * d + i for the a-th
    member of F and the b-th position of B.  On a Z window {-W..W} the
    translations are truncated, so the factors are those of the untruncated
    psi compressed to the window, R_W = P_W R and S_W = S P_W; only
    positions within W + max|F| reach the window, so B is the carrier's
    window of that radius.  On a finite group both windows are the group.
    Both factors have norm 1, up to rounding: every row of R and column of
    S holds |F| entries.
    """
    d, k = rep.base_dim, folner.size
    members = np.asarray(folner.members, dtype=np.int64)
    wide = rep.carrier.window(rep.window_radius + int(np.abs(members).max()))
    lands = rep.carrier.op(members[:, None], wide) + rep.window_radius
    a, b = np.nonzero((lands >= 0) & (lands < len(rep.positions)))  # s r inside the window
    fiber = np.arange(d)
    mid = ((a * wide.size + b)[:, None] * d + fiber).ravel()
    out = (lands[a, b][:, None] * d + fiber).ravel()
    r = (out, mid, np.full(mid.size, k ** (-1.0 / rep.p.q)))
    s = (mid, out, np.full(mid.size, k ** (-1.0 / rep.p.p)))
    return r, s


def _sum_up(terms) -> float:
    """Bound the exact sum of nonnegative terms, each within two roundings:
    with fsum's and the product's, 4 units of roundoff; 1 + 2^-50 is 8."""
    return math.fsum(terms) * (1.0 + 2.0**-50)


def _roundtrip_bound(f: CcElement, folner: FolnerSet, p) -> float:
    """Proved defect budget sum_s |1 - r_s| ||a_s||_p, r_s = |F cap sF|/|F|,
    rounded outward; ||pi(a) v(s)|| <= ||a|| on every window.  The computed
    r_s <= 1, the factor psi applies, is within 2^-54 of the exact ratio, so
    |1 - r_s| + 2^-54 bounds the exact and the computed defect.  A ratio of
    exactly 1 adds 0.0 and takes no bound."""
    ratios = {s: folner_intersection(folner, s) / folner.size for s in f.support}
    return _sum_up([(abs(1.0 - ratios[s]) + 2.0**-54) * pnorm_upper(a, p)
                    for s, a in f.items() if ratios[s] != 1.0])


def folner_roundtrip(f: CcElement, folner: FolnerSet, rep: CovariantRep, *, form=None, **est_opts) -> dict:
    """Measure ||psi(phi(f)) - f|| (a lower bound) and its proved budget.

    For a single-term f = a delta_s the defect is exactly
    (|F cap sF|/|F| - 1) pi(a) v(s), so the error meets the budget of
    :func:`_roundtrip_bound` up to its outward rounding.  phi is applied by
    index to ``form``, f's integrated form on ``rep`` (built here if not
    given).  A zero defect has error 0.0 and is not estimated; when psi
    collects exactly f's coefficients (on F = G, say), psi's form is never
    assembled.
    """
    big = rep.integrated(f) if form is None else form
    sel = _folner_selector(folner, rep)
    back = _psi_coefficients(big[np.ix_(sel, sel)], folner, rep)
    if back.support == f.support and all(np.array_equal(back.coeff(s), a) for s, a in f.items()):
        error = 0.0
    else:
        diff = rep.integrated(back) - big
        error = pnorm_estimate(diff, rep.p, **est_opts).value if diff.any() else 0.0
    return {"error": float(error), "bound": _roundtrip_bound(f, folner, rep.p)}


# ---------------------------------------------------------------------------
# Matrix and stable bookkeeping
# ---------------------------------------------------------------------------


def lift_factorization(fact: Factorization, n: int, entries: dict | None = None, *, rng=None) -> Factorization:
    """Amplify a factorization to n x n block matrices over its algebra.

    The maps become id_{M_n} (x) phi and id_{M_n} (x) psi; amplification
    does not change a cb norm, so the parent's structural bounds remain
    valid and are carried over.  Round-trip errors are measured on block
    matrices assembled from ``entries`` (id -> (n, n, d, d) array of
    blocks); the per-entry errors of the parent control them up to a factor
    n^2.
    """
    if n < 1:
        raise ValueError("amplification level must be a positive integer")
    d = fact.phi.domain_dim
    if entries is None:
        gen = as_generator(rng)
        entries = {}
        for t in range(2):
            grid = gen.standard_normal((n, n, d, d)) + 1j * gen.standard_normal((n, n, d, d))
            entries[f"x{t}"] = grid / max(1.0, float(np.abs(grid).max()))
    tests = {}
    for key, grid in entries.items():
        grid = np.asarray(grid, dtype=complex)
        if grid.shape != (n, n, d, d):
            raise ValueError(f"entry grid {key!r} must have shape {(n, n, d, d)}")
        tests[key] = block_matrix(grid)
    phi_n = amplify(fact.phi, n)
    psi_n = amplify(fact.psi, n)
    return Factorization(
        phi=phi_n,
        psi=psi_n,
        target_dim=n * fact.target_dim,
        phi_cb=fact.phi_cb,
        psi_cb=fact.psi_cb,
        roundtrip_errors=measure_roundtrip(phi_n, psi_n, tests, fact.p),
        p=fact.p,
    )


def corner_embed(outer: int, dim: int) -> LinearMap:
    """a -> e_{1,1} (x) a, the completely isometric corner embedding."""

    def embed(a):
        a = np.asarray(a, dtype=complex)
        out = np.zeros((outer * dim, outer * dim), dtype=complex)
        out[:dim, :dim] = a
        return out

    return LinearMap(dim, outer * dim, apply_fn=embed, name="corner_iota")


def corner_project(outer: int, dim: int) -> LinearMap:
    """X -> (1,1) block, the completely contractive corner projection."""
    return LinearMap(
        outer * dim,
        dim,
        apply_fn=lambda x: np.asarray(x, dtype=complex)[:dim, :dim].copy(),
        name="corner_rho",
    )


def corner_restrict(
    fact: Factorization,
    outer: int,
    *,
    test_elements: dict | None = None,
    rng=None,
) -> Factorization:
    """Restrict a factorization of M_outer (x) A to one of A via the corner.

    Returns (phi o iota, rho o psi).  rho(iota(a)) = a exactly, so the
    restricted round trip agrees with the parent's on embedded elements up
    to the contraction rho, and the measured error can only shrink.  iota
    is an isometric monomial embedding and rho a compression, so
    cb(phi o iota) <= cb(phi) and cb(rho o psi) <= cb(psi): the parent's
    certificates carry over.  ``rng`` only draws the default test elements.
    """
    big = fact.phi.domain_dim
    if big % outer != 0:
        raise ValueError("outer block count must divide the factorization's domain dimension")
    dim = big // outer
    iota = corner_embed(outer, dim)
    rho = corner_project(outer, dim)
    phi2 = fact.phi.compose(iota)
    psi2 = rho.compose(fact.psi)
    if test_elements is None:
        gen = as_generator(rng)
        test_elements = {
            f"a{t}": gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
            for t in range(2)
        }
    return Factorization(
        phi=phi2,
        psi=psi2,
        target_dim=fact.target_dim,
        phi_cb=fact.phi_cb,
        psi_cb=fact.psi_cb,
        roundtrip_errors=measure_roundtrip(phi2, psi2, test_elements, fact.p),
        p=fact.p,
    )


def truncate_stable(t, n_keep: int, block_dim: int = 1) -> np.ndarray:
    """Compress to the first n_keep positions of a window: (P_N (x) I) T (P_N (x) I)."""
    t = np.asarray(t, dtype=complex)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValueError("expected a square matrix over the window")
    if t.shape[0] % block_dim != 0:
        raise ValueError("fiber dimension must divide the matrix size")
    window = t.shape[0] // block_dim
    if not 1 <= n_keep <= window:
        raise ValueError(f"can keep between 1 and {window} positions, asked for {n_keep}")
    keep = n_keep * block_dim
    out = np.zeros_like(t)
    out[:keep, :keep] = t[:keep, :keep]
    return out


def truncate_map(window: int, n_keep: int, block_dim: int = 1) -> LinearMap:
    dim = window * block_dim
    return LinearMap(
        dim, dim, apply_fn=lambda t: truncate_stable(t, n_keep, block_dim), name=f"truncate_{n_keep}"
    )


# ---------------------------------------------------------------------------
# Composition and end-to-end witnesses
# ---------------------------------------------------------------------------


def compose_factorizations(
    bridge_phi: LinearMap,
    bridge_psi: LinearMap,
    fact_b: Factorization,
    test_set: dict,
    eps_split: tuple,
    *,
    p,
    bridge_phi_cb: CbEstimate,
    bridge_psi_cb: CbEstimate,
) -> Factorization:
    """Chain an approximation of A through B with a factorization of B.

    eps_split = (eps1, eps2) is the claimed budget: the bridge round trip
    loses at most eps1 on the test set and fact_b loses at most eps2 on the
    bridged test set.  The triangle inequality then caps the total at
    eps1 + eps2 (the bridge's return leg is contractive); both the bridge
    certificates and the measured totals are enforced, and a violation is a
    refusal, not a warning.  The bridge certificates must be structural
    and at most 1; the composite's levels are the level-wise products with
    fact_b's, since cb(A o B) <= cb(A) cb(B).
    """
    eps1, eps2 = float(eps_split[0]), float(eps_split[1])
    pe = as_exponent(p)
    _require_proved("bridge phi", bridge_phi_cb)
    _require_proved("bridge psi", bridge_psi_cb)

    bridged = {key: bridge_phi.apply(x) for key, x in test_set.items()}
    for key, err in measure_roundtrip(fact_b.phi, fact_b.psi, bridged, pe).items():
        if err > eps2 + 1e-9:
            raise CertificateError(
                f"inner factorization loses {err:.3e} on bridged element {key!r}, over its {eps2:.3e} budget"
            )

    phi_total = fact_b.phi.compose(bridge_phi)
    psi_total = bridge_psi.compose(fact_b.psi)
    errors = measure_roundtrip(phi_total, psi_total, test_set, pe)
    budget = eps1 + eps2 + 1e-9
    for key, err in errors.items():
        if err > budget:
            raise CertificateError(
                f"composed round trip loses {err:.3e} on {key!r}, over the {budget:.3e} budget"
            )
    return Factorization(
        phi=phi_total,
        psi=psi_total,
        target_dim=fact_b.target_dim,
        phi_cb=_product_cb(fact_b.phi_cb, bridge_phi_cb),
        psi_cb=_product_cb(bridge_psi_cb, fact_b.psi_cb),
        roundtrip_errors=errors,
        p=pe.p,
    )


def _product_cb(a: CbEstimate, b: CbEstimate) -> CbEstimate:
    """Structural bounds of a composition of two proved legs, level by level
    over the levels both certify."""
    return CbEstimate([(n, u * v) for (n, u), (_, v) in zip(a.levels, b.levels)], kind="structural")


def _levels_list(cb: CbEstimate) -> list:
    return [[int(n), float(v)] for n, v in cb.levels]


def crossed_nuclearity_witness(
    fs: list,
    eps: float,
    algebra: ConcreteAlgebra,
    carrier,
    action,
    p,
    *,
    rng=None,
    n_max: int = 2,
) -> tuple:
    """Build and check a full approximation witness for crossed elements.

    One pass, alike on finite groups and Z: M := max over f of the sum of
    ``pnorm_upper``(a_s) bounds every reduced norm on every window, one
    ``folner_search`` picks F with translate ratios below eps/(3M) for every
    support shift, and one representation, of radius max|s| + |F| on Z,
    holds every translate the round trip reaches.  Both Folner maps are
    certified by their form, with no sampling (``compression_cb`` for phi;
    ``folner_psi_factors`` and ``monomial_cb`` for psi), and
    ``Factorization`` refuses any certificate that is not such a proof.
    Each element's form is built and estimated once (its ``reduced_norm``),
    and :func:`folner_roundtrip` measures its round trip on that form and
    gives its budget.  ``passed`` holds when every budget is below eps, so
    it rests on upper bounds only.  The report records per element the two
    lower-bound diagnostics, ``norm_upper`` and the budget, both
    certificates with their kind, and on Z the window radius.  ``rng`` is
    accepted for compatibility and not used.  Returns (Factorization, report).
    """
    if not fs:
        raise ValueError("need at least one finitely supported element to witness")
    if eps <= 0.0:
        raise ValueError("epsilon must be positive")
    pe = as_exponent(p)
    supports = sorted({s for f in fs for s in f.support})
    norm_uppers = [_sum_up([pnorm_upper(a, pe) for _, a in f.items()]) for f in fs]
    folner = folner_search(carrier, supports, eps / (3.0 * max(*norm_uppers, 1e-9)))
    rep = CovariantRep(algebra, action, pe, window_radius=max(map(abs, supports), default=0) + folner.size)

    phi_cb = compression_cb(_folner_selector(folner, rep), rep.dimension, n_max)
    psi_cb = monomial_cb(*folner_psi_factors(folner, rep), pe, n_max)

    elements = []
    for i, (f, upper) in enumerate(zip(fs, norm_uppers)):
        form = rep.integrated(f)
        rt = folner_roundtrip(f, folner, rep, form=form)
        elements.append({"id": f"f{i}", "reduced_norm": pnorm_estimate(form, pe).value, "norm_upper": upper,
                         "roundtrip_error": rt["error"], "bound": rt["bound"]})
    fact = Factorization(folner_phi_map(folner, rep), folner_psi_map(folner, rep), folner.size * algebra.base_dim,
                         phi_cb, psi_cb, {e["id"]: e["roundtrip_error"] for e in elements}, pe.p)

    certificates = [
        {"map": "folner_phi", "kind": phi_cb.kind, "levels": _levels_list(phi_cb)},
        {"map": "folner_psi", "kind": psi_cb.kind, "levels": _levels_list(psi_cb)},
    ]
    report = {
        "group": group_to_descriptor(carrier),
        "p": float(pe.p),
        "folner": {
            "members": [int(t) for t in folner.members],
            "ratios": {str(s): float(folner_ratio(folner, s)) for s in supports},
        },
        "elements": elements,
        "certificates": certificates,
        "epsilon": float(eps),
        "passed": all(e["bound"] < eps for e in elements),
    }
    if isinstance(carrier, ZWindow):
        report["window_radius"] = int(rep.window_radius)
    return fact, report


def rotation_demo(n: int, k: int, p, eps: float, *, rng=None) -> dict:
    """Finite model of the rotation algebra at angle k/n.

    The base algebra is the diagonal functions on an n-point circle, the
    group Z/n rotates coordinates by k steps per generator, and the two
    canonical crossed elements are u = I delta_1 and z = diag(n-th roots of
    unity) delta_0.  The report checks the commutation phase
    u z = e^{2 pi i k/n} z u on the coefficients of the twisted convolutions,
    runs the full nuclearity witness on {u, z}, and runs the circle
    partition factorization of the base algebra alongside.  The partition
    legs are certified by their form: point evaluation is a coordinate
    compression of the diagonal (``compression_cb``) and blending factors
    through monomial maps (``cx_blend_factors``), so ``partition_ok`` rests
    on structural upper bounds.  Nothing is drawn at random: ``rng`` is
    accepted for compatibility and not used.
    """
    if n < 2:
        raise ValueError("need a grid of at least two points")
    if math.gcd(k % n, n) != 1:
        raise ValueError(f"rotation step {k} must be coprime to the grid size {n}")
    pe = as_exponent(p)
    group = cyclic_group(n)
    action = cyclic_coordinate_rotation(n, k)
    algebra = ConcreteAlgebra(n)

    u = CcElement.delta(group, 1, base_dim=n)
    z = CcElement.delta(group, 0, np.diag(np.exp(2j * np.pi * np.arange(n) / n)))
    uz, zu = twisted_convolve(u, z, action), twisted_convolve(z, u, action)
    phase = np.exp(2j * np.pi * k / n)
    commutation_dev = float(max(np.abs(uz.coeff(s) - phase * zu.coeff(s)).max()
                                for s in set(uz.support) | set(zu.support)))

    _, witness_report = crossed_nuclearity_witness([u, z], eps, algebra, group, action, pe)

    n_arcs = n // 2 if (n % 2 == 0 and n >= 6) else n
    part = circle_partition(n, n_arcs)
    rt = partition_roundtrip(part, circle_function("z", n))
    part_phi = compression_cb(np.asarray(part.points), part.n_points, 2)
    part_psi = monomial_cb(*cx_blend_factors(part, pe), pe, 2)
    partition_ok = rt["error"] <= rt["bound"] + 1e-12 and _proved_contractive(part_phi, part_psi)

    passed = bool(witness_report["passed"] and commutation_dev <= 1e-12 and partition_ok)
    return {
        "model": {"n": int(n), "k": int(k), "theta_model": float(k % n) / float(n)},
        "p": float(pe.p),
        "commutation_dev": commutation_dev,
        "witness": witness_report,
        "partition": {
            "n_points": int(n),
            "n_arcs": int(n_arcs),
            "roundtrip_error": float(rt["error"]),
            "oscillation_bound": float(rt["bound"]),
            "point_eval_kind": part_phi.kind,
            "point_eval_levels": _levels_list(part_phi),
            "blend_kind": part_psi.kind,
            "blend_levels": _levels_list(part_psi),
        },
        "passed": passed,
    }
