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
p-completely isometric) and R, S are monomial with norm 1, read off |F|
(``opspace.averaging_cb``, at count 1 for phi), so either certificate is a
proved upper bound at every level, exactly 1, with no sampling.
The remaining operations supply the bookkeeping lemmas: amplification and
corner stability, window truncation, and the triangle-inequality
composition of two approximations.  Like phi, the corner maps and the
truncation are built from ``opspace.compression`` and its adjoint
``opspace.embedding``.  A ``Factorization`` holds only proofs: every
certificate must prove a contraction (``CbEstimate.proves_contraction``:
structural and at most 1, with no tolerance), and each
lemma derives its legs' bounds from the parent's by cb(A o B) <= cb(A) cb(B),
so nothing in this module samples a cb norm (``opspace.cb_norm_lower`` stays
the refuting cross-check of the suite and the tests).

Both maps work on whole arrays: phi is an index compression, and psi moves
all blocks with one gather.  When all contributions to one group
coefficient are bitwise identical (which is exactly what happens for
integrated crossed elements under permutation actions), their average is
value * (count / |F|) rather than a floating accumulation.  Round trips
run neither map: psi(phi(f)) = sum_s r_s a_s delta_s, r_s = |F (cap) sF|/|F|,
so the defect is an element, its error exactly 0.0 when every r_s is 1
(F = G, say) and |1 - r| ||f|| when they agree at r.  Each norm is
estimated on the smallest matrix that holds it: a single term a delta_s on
a, any other element on its integrated form.
"""

from __future__ import annotations

import math

import numpy as np

from .crossed import (
    CcElement,
    ConcreteAlgebra,
    CovariantRep,
    cyclic_coordinate_rotation,
    require_fit,
    twisted_convolve,
)
from .errors import CapacityError, CertificateError, NormOverflowError
from .groups import (
    FolnerSet,
    as_integer,
    folner_intersection,
    folner_search,
    is_number,
)
from .lpnorm import as_exponent, pnorm_estimate, pnorm_upper, validate_matrix
from .opspace import (
    CbEstimate,
    LinearMap,
    amplify,
    averaging_cb,
    block_matrix,
    compression,
    compression_cb,
    embedding,
    split_blocks,
    weighted_sum_cb,
)
from .partition import (
    circle_function,
    circle_partition,
    partition_roundtrip,
)

__all__ = [
    "Factorization",
    "compose_factorizations",
    "corner_restrict",
    "crossed_nuclearity_witness",
    "folner_phi",
    "folner_phi_map",
    "folner_psi",
    "folner_psi_map",
    "lift_factorization",
    "measure_roundtrip",
    "rotation_demo",
    "sum_upper",
    "truncate_map",
]


def _require_proved(name: str, cb: CbEstimate):
    if not cb.proves_contraction:
        raise CertificateError(f"{name} certificate proves no contraction: {cb.kind} bound {cb.best:.9f}")


class Factorization:
    """A pair of maps through a matrix algebra with its quality records.

    The pair factors through M_{target_dim}, ``target_dim`` being the
    codomain dimension of phi.  ``roundtrip_errors`` maps a test-element id
    to the measured operator norm of psi(phi(x)) - x.  Both cb certificates
    must be proofs: kind ``structural`` (upper bounds derived from the form
    of the map, exact or rounded up) with at least one level and every
    level at most 1, compared with no tolerance.  A sampled lower bound, or
    a certificate with no levels, proves nothing, so it is refused at
    construction like an expansive bound.
    """

    def __init__(self, phi: LinearMap, psi: LinearMap, phi_cb: CbEstimate, psi_cb: CbEstimate,
                 roundtrip_errors: dict | None = None, p: float = 2.0):
        self.phi = phi
        self.psi = psi
        self.phi_cb = phi_cb
        self.psi_cb = psi_cb
        self.roundtrip_errors = {} if roundtrip_errors is None else roundtrip_errors
        self.p = p
        _require_proved("phi", self.phi_cb)
        _require_proved("psi", self.psi_cb)
        for key, err in self.roundtrip_errors.items():
            if not err >= 0.0:
                raise ValueError(f"negative round-trip error recorded for {key!r}")

    @property
    def target_dim(self) -> int:
        return self.phi.codomain_dim


def measure_roundtrip(phi: LinearMap, psi: LinearMap, elements: dict, p) -> dict:
    """Measured ||psi(phi(x)) - x||_{p->p} per test element."""
    pe = as_exponent(p)
    out = {}
    for key, x in elements.items():
        out[key] = pnorm_estimate(psi.apply(phi.apply(x)) - x, pe).value
    return out


# ---------------------------------------------------------------------------
# The Folner compression / averaging pair
# ---------------------------------------------------------------------------


def folner_phi(f: CcElement, folner: FolnerSet, rep: CovariantRep) -> np.ndarray:
    """Compress the integrated form of f to the block square over F.

    The (r, s^{-1}r) block of the result is alpha_{r^{-1}}(f(s)) for each
    r in F (cap) sF, the entries of the integrated form at those positions.
    """
    return folner_phi_map(folner, rep).apply(rep.integrated(f))


def folner_phi_map(folner: FolnerSet, rep: CovariantRep) -> LinearMap:
    """The compression T -> (P_F (x) I) T (P_F (x) I) to the F blocks;
    ``averaging_cb`` at count 1 certifies it with levels 1."""
    return compression(rep.block_selector(folner.members), rep.dimension)


def folner_psi(m, folner: FolnerSet, rep: CovariantRep) -> np.ndarray:
    """Average a block matrix over F back into the representation.

    Reads m as blocks (M_{s,t})_{s,t in F} and returns
    (1/|F|) sum_{s,t} pi(alpha_s(M_{s,t})) v(s t^{-1}), assembled by first
    collecting the coefficient of every group element u = s t^{-1} and then
    integrating the resulting finitely supported function.  All-zero blocks
    are skipped; identical contributions to one u are averaged as
    value * (count/|F|), others summed by row of F and divided by |F|.
    """
    d = rep.base_dim
    k = folner.size
    blocks = split_blocks(validate_matrix(m, k * d, "block matrix over F"), k, d)
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
    return rep.integrated(CcElement(rep.carrier, dict(zip(u.tolist(), coeffs)), base_dim=d))


def folner_psi_map(folner: FolnerSet, rep: CovariantRep) -> LinearMap:
    """The averaging map as a map on matrices; ``averaging_cb`` at count |F|
    certifies it (see :func:`crossed_nuclearity_witness`)."""
    return LinearMap(
        folner.size * rep.base_dim,
        rep.dimension,
        apply_fn=lambda m: folner_psi(m, folner, rep),
    )


def sum_upper(terms) -> float:
    """Bound the exact sum of nonnegative terms, each within two roundings:
    with fsum's and the product's, 4 units of roundoff; 1 + 2^-50 is 8.
    Summing each coefficient's ``pnorm_upper`` gives ``norm_upper``, a proved
    bound of the reduced norm on every window.  A sum beyond the float range
    raises :class:`NormOverflowError`."""
    try:
        value = math.fsum(terms) * (1.0 + 2.0**-50)
    except OverflowError:  # fsum's partial sums left the float range
        value = math.inf
    if math.isinf(value):
        raise NormOverflowError("the sum of the coefficients' norm bounds exceeds the float range")
    return value


def _roundtrip_bound(f: CcElement, ratios: dict, uppers: dict) -> float:
    """Proved defect budget sum_s |1 - r_s| ||a_s||_p, r_s = |F cap sF|/|F| by
    s in ``ratios``, rounded outward; ``uppers`` maps s to ``pnorm_upper``(a_s),
    and ||pi(a) v(s)|| <= ||a|| on every window.  The computed r_s <= 1, the
    factor psi applies, is within 2^-54 of the exact ratio, so
    |1 - r_s| + 2^-54 bounds the exact and the computed defect.  A ratio of
    exactly 1 adds 0.0 and reads no bound."""
    return sum_upper([(abs(1.0 - ratios[s]) + 2.0**-54) * uppers[s] for s in f.support if ratios[s] != 1.0])


def _element_norm(f: CcElement, rep: CovariantRep) -> float:
    """Estimate ||pi(f)||: a single term a delta_s on a, whose form permutes
    blocks alpha_t(a) that phased permutations conjugate from a, so it has
    norm ||a||_p on every window that holds a block (the witness's does);
    any other element on its integrated form."""
    terms = list(f.items())
    return pnorm_estimate(terms[0][1] if len(terms) == 1 else rep.integrated(f), rep.p).value


def _roundtrip(f: CcElement, ratios: dict, norm: float, uppers: dict, rep: CovariantRep) -> dict:
    """||psi(phi(f)) - f|| (a lower bound) and its proved budget, from the
    ratios r_s = |F cap sF|/|F| by s (at least over supp f), an estimate
    ``norm`` of ||pi(f)||, read only when the r_s agree at r < 1, and the
    ``pnorm_upper`` of each a_s by s, read only where r_s < 1.

    psi(phi(f)) scales each a_s by r_s, so neither map is run: the defect is
    g = sum over r_s != 1 of (r_s - 1) a_s delta_s, with error and budget
    exactly 0.0 when every r_s is 1.  When the r_s agree at r, the error is
    |1 - r| ``norm``; otherwise :func:`_element_norm` of g, which keeps every
    nonzero term, so the error scales with f.
    """
    agreed = {ratios[s] for s in f.support}
    if agreed <= {1.0}:
        return {"error": 0.0, "bound": 0.0}
    if len(agreed) == 1:
        error = abs(1.0 - agreed.pop()) * norm
    else:
        g = CcElement(f.carrier, {s: (ratios[s] - 1.0) * a for s, a in f.items() if ratios[s] != 1.0},
                      base_dim=f.base_dim)
        error = _element_norm(g, rep)
    return {"error": float(error), "bound": _roundtrip_bound(f, ratios, uppers)}


# ---------------------------------------------------------------------------
# Matrix and stable bookkeeping
# ---------------------------------------------------------------------------


def _derived(fact: Factorization, phi: LinearMap, psi: LinearMap, tests: dict) -> Factorization:
    """The factorization (phi, psi) derived from ``fact`` by a lemma that
    keeps its certificates, with the round trip measured on ``tests``."""
    return Factorization(phi, psi, fact.phi_cb, fact.psi_cb, measure_roundtrip(phi, psi, tests, fact.p), fact.p)


def lift_factorization(fact: Factorization, n: int, entries: dict) -> Factorization:
    """Amplify a factorization to n x n block matrices over its algebra.

    The maps become id_{M_n} (x) phi and id_{M_n} (x) psi; amplification
    does not change a cb norm, so the parent's structural bounds remain
    valid and are carried over.  Round-trip errors are measured on block
    matrices assembled from ``entries`` (id -> (n, n, d, d) array of
    blocks); the per-entry errors of the parent control them up to a factor
    n^2.
    """
    phi_n, psi_n = amplify(fact.phi, n), amplify(fact.psi, n)  # each reads n as a level >= 1
    d = fact.phi.domain_dim
    tests = {}
    for key, grid in entries.items():
        grid = np.asarray(grid, dtype=complex)
        if grid.shape != (n, n, d, d):
            raise ValueError(f"entry grid {key!r} must have shape {(n, n, d, d)}")
        tests[key] = block_matrix(grid)
    return _derived(fact, phi_n, psi_n, tests)


def corner_restrict(fact: Factorization, outer: int, *, test_elements: dict) -> Factorization:
    """Restrict a factorization of M_outer (x) A to one of A via the corner.

    Returns (phi o iota, rho o psi).  rho(iota(a)) = a exactly, so the
    restricted round trip agrees with the parent's on embedded elements up
    to the contraction rho, and the measured error can only shrink.  iota
    is an isometric monomial embedding and rho a compression, so
    cb(phi o iota) <= cb(phi) and cb(rho o psi) <= cb(psi): the parent's
    certificates carry over.  Errors are measured on ``test_elements``.
    """
    big, outer = fact.phi.domain_dim, as_integer(outer, "outer", 1)
    if big % outer != 0:
        raise ValueError("outer block count must divide the factorization's domain dimension")
    dim = big // outer
    iota = embedding(np.arange(dim), big)
    rho = compression(np.arange(dim), big)
    return _derived(fact, fact.phi.compose(iota), rho.compose(fact.psi), test_elements)


def truncate_map(window: int, n_keep: int, block_dim: int = 1) -> LinearMap:
    """(P_N (x) I) T (P_N (x) I) on a window of fiber ``block_dim``: the
    compression to the first n_keep positions, padded back with zeros."""
    window, n_keep = as_integer(window, "window", 1), as_integer(n_keep, "n_keep", 1)
    block_dim = as_integer(block_dim, "block_dim", 1)
    if n_keep > window:
        raise ValueError(f"can keep at most {window} positions, asked for {n_keep}")
    dim, keep = window * block_dim, np.arange(n_keep * block_dim)
    return embedding(keep, dim).compose(compression(keep, dim))


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
) -> tuple:
    """Build and check a full approximation witness for crossed elements.

    One pass, alike on finite groups and Z: M := max over f of the sum of
    ``pnorm_upper``(a_s) bounds every reduced norm on every window, one
    ``folner_search`` picks F with translate ratios below eps/(3M) for every
    support shift (below inf when M = 0, every element zero; M's power of
    two is taken out before 3M is formed, so M may reach the top of the
    float range), so scaling the elements and eps by one power of 2 keeps
    F, and one representation, of radius max|s| + |F| on Z, holds every
    translate the round trip reaches.  Where eps/(3M) underflows to 0 the
    search is given the least positive float: F is sized by it alone and
    ``passed`` reads only the budgets, so a larger delta can shrink F and
    fail a budget but never pass one (on a finite group F = G and every
    budget is 0.0); where no F can meet it, the CapacityError names eps
    and M.  Both Folner maps are
    certified by their form in closed form, and ``Factorization`` refuses
    any certificate that is not such a proof.  phi, built once, is the
    compression ``averaging_cb`` certifies at count 1.  By covariance
    psi(M) = R (id_F (x) pi)(M) S, with R = k^{-1/q} [v(s)]_{s in F},
    S = k^{-1/p} [v(t)^{-1}]_{t in F}, k = |F|, and id_F (x) pi p-completely
    isometric.  On a Z window {-W..W} the factors are P_W R and S P_W, with
    middle positions in the window of radius W + max|F|, where each window
    position x meets each s in F exactly once (at s^{-1}x): every row of
    P_W R and column of S P_W holds k entries, so ``averaging_cb`` at count
    k certifies psi, with levels exactly 1.  On a finite group both windows
    are G.  |F cap sF| is counted once per support shift.  Each element's
    norm is estimated once (its ``reduced_norm``, a single term's on its
    coefficient), and the round-trip rule takes it, the counted ratios and
    the ``pnorm_upper`` of each coefficient that M sums, computed once.  A
    round trip whose ratios agree has error |1 - r| ``reduced_norm``
    (exactly 0.0 on a finite group, where F = G); the rest estimate their
    defect element, with no Folner map run.
    ``passed`` holds when every budget is below eps, so it rests on upper
    bounds only.  The report records per element the two lower-bound
    diagnostics, ``norm_upper`` and the budget, both certificates with their
    kind, and on Z the window radius.  ``rng`` is accepted for compatibility
    and not used.  ``eps`` must be a positive number (``is_number``: a
    bool or a string is refused), and ``carrier`` and the elements must fit
    the action (``crossed.require_fit``); anything else is a ValueError.  Returns
    (Factorization, report).
    """
    if not fs:
        raise ValueError("need at least one finitely supported element to witness")
    if not (is_number(eps) and eps > 0.0):
        raise ValueError(f"epsilon must be positive, got {eps!r}")
    require_fit(action, *fs, carrier=carrier)
    pe = as_exponent(p)
    supports = sorted({s for f in fs for s in f.support})
    uppers = [{s: pnorm_upper(a, pe) for s, a in f.items()} for f in fs]
    norm_uppers = [sum_upper(u.values()) for u in uppers]
    top = max(norm_uppers)  # 0.0 only when every element is zero: then any F will do
    # eps/(3M) with M's power of two taken out first where M >= 1, so that 3M
    # cannot overflow, nor eps 2^-e where M is tiny: the quotient keeps its bits
    e = max(math.frexp(top)[1], 0)
    delta = math.ldexp(eps, -e) / (3.0 * math.ldexp(top, -e)) if top else math.inf
    try:  # a delta that underflows to 0 is raised to the least positive float
        folner = folner_search(carrier, supports, max(delta, math.nextafter(0.0, 1.0)))
    except CapacityError as exc:
        raise CapacityError(f"no Folner set meets the budget epsilon / (3 M) at epsilon {eps!r} "
                            f"and M {top!r}: {exc}") from exc
    rep = CovariantRep(algebra, action, pe, window_radius=max(map(abs, supports), default=0) + folner.size)

    phi_cb, psi_cb = averaging_cb(1), averaging_cb(folner.size)

    counts = {s: folner_intersection(folner, s) for s in supports}
    ratios = {s: counts[s] / folner.size for s in supports}
    elements = []
    for i, (f, coeff_uppers, upper) in enumerate(zip(fs, uppers, norm_uppers)):
        norm = _element_norm(f, rep)
        rt = _roundtrip(f, ratios, norm, coeff_uppers, rep)
        elements.append({"id": f"f{i}", "reduced_norm": norm, "norm_upper": upper,
                         "roundtrip_error": rt["error"], "bound": rt["bound"]})
    fact = Factorization(folner_phi_map(folner, rep), folner_psi_map(folner, rep), phi_cb, psi_cb,
                         {e["id"]: e["roundtrip_error"] for e in elements}, pe.p)

    certificates = [
        {"map": "folner_phi", "kind": phi_cb.kind, "levels": _levels_list(phi_cb)},
        {"map": "folner_psi", "kind": psi_cb.kind, "levels": _levels_list(psi_cb)},
    ]
    report = {
        "group": carrier.descriptor(),
        "p": float(pe.p),
        "folner": {
            "members": [int(t) for t in folner.members],
            "ratios": {str(s): 2 * (folner.size - counts[s]) / folner.size for s in supports},
        },
        "elements": elements,
        "certificates": certificates,
        "epsilon": float(eps),
        "passed": all(e["bound"] < eps for e in elements),
    }
    if carrier.order is None:
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
    compression of the diagonal (``compression_cb``) and blending is bounded
    by the bumps' largest column sum (``weighted_sum_cb``, rounded up), so
    ``partition_ok`` rests on structural upper bounds.  Nothing is drawn at random: ``rng`` is
    accepted for compatibility and not used.
    """
    n, k = as_integer(n, "rotation grid size n", 2), as_integer(k, "rotation step k")
    if math.gcd(k % n, n) != 1:
        raise ValueError(f"rotation step {k} must be coprime to the grid size {n}")
    pe = as_exponent(p)
    action = cyclic_coordinate_rotation(n, k)
    group = action.carrier
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
    part_phi = compression_cb(np.asarray(part.points), part.n_points)
    part_psi = weighted_sum_cb(part.bumps)
    partition_ok = rt["error"] <= rt["bound"] + 1e-12 and part_phi.proves_contraction and part_psi.proves_contraction

    passed = bool(witness_report["passed"] and commutation_dev <= 1e-12 and partition_ok)
    return {
        "model": {"n": n, "k": k, "theta_model": float(k % n) / float(n)},
        "p": float(pe.p),
        "commutation_dev": commutation_dev,
        "witness": witness_report,
        "partition": {
            "n_points": n,
            "n_arcs": n_arcs,
            "roundtrip_error": float(rt["error"]),
            "oscillation_bound": float(rt["bound"]),
            "point_eval_kind": part_phi.kind,
            "point_eval_levels": _levels_list(part_phi),
            "blend_kind": part_psi.kind,
            "blend_levels": _levels_list(part_psi),
        },
        "passed": passed,
    }
