"""Tests for finite-stage factorizations through matrix algebras."""

import math
import re
import sys
from itertools import permutations

import numpy as np
import pytest

from lpalg import lpnorm, nuclearity, opspace
from lpalg.crossed import (
    CcElement,
    ConcreteAlgebra,
    CovariantRep,
    IsometricAction,
    cyclic_coordinate_rotation,
    random_cc_element,
    trivial_action,
)
from lpalg.errors import CapacityError, CertificateError
from lpalg.groups import FolnerSet, ZWindow, cyclic_group, folner_intersection, group_from_table
from lpalg.nuclearity import (
    Factorization,
    compose_factorizations,
    corner_restrict,
    crossed_nuclearity_witness,
    folner_phi,
    folner_phi_map,
    folner_psi,
    folner_psi_map,
    lift_factorization,
    measure_roundtrip,
    rotation_demo,
    truncate_map,
)
from lpalg.opspace import CbEstimate, LinearMap, cb_norm_lower, compression, compression_cb, embedding, weighted_sum_cb

CB_SLACK = 1e-6
LIGHT = {"trials": 4, "ascent_steps": 2, "restarts": 6, "max_iters": 60}


def _rotation_rep(n, p):
    return CovariantRep(ConcreteAlgebra(n), cyclic_coordinate_rotation(n, 1), p)


def _counted_roundtrip(f, folner, rep, norm=None):
    """The witness's round-trip rule on the counted ratios r_s = |F cap sF|/|F|
    and each coefficient's pnorm_upper; ``norm`` defaults to the estimate of
    ||pi(f)||, and NaN shows that the rule does not read it."""
    ratios = {s: folner_intersection(folner, s) / folner.size for s in f.support}
    uppers = {s: lpnorm.pnorm_upper(a, rep.p) for s, a in f.items()}
    if norm is None:
        norm = nuclearity._element_norm(f, rep)
    return nuclearity._roundtrip(f, ratios, norm, uppers, rep)


# ---------------------------------------------------------------------------
# the two Folner maps
# ---------------------------------------------------------------------------

def test_folner_phi_matches_compressed_integrated_form():
    rep = _rotation_rep(6, 2.0)
    folner = FolnerSet(cyclic_group(6), (0, 1, 2))
    rng = np.random.default_rng(0)
    f = random_cc_element(rng, cyclic_group(6), 6)
    out = folner_phi(f, folner, rep)
    assert out.shape == (18, 18)
    full = rep.integrated(f)
    sel = [rep.position_index(m) for m in folner.members]
    idx = np.concatenate([np.arange(6 * t, 6 * t + 6) for t in sel])
    assert np.allclose(out, full[np.ix_(idx, idx)], atol=1e-12)


def test_whole_group_roundtrip_is_exact():
    rep = _rotation_rep(12, 1.5)
    folner = FolnerSet(cyclic_group(12), tuple(range(12)))
    f = random_cc_element(np.random.default_rng(1), cyclic_group(12), 12)
    rt = _counted_roundtrip(f, folner, rep, norm=math.nan)
    assert rt["error"] == 0.0
    assert rt["bound"] == 0.0


def test_half_window_roundtrip_matches_ratio_bound():
    # F = {0..5} in Z/12 and a single-shift element: the defect is exactly
    # the boundary ratio 1/6 of the Folner set, and the bound is attained.
    rep = _rotation_rep(12, 1.5)
    folner = FolnerSet(cyclic_group(12), tuple(range(6)))
    f = CcElement.delta(cyclic_group(12), 1, np.eye(12, dtype=complex))
    rt = _counted_roundtrip(f, folner, rep)
    assert rt["error"] == pytest.approx(1 / 6, abs=1e-12)
    assert rt["error"] == pytest.approx(rt["bound"], abs=1e-12)


def test_integer_window_roundtrip_values():
    rep = CovariantRep(ConcreteAlgebra(1), trivial_action(ZWindow(25), 1), 1.5)
    f = CcElement.delta(ZWindow(25), 1, np.eye(1, dtype=complex))
    rt21 = _counted_roundtrip(f, FolnerSet(ZWindow(25), tuple(range(-10, 11))), rep)
    assert rt21["error"] == pytest.approx(1 / 21, abs=1e-12)
    g = CcElement.delta(ZWindow(25), 2, np.eye(1, dtype=complex))
    rt41 = _counted_roundtrip(g, FolnerSet(ZWindow(25), tuple(range(-20, 21))), rep)
    assert rt41["error"] == pytest.approx(2 / 41, abs=1e-12)


def _measured_defect(folner, rep, form):
    """||psi(phi(T)) - T|| for the integrated form T, through the dense pipeline."""
    return measure_roundtrip(folner_phi_map(folner, rep), folner_psi_map(folner, rep), {"T": form}, rep.p)["T"]


def _reference_roundtrip(f, folner, rep):
    """The round trip with every operator estimated on the window: the
    defect that the dense phi/psi pipeline measures, and each term
    pi(a_s) v(s) of the budget, whatever its ratio."""
    error = _measured_defect(folner, rep, rep.integrated(f))
    total = 0.0
    for s, a in f.items():
        ratio = folner_intersection(folner, s) / folner.size
        term = rep.integrated(CcElement.delta(rep.carrier, s, a))
        total += abs(1.0 - ratio) * lpnorm.pnorm_estimate(term, rep.p).value
    return {"error": float(error), "bound": float(total)}


def _roundtrip_cases():
    rng = np.random.default_rng(23)

    def gauss(d):
        return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))

    z_rep = _z_phased_rep(1.5, radius=24)
    z_folner = FolnerSet(z_rep.carrier, tuple(range(-10, 11)))
    z12 = cyclic_group(12)
    rot = CovariantRep(ConcreteAlgebra(12), cyclic_coordinate_rotation(12, 5), 3.0)
    return [
        ("Z single term", CcElement(z_rep.carrier, {1: gauss(2)}), z_folner, z_rep),
        ("Z three terms", CcElement(z_rep.carrier, {-1: gauss(2), 0: gauss(2), 2: gauss(2)}), z_folner, z_rep),
        ("Z/12, F = G", random_cc_element(rng, z12, 12, n_terms=3), FolnerSet(z12, tuple(range(12))), rot),
        ("Z/12, F = {0..5}", CcElement(z12, {0: gauss(12), 1: gauss(12), 7: gauss(12)}),
         FolnerSet(z12, tuple(range(6))), rot),
        ("Z, one term off ratio 1", CcElement(z_rep.carrier, {0: gauss(2), 1: gauss(2)}), z_folner, z_rep),
    ]


def _upper_budget(f, folner, p):
    """The budget written out: sum over the terms with ratio r_s < 1 of
    (|1 - r_s| + 2^-54) pnorm_upper(a_s), summed and rounded outward."""
    terms = []
    for s, a in f.items():
        ratio = folner_intersection(folner, s) / folner.size
        if ratio != 1.0:
            terms.append((abs(1.0 - ratio) + 2.0**-54) * lpnorm.pnorm_upper(a, p))
    return math.fsum(terms) * (1.0 + 2.0**-50)


@pytest.mark.parametrize("case", range(5))
def test_roundtrip_with_the_witness_form_matches_estimating_every_term(monkeypatch, case):
    # the error is the norm of the defect element, within rounding of the
    # defect the dense pipeline measures; where the ratios agree on supp f it
    # is |1 - r| times the element's norm bit for bit; the budget is the
    # d x d upper-bound formula, at least the sum of every term's window
    # estimate and the error
    _, f, folner, rep = _roundtrip_cases()[case]
    expected = _reference_roundtrip(f, folner, rep)
    monkeypatch.setattr(nuclearity, "folner_psi", _refuse)
    rt = _counted_roundtrip(f, folner, rep)
    ratios = {folner_intersection(folner, s) / folner.size for s in f.support}
    if len(ratios) == 1 and ratios != {1.0}:
        assert rt["error"] == abs(1.0 - ratios.pop()) * nuclearity._element_norm(f, rep)
    assert rt["error"] == pytest.approx(expected["error"], rel=1e-13, abs=0.0)
    assert rt["bound"] == _upper_budget(f, folner, rep.p)
    assert rt["bound"] >= expected["bound"]
    assert rt["bound"] >= rt["error"]


@pytest.mark.parametrize("case, forms_built", [(2, 0), (3, 1), (4, 0)])
def test_roundtrip_assembles_psi_only_when_its_coefficients_differ_from_f(monkeypatch, case, forms_built):
    # psi is never assembled: on F = G every ratio |F cap sF|/|F| is 1, so
    # the defect is zero and nothing is built; on F = {0..5} the defect has
    # two terms and its form is the only one built; a single-term defect is
    # estimated on its coefficient, with no form; the budget needs no window,
    # and ratios that differ read no norm of f (NaN would reach the error)
    _, f, folner, rep = _roundtrip_cases()[case]
    expected = _reference_roundtrip(f, folner, rep)
    forms = []
    integrated = CovariantRep.integrated
    monkeypatch.setattr(CovariantRep, "integrated", lambda self, g: forms.append(g) or integrated(self, g))
    monkeypatch.setattr(nuclearity, "folner_psi", _refuse)
    rt = _counted_roundtrip(f, folner, rep, norm=math.nan)
    assert rt["error"] == pytest.approx(expected["error"], rel=1e-13, abs=0.0)
    assert len(forms) == forms_built
    assert (expected["error"] == 0.0) == (case == 2)


def _zero_defect_cases():
    """Round trips whose every support ratio |F cap sF|/|F| is 1: Z/6 acting on
    M_3 by diag(w^{s j}), w = e^{2 pi i/6}, with F = G, and the subgroup
    F = {0, 4, 8} of Z/12 under a rotation, with supp f inside F."""
    rng = np.random.default_rng(31)
    z6, z12 = cyclic_group(6), cyclic_group(12)
    phases = [np.diag(np.exp(2j * np.pi * s * np.arange(3) / 6)) for s in range(6)]
    phased = CovariantRep(ConcreteAlgebra(3), IsometricAction(z6, unitaries=phases), 1.5)
    rot = CovariantRep(ConcreteAlgebra(12), cyclic_coordinate_rotation(12, 5), 3.0)
    cases = [(random_cc_element(rng, z6, 3, n_terms=4), FolnerSet(z6, tuple(range(6))), phased) for _ in range(6)]
    sub = {s: rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)) for s in (0, 4, 8)}
    cases.append((CcElement(z12, sub), FolnerSet(z12, (0, 4, 8)), rot))
    return cases


@pytest.mark.parametrize("case", range(7))
def test_roundtrip_with_every_ratio_one_is_exact_without_psi(monkeypatch, case):
    # sF = F for every s in supp f, so psi(phi(f)) = f exactly: neither psi's
    # coefficients nor any integrated form is built, and error and budget are 0.0
    f, folner, rep = _zero_defect_cases()[case]
    assert all(folner_intersection(folner, s) == folner.size for s in f.support)

    def refuse(*args):
        raise AssertionError("a zero-defect round trip built psi or a form")

    with monkeypatch.context() as m:
        m.setattr(nuclearity, "folner_psi", refuse)
        m.setattr(CovariantRep, "integrated", refuse)
        assert _counted_roundtrip(f, folner, rep, norm=math.nan) == {"error": 0.0, "bound": 0.0}
        ones = {s: 1.0 for s in f.support}
        assert nuclearity._roundtrip(f, ones, 5.0, {}, rep) == {"error": 0.0, "bound": 0.0}
    if folner.size == rep.carrier.order:
        _, report = crossed_nuclearity_witness([f], 0.1, rep.algebra, rep.carrier, rep.action, rep.p)
        assert report["elements"][0]["roundtrip_error"] == 0.0
        assert report["elements"][0]["bound"] == 0.0


def _scalar_defect_cases():
    """Round trips whose ratios agree on supp f at one r < 1: single terms on Z
    under the trivial action and a phased one, at d = 1 and d = 2; terms at
    -2 and 2 on Z; and supp f = {1, 11} in Z/12 under a rotation with
    F = {0..5}, where both ratios are 5/6."""
    rng = np.random.default_rng(41)

    def gauss(d):
        return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))

    zw, z12 = ZWindow(24), cyclic_group(12)
    folner = FolnerSet(zw, tuple(range(-10, 11)))
    cases = []
    for d, s in ((1, 1), (2, -3)):
        generator = np.diag(np.exp(2j * np.pi * rng.random(d))) @ np.eye(d)[::-1]
        for action, p in ((trivial_action(zw, d), 1.5), (IsometricAction(zw, generator=generator), 3.0)):
            rep = CovariantRep(ConcreteAlgebra(d), action, p, window_radius=24)
            cases.append((CcElement(zw, {s: gauss(d)}), folner, rep))
    cases.append((CcElement(zw, {-2: gauss(2), 2: gauss(2)}), folner, _z_phased_rep(1.5, radius=24)))
    rot = CovariantRep(ConcreteAlgebra(12), cyclic_coordinate_rotation(12, 5), 1.5)
    cases.append((CcElement(z12, {1: gauss(12), 11: gauss(12)}), FolnerSet(z12, tuple(range(6))), rot))
    return cases


def _refuse(*args, **kwargs):
    raise AssertionError("a round trip built psi, or one with agreeing ratios made an estimate")


@pytest.mark.parametrize("case", range(6))
def test_roundtrip_with_agreeing_ratios_is_read_off_the_norm(monkeypatch, case):
    # psi(phi(f)) = r f, so the error is |1 - r| times the estimate of
    # ||pi(f)||, within rounding of the defect the pipeline measures; psi is
    # never built, and the rule given the norm has nothing to estimate
    f, folner, rep = _scalar_defect_cases()[case]
    ratios = {s: folner_intersection(folner, s) / folner.size for s in f.support}
    (r,) = set(ratios.values())
    assert r < 1.0
    measured = _measured_defect(folner, rep, rep.integrated(f))
    norm = nuclearity._element_norm(f, rep)
    uppers = {s: lpnorm.pnorm_upper(a, rep.p) for s, a in f.items()}
    with monkeypatch.context() as m:
        m.setattr(nuclearity, "folner_psi", _refuse)
        calls = _count_estimates(m)
        m.setattr(CovariantRep, "integrated", _refuse)
        rt = nuclearity._roundtrip(f, ratios, norm, uppers, rep)
        assert calls == []
    assert rt["error"] == abs(1.0 - r) * norm
    assert rt["error"] == pytest.approx(measured, rel=1e-13, abs=0.0)
    assert rt["error"] <= rt["bound"] == _upper_budget(f, folner, rep.p)


@pytest.mark.parametrize("case", range(5))
def test_witness_reads_agreeing_roundtrips_off_the_reduced_norm(monkeypatch, case):
    # on Z every Folner set the witness picks is an interval, so single terms
    # and terms at -s and s have one ratio: the error is |1 - r| times the
    # reported reduced norm, bit for bit, and psi is never built
    f, _, rep = _scalar_defect_cases()[case]
    monkeypatch.setattr(nuclearity, "folner_psi", _refuse)
    _, report = crossed_nuclearity_witness([f], 0.3, rep.algebra, rep.carrier, rep.action, rep.p)
    folner = FolnerSet(rep.carrier, tuple(report["folner"]["members"]))
    (r,) = {folner_intersection(folner, s) / folner.size for s in f.support}
    (elem,) = report["elements"]
    assert report["passed"]
    assert elem["roundtrip_error"] == abs(1.0 - r) * elem["reduced_norm"]
    assert elem["roundtrip_error"] <= elem["bound"]


def _line_shaped_elements(seed):
    """Elements on Z like the line benchmark's whose ratios differ, each with
    its action, exponent and epsilon: scalars at 0 and -1 (d = 1, trivial,
    p = 1.5); phased permutations at 0 and 2 (d = 2, phased, p = 3); a
    rank-one term at 0 and a phased permutation at 1 (d = 2, trivial,
    p = 1.5).  The largest term's norm is 0.6 or 0.7."""
    rng = np.random.default_rng([101, seed])
    zw = ZWindow(0)

    def phased(d):
        out = np.zeros((d, d), dtype=complex)
        out[rng.permutation(d), np.arange(d)] = np.exp(2j * np.pi * rng.random(d))
        return out

    def rank_one(d, p, norm):
        u, v = (rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(2))
        return norm * np.outer(u / np.linalg.norm(u, p), (v / np.linalg.norm(v, p / (p - 1.0))).conj())

    return [
        (CcElement(zw, {0: 0.6 * phased(1), -1: 0.4 * phased(1)}), trivial_action(zw, 1), 1.5, 0.29),
        (CcElement(zw, {0: 0.6 * phased(2), 2: 0.4 * phased(2)}), IsometricAction(zw, generator=phased(2)),
         3.0, 0.58),
        (CcElement(zw, {0: rank_one(2, 1.5, 0.7), 1: 0.3 * phased(2)}), trivial_action(zw, 2), 1.5, 0.29),
    ]


@pytest.mark.parametrize("seed", [1, 3, 29])
def test_witness_defects_with_unequal_ratios_match_the_dense_pipeline(monkeypatch, seed):
    # the witness reads each defect off the element sum (r_s - 1) a_s delta_s,
    # within 1e-13 relative of the defect the dense phi/psi pipeline
    # measures on its window, and never collects or assembles psi
    for f, action, p, eps in _line_shaped_elements(seed):
        algebra = ConcreteAlgebra(f.base_dim)
        with monkeypatch.context() as m:
            m.setattr(nuclearity, "folner_psi", _refuse)
            _, report = crossed_nuclearity_witness([f], eps, algebra, f.carrier, action, p)
        folner = FolnerSet(f.carrier, tuple(report["folner"]["members"]))
        assert len({folner_intersection(folner, s) for s in f.support}) == 2
        rep = CovariantRep(algebra, action, p, window_radius=report["window_radius"])
        (elem,) = report["elements"]
        assert report["passed"]
        measured = _measured_defect(folner, rep, rep.integrated(f))
        assert elem["roundtrip_error"] == pytest.approx(measured, rel=1e-13, abs=0.0)


def test_defect_error_scales_exactly_and_keeps_the_terms_pruning_would_drop():
    # error(2^k f) = 2^k error(f) bit for bit, for a one-term and a two-term
    # defect; at k = -45 each (r_s - 1) a_s is below 1e-14 and is still a
    # term of the defect, whose norm is not 0
    rng = np.random.default_rng(47)
    rep = _z_phased_rep(1.5, radius=24)
    folner = FolnerSet(rep.carrier, tuple(range(-10, 11)))
    coeffs = {}
    for s in (0, 1, -2):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        coeffs[s] = a / np.abs(a).max()
    for support in ((0, 1), (0, 1, -2)):
        f = CcElement(rep.carrier, {s: coeffs[s] for s in support})
        error = _counted_roundtrip(f, folner, rep, norm=math.nan)["error"]
        assert error > 0.0
        for k in (-45, -20, 0, 20):
            assert _counted_roundtrip(2.0**k * f, folner, rep, norm=math.nan)["error"] == 2.0**k * error
    r = folner_intersection(folner, 1) / folner.size
    tiny = CcElement(rep.carrier, {1: (r - 1.0) * 2.0**-45 * coeffs[1]}, base_dim=2)
    assert tiny.support == (1,)
    assert nuclearity._element_norm(tiny, rep) > 0.0


def _single_term_cases():
    """(representation, coefficients, shifts) for single terms a delta_s: a
    Z window of radius 6 under a phased generator, with shifts up to 12,
    where one block is left; Z/6 rotating coordinates; and S_3, given by its
    table, acting on C^3 by the signed permutations sgn(g) P_g."""
    rng = np.random.default_rng(53)

    def gauss(d):
        return [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(2)]

    perms = list(permutations(range(3)))
    table = [[perms.index(tuple(g[h[i]] for i in range(3))) for h in perms] for g in perms]
    s3 = group_from_table(table)
    signed = []
    for g in perms:
        u = np.zeros((3, 3), dtype=complex)
        u[list(g), range(3)] = np.linalg.det(np.eye(3)[:, list(g)])
        signed.append(u)
    return [
        (_z_phased_rep(2.0, radius=6), gauss(2), (-3, 0, 1, 5, 12)),
        (CovariantRep(ConcreteAlgebra(6), cyclic_coordinate_rotation(6, 1), 2.0), gauss(6), range(6)),
        (CovariantRep(ConcreteAlgebra(3), IsometricAction(s3, unitaries=signed), 2.0), gauss(3), range(6)),
    ]


@pytest.mark.parametrize("case", range(3))
def test_single_term_norm_is_its_coefficients(case):
    # the form of a delta_s is a partial block permutation of conjugates of a
    # by phased permutations: its exact norms at p in {1, 2, inf} are a's,
    # and at p in {1.5, 3} the estimate on a is never below the form's by
    # more than the iteration's last bits (at most 4.5e-15 relative here, on
    # the 6 x 6 coefficients at p = 1.5; it is above by up to 2.9e-12)
    rep, coeffs, shifts = _single_term_cases()[case]
    for a in coeffs:
        for s in shifts:
            form = rep.integrated(CcElement.delta(rep.carrier, s, a))
            for p in (1.0, 2.0, math.inf):
                assert lpnorm.pnorm_exact(form, p) == pytest.approx(lpnorm.pnorm_exact(a, p), rel=1e-13, abs=0.0)
            for p in (1.5, 3.0):
                assert lpnorm.pnorm_estimate(a, p).value >= lpnorm.pnorm_estimate(form, p).value * (1.0 - 1e-14)


def _z_phased_rep(p, radius=4):
    phases = np.exp(2j * np.pi * np.array([0.17, 0.58]))
    generator = np.diag(phases) @ np.array([[0.0, 1.0], [1.0, 0.0]])
    return CovariantRep(ConcreteAlgebra(2), IsometricAction(ZWindow(radius), generator=generator), p,
                        window_radius=radius)


def test_folner_certificates_are_contractive():
    rep = _rotation_rep(6, 3.0)
    folner = FolnerSet(cyclic_group(6), (0, 1, 2))
    phi = cb_norm_lower(folner_phi_map(folner, rep), rep.p, n_max=2, rng=np.random.default_rng(2),
                        **LIGHT)
    psi = cb_norm_lower(folner_psi_map(folner, rep), rep.p, n_max=2, rng=np.random.default_rng(3),
                        **LIGHT)
    assert phi.best <= 1.0 + CB_SLACK
    assert psi.best <= 1.0 + CB_SLACK


def test_sampled_folner_phi_cross_check_on_a_phased_z_window():
    # the witness certifies phi by construction; the sampled check agrees
    rep = _z_phased_rep(3.0)
    folner = FolnerSet(rep.carrier, (-1, 0, 1, 2))
    phi = cb_norm_lower(folner_phi_map(folner, rep), rep.p, n_max=2, rng=np.random.default_rng(2), **LIGHT)
    assert phi.kind == "sampled_lower"
    assert phi.best <= 1.0 + CB_SLACK


def test_folner_psi_requires_matching_shape():
    rep = _rotation_rep(4, 2.0)
    folner = FolnerSet(cyclic_group(4), (0, 1))
    with pytest.raises(ValueError):
        folner_psi(np.eye(3, dtype=complex), folner, rep)


def test_folner_maps_package_dimensions():
    rep = _rotation_rep(4, 2.0)
    folner = FolnerSet(cyclic_group(4), (0, 1, 2))
    phi = folner_phi_map(folner, rep)
    psi = folner_psi_map(folner, rep)
    assert phi.domain_dim == 16 and phi.codomain_dim == 12
    assert psi.domain_dim == 12 and psi.codomain_dim == 16


# ---------------------------------------------------------------------------
# factorization bookkeeping
# ---------------------------------------------------------------------------

def _identity_factorization(dim, p):
    """The exact factorization of M_dim through itself: both legs are the
    compression to every coordinate, certified with levels 1."""
    ident = compression(np.arange(dim), dim)
    cb = compression_cb(np.arange(dim), dim)
    return Factorization(ident, ident, cb, cb, p=p)


def _structural(level):
    return CbEstimate(levels=[(1, level)], kind="structural")


def _scaling(dim, c):
    """x -> c x on M_dim with its structural certificate: one fibre with weight |c|."""
    cb = weighted_sum_cb([[abs(c)]])
    return LinearMap(dim, dim, apply_fn=lambda a: c * np.asarray(a, dtype=complex)), cb


def test_factorization_rejects_expansive_certificates():
    ident = LinearMap.identity(2)
    bad = _structural(1.01)
    good = _structural(1.0)
    with pytest.raises(CertificateError):
        Factorization(phi=ident, psi=ident, phi_cb=bad, psi_cb=good)


def test_factorization_refuses_a_structural_level_one_ulp_above_one():
    # every structural level is exact or rounded up, so "<= 1" takes no tolerance
    ident = LinearMap.identity(2)
    above = _structural(math.nextafter(1.0, 2.0))
    assert _structural(1.0).proves_contraction and not above.proves_contraction
    for phi_cb, psi_cb in ((above, _structural(1.0)), (_structural(1.0), above)):
        with pytest.raises(CertificateError, match="proves no contraction"):
            Factorization(phi=ident, psi=ident, phi_cb=phi_cb, psi_cb=psi_cb)


def test_factorization_refuses_a_sampled_certificate_at_one():
    # a sampled level is a lower bound: at exactly 1.0, or at 0.5, it still proves nothing
    ident = LinearMap.identity(2)
    sampled = CbEstimate(levels=[(1, 1.0)], kind="sampled_lower")
    assert not sampled.proves_contraction and not CbEstimate(levels=[(1, 0.5)]).proves_contraction
    for phi_cb, psi_cb in ((sampled, _structural(1.0)), (_structural(1.0), sampled)):
        with pytest.raises(CertificateError, match="sampled_lower"):
            Factorization(phi=ident, psi=ident, phi_cb=phi_cb, psi_cb=psi_cb)


def test_factorization_refuses_a_certificate_with_no_levels():
    # a structural certificate with no levels bounds nothing
    ident = LinearMap.identity(2)
    empty = CbEstimate(levels=[], kind="structural")
    assert not empty.proves_contraction
    for phi_cb, psi_cb in ((empty, _structural(1.0)), (_structural(1.0), empty)):
        with pytest.raises(CertificateError):
            Factorization(phi=ident, psi=ident, phi_cb=phi_cb, psi_cb=psi_cb)


def test_measure_roundtrip_reports_per_element_errors():
    shrink = LinearMap(2, 2, apply_fn=lambda a: 0.75 * np.asarray(a, dtype=complex))
    ident = LinearMap.identity(2)
    elements = {"x": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)}
    errors = measure_roundtrip(ident, shrink, elements, 2.0)
    assert errors["x"] == pytest.approx(0.25, abs=1e-10)


def test_lift_scales_errors_by_block_count():
    base = _identity_factorization(2, 2.0)
    shrink = LinearMap(2, 2, apply_fn=lambda a: (1 - 1e-3) * np.asarray(a, dtype=complex))
    lossy = Factorization(phi=base.phi, psi=shrink,
                          phi_cb=base.phi_cb, psi_cb=base.psi_cb,
                          roundtrip_errors={}, p=2.0)
    gen = np.random.default_rng(6)
    for n in (1, 2, 3):
        grid = gen.standard_normal((n, n, 2, 2)) + 1j * gen.standard_normal((n, n, 2, 2))
        entry_errs = [
            measure_roundtrip(lossy.phi, lossy.psi, {"e": grid[i, j]}, 2.0)["e"]
            for i in range(n) for j in range(n)
        ]
        lifted = lift_factorization(lossy, n, entries={"e": grid})
        assert lifted.target_dim == 2 * n
        assert lifted.roundtrip_errors["e"] <= n * n * max(entry_errs) + 1e-12


def test_corner_embed_project_are_mutually_inverse():
    # the corner maps of M_5 (x) M_2 are the cut to its first two coordinates
    rng = np.random.default_rng(7)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    iota = embedding(np.arange(2), 10)
    rho = compression(np.arange(2), 10)
    big = iota.apply(a)
    assert big.shape == (10, 10)
    assert np.array_equal(big[:2, :2], a)
    assert np.all(big[2:, :] == 0.0) and np.all(big[:, 2:] == 0.0)
    assert np.array_equal(rho.apply(big), a)


def test_corner_restrict_of_exact_parent_is_exact():
    parent = _identity_factorization(4, 1.5)
    rng = np.random.default_rng(9)
    tests = {f"a{i}": rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
             for i in range(3)}
    fact = corner_restrict(parent, 2, test_elements=tests)
    assert set(fact.roundtrip_errors.values()) == {0.0}
    assert (fact.phi_cb, fact.psi_cb) == (parent.phi_cb, parent.psi_cb)


def _count_sampled_cb(monkeypatch) -> list:
    """Replace cb_norm_lower by a counter in every loaded lpalg module that
    binds it (``from .opspace import cb_norm_lower`` makes copies) and
    return the list the counter appends the sampled maps to."""
    calls = []
    sampled = opspace.cb_norm_lower

    def counting(*args, **kwargs):
        calls.append(args[0])
        return sampled(*args, **kwargs)

    bound = [mod for name, mod in sorted(sys.modules.items())
             if name.startswith("lpalg") and getattr(mod, "cb_norm_lower", None) is sampled]
    assert opspace in bound
    for mod in bound:
        monkeypatch.setattr(mod, "cb_norm_lower", counting)
    return calls


def test_corner_restrict_and_identity_sample_no_cb_norm(monkeypatch):
    calls = _count_sampled_cb(monkeypatch)
    assert not hasattr(nuclearity, "cb_norm_lower")
    parent = _identity_factorization(6, 3.0)
    shrink, shrink_cb = _scaling(6, 0.5)
    lossy = Factorization(parent.phi, shrink, parent.phi_cb, shrink_cb, p=3.0)
    gen = np.random.default_rng(10)
    tests = {f"a{t}": gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2)) for t in range(2)}
    fact = corner_restrict(lossy, 3, test_elements=tests)
    assert calls == []
    assert fact.psi_cb is shrink_cb and fact.phi_cb is parent.phi_cb
    assert sorted(fact.roundtrip_errors) == ["a0", "a1"]
    assert all(err > 0.0 for err in fact.roundtrip_errors.values())


def test_truncate_keeps_leading_blocks():
    t = np.arange(36, dtype=float).reshape(6, 6)
    out = truncate_map(3, 2, block_dim=2).apply(t)
    assert out.shape == (6, 6)
    assert np.array_equal(out[:4, :4], t[:4, :4])
    assert np.all(out[4:, :] == 0.0) and np.all(out[:, 4:] == 0.0)
    # refused when the map is built, before any apply
    with pytest.raises(ValueError, match="^n_keep must be an integer >= 1, got 0$"):
        truncate_map(4, 0, 2)
    with pytest.raises(ValueError, match="^can keep at most 4 positions, asked for 5$"):
        truncate_map(4, 5, 2)


def test_truncate_certificate_contractive():
    cert = cb_norm_lower(truncate_map(4, 2, 2), 3.0, n_max=2,
                         rng=np.random.default_rng(11), **LIGHT)
    assert cert.best <= 1.0 + CB_SLACK
    tm = truncate_map(4, 2, 2)
    assert tm.domain_dim == 8 and tm.codomain_dim == 8


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def test_compose_identity_bridges_is_lossless():
    inner = _identity_factorization(2, 2.0)
    ident = LinearMap.identity(2)
    tests = {"x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)}
    fact = compose_factorizations(ident, ident, inner, tests, (0.1, 0.0), p=2.0,
                                  bridge_phi_cb=inner.phi_cb, bridge_psi_cb=inner.psi_cb)
    assert set(fact.roundtrip_errors.values()) == {0.0}
    assert fact.phi_cb.kind == fact.psi_cb.kind == "structural"


def test_compose_rejects_expansive_bridge():
    inner = _identity_factorization(2, 2.0)
    double, double_cb = _scaling(2, 2.0)
    assert double_cb.levels == [(1, 2.0), (2, 2.0)] and double_cb.kind == "structural"
    ident = LinearMap.identity(2)
    with pytest.raises(CertificateError):
        compose_factorizations(double, ident, inner, {}, (0.1, 0.0), p=2.0,
                               bridge_phi_cb=double_cb, bridge_psi_cb=inner.psi_cb)
    with pytest.raises(CertificateError):
        compose_factorizations(ident, double, inner, {}, (0.1, 0.0), p=2.0,
                               bridge_phi_cb=inner.phi_cb, bridge_psi_cb=double_cb)


def test_compose_refuses_a_sampled_bridge():
    inner = _identity_factorization(2, 2.0)
    ident = LinearMap.identity(2)
    sampled = CbEstimate(levels=[(1, 1.0)])
    with pytest.raises(CertificateError):
        compose_factorizations(ident, ident, inner, {}, (0.1, 0.0), p=2.0,
                               bridge_phi_cb=sampled, bridge_psi_cb=inner.psi_cb)


def test_compose_levels_are_level_wise_products():
    # phi_total = phi_b o bridge_phi and psi_total = bridge_psi o psi_b, over
    # the levels both legs certify
    ident = LinearMap.identity(2)
    half, half_cb = _scaling(2, 0.5)
    shrink, shrink_cb = _scaling(2, 0.75)
    inner = Factorization(ident, shrink, compression_cb(np.arange(2), 2), shrink_cb, p=2.0)
    tests = {"x": np.eye(2, dtype=complex)}
    fact = compose_factorizations(half, ident, inner, tests, (0.5, 0.25), p=2.0,
                                  bridge_phi_cb=half_cb, bridge_psi_cb=compression_cb(np.arange(2), 2))
    assert fact.phi_cb.kind == fact.psi_cb.kind == "structural"
    assert fact.phi_cb.levels == [(1, 0.5), (2, 0.5)]
    assert fact.psi_cb.levels == [(1, 0.75), (2, 0.75)]
    assert fact.roundtrip_errors["x"] == pytest.approx(0.625, abs=1e-12)


def test_compose_rejects_budget_overrun():
    shrink = LinearMap(2, 2, apply_fn=lambda a: 0.5 * np.asarray(a, dtype=complex))
    ident = LinearMap.identity(2)
    inner = Factorization(phi=ident, psi=shrink,
                          phi_cb=_structural(1.0),
                          psi_cb=_structural(1.0),
                          roundtrip_errors={}, p=2.0)
    tests = {"x": np.eye(2, dtype=complex)}
    with pytest.raises(CertificateError, match="loses"):
        compose_factorizations(ident, ident, inner, tests, (0.01, 0.01), p=2.0,
                               bridge_phi_cb=_structural(1.0), bridge_psi_cb=_structural(1.0))


# ---------------------------------------------------------------------------
# end-to-end witnesses
# ---------------------------------------------------------------------------

def test_witness_on_finite_group_is_exact():
    carrier = cyclic_group(6)
    rng = np.random.default_rng(17)
    f = random_cc_element(rng, carrier, 6)
    fact, report = crossed_nuclearity_witness(
        [f], 0.3, ConcreteAlgebra(6), carrier, cyclic_coordinate_rotation(6, 1), 3.0,
        rng=np.random.default_rng(18))
    assert report["passed"]
    assert report["folner"]["members"] == list(range(6))
    assert all(entry["roundtrip_error"] == 0.0 for entry in report["elements"])
    assert fact.target_dim == 6 * 6


def test_witness_certifies_the_folner_pair_once(monkeypatch):
    # both maps are certified by their form; nothing is sampled
    calls = _count_sampled_cb(monkeypatch)
    zw = ZWindow(0)
    f = CcElement.delta(zw, 1, base_dim=1)
    fact, report = crossed_nuclearity_witness(
        [f], 0.3, ConcreteAlgebra(1), zw, trivial_action(zw, 1), 1.5,
        rng=np.random.default_rng(19))
    assert calls == []
    phi_entry, psi_entry = report["certificates"]
    assert (phi_entry["map"], phi_entry["kind"]) == ("folner_phi", "structural")
    assert phi_entry["levels"] == [[1, 1.0], [2, 1.0]]
    assert (psi_entry["map"], psi_entry["kind"]) == ("folner_psi", "structural")
    assert psi_entry["levels"] == [[1, 1.0], [2, 1.0]]
    assert (fact.phi_cb.kind, fact.psi_cb.kind) == ("structural", "structural")
    assert fact.roundtrip_errors["f0"] == report["elements"][0]["roundtrip_error"]
    assert report["passed"]


def test_witness_builds_phi_once_and_counts_each_overlap_once(monkeypatch):
    # phi's selector is built and validated once, by the map itself, and
    # |F cap sF| is counted once per support shift, however many elements
    # share it: supports {0, 1} and {1, -2} have three shifts
    selectors = _count_calls(monkeypatch, CovariantRep, "block_selector")
    overlaps = _count_calls(monkeypatch, nuclearity, "folner_intersection")
    zw = ZWindow(0)
    fs = [CcElement(zw, {0: np.array([[0.5]]), 1: np.array([[0.3j]])}),
          CcElement(zw, {1: np.array([[0.2]]), -2: np.array([[0.4]])})]
    fact, report = crossed_nuclearity_witness(fs, 0.3, ConcreteAlgebra(1), zw, trivial_action(zw, 1), 1.5)
    assert report["passed"]
    assert (len(selectors), len(overlaps)) == (1, 3)
    assert fact.phi.codomain_dim == len(report["folner"]["members"])


def _count_estimates(monkeypatch) -> list:
    """Replace pnorm_estimate and pnorm_estimate_stack by counters in every
    loaded lpalg module that binds them; the list gets one entry per
    estimated matrix."""
    calls = []
    for name in ("pnorm_estimate", "pnorm_estimate_stack"):
        real = getattr(lpnorm, name)

        def counting(a, *args, real=real, name=name, **kwargs):
            out = real(a, *args, **kwargs)
            calls.extend([name] * (len(out) if isinstance(out, list) else 1))
            return out

        for mod_name, mod in sorted(sys.modules.items()):
            if mod_name.startswith("lpalg") and getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counting)
    return calls


def _count_calls(monkeypatch, owner, name) -> list:
    """Replace owner.name by a counter and return the list it appends to."""
    calls = []
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    return calls


def test_two_term_scalar_z_witness_runs_no_dual_power_iteration(monkeypatch):
    # its forms are monomial or nonnegative up to phases, so the closed form
    # and the positive iteration answer every estimate
    kernel = _count_calls(monkeypatch, lpnorm, "_power_iteration")
    zw = ZWindow(0)
    f = CcElement(zw, {0: np.array([[0.6j]]), -1: np.array([[0.4 * np.exp(0.3j)]])})
    _, report = crossed_nuclearity_witness([f], 0.29, ConcreteAlgebra(1), zw, trivial_action(zw, 1), 1.5)
    assert report["passed"]
    assert kernel == []


def test_rotation_demo_estimates_only_the_reduced_norms(monkeypatch):
    # on F = G every defect is zero and every ratio is 1: nothing else to
    # estimate; u and z are single terms, estimated on their 12 x 12
    # coefficients, so no form is built at all
    calls = _count_estimates(monkeypatch)
    searches = _count_calls(monkeypatch, nuclearity, "folner_search")
    reps = _count_calls(monkeypatch, nuclearity, "CovariantRep")
    forms = _count_calls(monkeypatch, CovariantRep, "integrated")
    report = rotation_demo(12, 5, 1.5, 0.3)
    assert report["passed"]
    assert calls == ["pnorm_estimate"] * 2
    assert (len(searches), len(reps), len(forms)) == (1, 1, 0)


def test_z_witness_estimates_each_form_once(monkeypatch):
    # one Folner search and one window: one reduced norm per element and
    # nothing else, since the defect of the delta_1 term is |1 - r| times its
    # reduced norm and the defect of a delta_0 is zero.  Each coefficient's
    # upper bound serves both M and the budget
    zw = ZWindow(0)
    one = CcElement.delta(zw, 1, np.array([[0.8j]]))
    for fs in ([one], [one, CcElement.delta(zw, 0, np.array([[0.5]]))]):
        calls = _count_estimates(monkeypatch)
        searches = _count_calls(monkeypatch, nuclearity, "folner_search")
        reps = _count_calls(monkeypatch, nuclearity, "CovariantRep")
        uppers = _count_calls(monkeypatch, nuclearity, "pnorm_upper")
        _, report = crossed_nuclearity_witness(fs, 0.3, ConcreteAlgebra(1), zw, trivial_action(zw, 1), 1.5)
        assert report["passed"]
        assert (len(searches), len(reps)) == (1, 1)
        assert len(calls) == len(fs)
        assert len(uppers) == sum(len(f.support) for f in fs)
        monkeypatch.undo()
    assert report["elements"][1]["roundtrip_error"] == report["elements"][1]["bound"] == 0.0


@pytest.mark.parametrize("eps, size", [(0.3, 21), (0.1, 61), (0.03, 201), (0.01, 601)])
def test_z_witness_budget_covers_the_measured_error(eps, size):
    # the budget is a proved upper bound rounded outward, and the measured
    # error a lower bound, so the error never exceeds the budget; M is 1 up
    # to that rounding, so at eps = 0.1 and 0.01, where 2/|F| = eps/3 exactly
    # for |F| = 60 and 600, F takes one more point
    zw = ZWindow(0)
    _, report = crossed_nuclearity_witness(
        [CcElement.delta(zw, 1, base_dim=1)], eps, ConcreteAlgebra(1), zw, trivial_action(zw, 1), 1.5)
    (elem,) = report["elements"]
    assert len(report["folner"]["members"]) == size
    assert elem["reduced_norm"] <= elem["norm_upper"]
    assert elem["roundtrip_error"] <= elem["bound"] < eps
    assert report["passed"]


def test_witness_refuses_roundtrip_over_budget(monkeypatch):
    # a budget at or above eps fails the report, even when the measured
    # error, a lower bound, is below eps; the report shows both
    zw = ZWindow(0)
    f = CcElement.delta(zw, 1, base_dim=1)
    for budget in (0.3, 0.3 + 5e-10, 0.31):
        monkeypatch.setattr(nuclearity, "_roundtrip", lambda *args, budget=budget: {"error": 0.29, "bound": budget})
        fact, report = crossed_nuclearity_witness(
            [f], 0.3, ConcreteAlgebra(1), zw, trivial_action(zw, 1), 1.5, rng=np.random.default_rng(20))
        assert report["passed"] is False
        assert (report["elements"][0]["roundtrip_error"], report["elements"][0]["bound"]) == (0.29, budget)
        assert fact.roundtrip_errors == {"f0": 0.29}


def test_witness_sizes_folner_set_on_reported_norms():
    # M is the reported norm_upper, 0.6 + 0.4 rounded outward, which bounds
    # the reduced norm on every window (0.99938 on the final one); |F| = 20
    # would give 2/|F| = 0.1 > eps/(3M) = 0.0995
    zw = ZWindow(0)
    f = CcElement(zw, {0: np.array([[0.6]]), 1: np.array([[0.4]])})
    eps = 0.2984
    _, report = crossed_nuclearity_witness(
        [f], eps, ConcreteAlgebra(1), zw, trivial_action(zw, 1), 1.5,
        rng=np.random.default_rng(21))
    (elem,) = report["elements"]
    size = len(report["folner"]["members"])
    assert report["passed"]
    assert elem["reduced_norm"] <= elem["norm_upper"] == pytest.approx(1.0, rel=1e-14)
    assert size == 21
    for m_bound in (elem["reduced_norm"], elem["norm_upper"]):
        assert all(2 * abs(int(s)) / size < eps / (3.0 * m_bound) for s in report["folner"]["ratios"])


def test_witness_scales_exactly_with_its_elements_and_epsilon():
    # F depends on eps / M alone, so no floor on M may break the scaling
    # (one at 1e-9 gave 2^-40 delta_1 21,991 members); an all-zero element
    # has M = 0, and any F (here {0}) keeps its budget 0.0 below epsilon
    zw = ZWindow(0)

    def witness(k):
        c = 2.0**k
        fs = [CcElement(zw, {1: [[c]]}), CcElement(zw, {0: [[0.6 * c]], 1: [[0.4 * c]]})]
        return crossed_nuclearity_witness(fs, 0.3 * c, ConcreteAlgebra(1), zw, trivial_action(zw, 1), 1.5)[1]

    base = witness(0)
    assert len(base["folner"]["members"]) == 21
    for k in (-60, -40, -20, 0, 20, 60, 1022, 1023):
        report = witness(k)
        assert report["folner"] == base["folner"] and report["passed"]
        for elem, ref in zip(report["elements"], base["elements"]):
            for key in ("roundtrip_error", "bound", "reduced_norm", "norm_upper"):
                assert elem[key] == ref[key] * 2.0**k, (k, key)
    zero = CcElement(zw, {}, base_dim=1)
    _, report = crossed_nuclearity_witness([zero], 0.3, ConcreteAlgebra(1), zw, trivial_action(zw, 1), 1.5)
    assert report["folner"]["members"] == [0] and report["passed"]
    assert report["elements"][0]["norm_upper"] == report["elements"][0]["bound"] == 0.0


def test_witness_whose_budget_underflows_passes_on_a_finite_group():
    # epsilon / (3 M) rounds to 0.0, which folner_search used to refuse; on
    # Z/3 F = G, so every ratio is 1 and the budget is exactly 0.0 < epsilon
    z3 = cyclic_group(3)
    f = CcElement(z3, {1: [[1e300]]})
    _, report = crossed_nuclearity_witness([f], 1e-300, ConcreteAlgebra(1), z3, trivial_action(z3, 1), 1.5)
    assert report["passed"] and report["folner"]["members"] == [0, 1, 2]
    assert report["elements"][0]["roundtrip_error"] == report["elements"][0]["bound"] == 0.0


@pytest.mark.parametrize("c", [1e300, 1e10])
def test_witness_whose_budget_no_window_meets_names_epsilon_and_m(c):
    # at 1e300 epsilon / (3 M) underflowed to 0.0 and folner_search refused
    # "delta must be positive, got 0.0"; at 1e10 it is subnormal, and the
    # search's start 2 / delta overflowed to an OverflowError
    zw = ZWindow(0)
    f = CcElement(zw, {1: [[c]]})
    m = nuclearity.sum_upper([lpnorm.pnorm_upper(np.array([[c]]), 1.5)])
    with pytest.raises(CapacityError, match=re.escape(f"epsilon / (3 M) at epsilon 1e-300 and M {m!r}: no interval")):
        crossed_nuclearity_witness([f], 1e-300, ConcreteAlgebra(1), zw, trivial_action(zw, 1), 1.5)


def test_witness_input_validation():
    carrier = cyclic_group(4)
    with pytest.raises(ValueError):
        crossed_nuclearity_witness([], 0.3, ConcreteAlgebra(4), carrier,
                                   cyclic_coordinate_rotation(4, 1), 2.0)
    f = CcElement.delta(carrier, 0, np.eye(4, dtype=complex))
    with pytest.raises(ValueError):
        crossed_nuclearity_witness([f], -1.0, ConcreteAlgebra(4), carrier,
                                   cyclic_coordinate_rotation(4, 1), 2.0)


@pytest.mark.parametrize("eps", [math.nan, 0.0, True, "0.1"])
def test_witness_refuses_a_nan_epsilon_like_a_nonpositive_one(eps):
    # unchecked, a NaN epsilon gives a report with "epsilon": "nan" on Z/4
    # and fails converting NaN to an integer on Z; True passed as epsilon
    # 1.0, and "0.1" failed with a bare TypeError; all are refused up front
    z4, zw = cyclic_group(4), ZWindow(0)
    cases = [(CcElement.delta(z4, 1, np.eye(4, dtype=complex)), cyclic_coordinate_rotation(4, 1)),
             (CcElement.delta(zw, 1, base_dim=1), trivial_action(zw, 1))]
    for f, action in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(f'epsilon must be positive, got {eps!r}')}$"):
            crossed_nuclearity_witness([f], eps, ConcreteAlgebra(f.base_dim), f.carrier, action, 1.5)
    with pytest.raises(ValueError, match=f"^{re.escape(f'epsilon must be positive, got {eps!r}')}$"):
        rotation_demo(5, 2, 1.5, eps)


Z0, Z4, Z6 = ZWindow(0), cyclic_group(4), cyclic_group(6)


@pytest.mark.parametrize("fs, dim, carrier, action, named", [
    # each passed once: delta_1 over Z/6 on Z with error 1/21, the others exactly
    ([CcElement.delta(Z6, 1, base_dim=1)], 1, Z0, trivial_action(Z0, 1), ("CyclicGroup(order=6)", "ZWindow")),
    ([CcElement.delta(Z4, 3, base_dim=1)], 1, Z6, trivial_action(Z6, 1), ("order=4", "order=6")),
    ([CcElement.delta(Z0, 1, base_dim=3)], 2, Z0, trivial_action(Z0, 2), ("3 x 3", "2 x 2")),
    ([CcElement.delta(Z0, 1, base_dim=1), CcElement.delta(Z6, 1, base_dim=1)], 1, Z0, trivial_action(Z0, 1),
     ("f1", "CyclicGroup(order=6)", "ZWindow")),
    ([CcElement.delta(Z6, 1, base_dim=1)], 1, Z6, trivial_action(Z4, 1), ("order=6", "order=4")),
], ids=["element-off-the-carrier", "z4-element-on-z6", "coefficient-off-the-action", "two-groups-in-one-call",
        "carrier-off-the-action"])
def test_witness_refuses_elements_carrier_and_action_off_one_group(fs, dim, carrier, action, named):
    with pytest.raises(ValueError) as exc:
        crossed_nuclearity_witness(fs, 0.3, ConcreteAlgebra(dim), carrier, action, 1.5)
    assert all(name in str(exc.value) for name in named), exc.value


def test_rotation_demo_rejects_non_coprime_angle():
    with pytest.raises(ValueError):
        rotation_demo(12, 4, 2.0, 0.3)


@pytest.mark.parametrize("n, k, name", [
    (5.0, 2, "rotation grid size n"),  # used to raise a TypeError that named nothing
    (5, 2.0, "rotation step k"),  # likewise
    (True, 1, "rotation grid size n"),  # used to report "need a grid of at least two points"
])
def test_rotation_demo_takes_integer_arguments(n, k, name):
    bound = " >= 2" if name == "rotation grid size n" else ""
    with pytest.raises(ValueError, match=f"^{name} must be an integer{bound}, got "):
        rotation_demo(n, k, 1.5, 0.3)
