"""Tests for finite-stage factorizations through matrix algebras."""

import math
import sys

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
from lpalg.errors import CertificateError
from lpalg.groups import FolnerSet, ZWindow, cyclic_group, folner_intersection
from lpalg.nuclearity import (
    Factorization,
    compose_factorizations,
    corner_embed,
    corner_project,
    corner_restrict,
    crossed_nuclearity_witness,
    folner_phi,
    folner_phi_map,
    folner_psi,
    folner_psi_map,
    folner_roundtrip,
    identity_factorization,
    lift_factorization,
    measure_roundtrip,
    rotation_demo,
    truncate_map,
    truncate_stable,
)
from lpalg.opspace import CbEstimate, LinearMap, cb_norm_lower, compression_cb, monomial_cb

CB_SLACK = 1e-6
LIGHT = {"trials": 4, "ascent_steps": 2, "restarts": 6, "max_iters": 60}
EST = {"restarts": 8, "max_iters": 80}


def _rotation_rep(n, p):
    return CovariantRep(ConcreteAlgebra(n), cyclic_coordinate_rotation(n, 1), p)


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
    rt = folner_roundtrip(f, folner, rep, **EST)
    assert rt["error"] == 0.0
    assert rt["bound"] == 0.0


def test_half_window_roundtrip_matches_ratio_bound():
    # F = {0..5} in Z/12 and a single-shift element: the defect is exactly
    # the boundary ratio 1/6 of the Folner set, and the bound is attained.
    rep = _rotation_rep(12, 1.5)
    folner = FolnerSet(cyclic_group(12), tuple(range(6)))
    f = CcElement.delta(cyclic_group(12), 1, np.eye(12, dtype=complex))
    rt = folner_roundtrip(f, folner, rep, **EST)
    assert rt["error"] == pytest.approx(1 / 6, abs=1e-12)
    assert rt["error"] == pytest.approx(rt["bound"], abs=1e-12)


def test_integer_window_roundtrip_values():
    rep = CovariantRep(ConcreteAlgebra(1), trivial_action(ZWindow(25), 1), 1.5)
    f = CcElement.delta(ZWindow(25), 1, np.eye(1, dtype=complex))
    rt21 = folner_roundtrip(f, FolnerSet(ZWindow(25), tuple(range(-10, 11))), rep, **EST)
    assert rt21["error"] == pytest.approx(1 / 21, abs=1e-12)
    g = CcElement.delta(ZWindow(25), 2, np.eye(1, dtype=complex))
    rt41 = folner_roundtrip(g, FolnerSet(ZWindow(25), tuple(range(-20, 21))), rep, **EST)
    assert rt41["error"] == pytest.approx(2 / 41, abs=1e-12)


def _reference_roundtrip(f, folner, rep):
    """The round trip with every operator estimated on the window: the
    defect, and each term pi(a_s) v(s) of the budget, whatever its ratio."""
    big = rep.integrated(f)
    sel = nuclearity._folner_selector(folner, rep)
    error = lpnorm.pnorm_estimate(folner_psi(big[np.ix_(sel, sel)], folner, rep) - big, rep.p).value
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


@pytest.mark.parametrize("case", range(4))
def test_roundtrip_with_the_witness_form_matches_estimating_every_term(case):
    # the witness hands folner_roundtrip each form: the error is the defect's
    # estimate bit for bit, and the budget is the d x d upper-bound formula,
    # at least the sum of every term's window estimate and the error
    _, f, folner, rep = _roundtrip_cases()[case]
    expected = _reference_roundtrip(f, folner, rep)
    rt = folner_roundtrip(f, folner, rep, form=rep.integrated(f))
    assert folner_roundtrip(f, folner, rep) == rt
    assert rt["error"] == expected["error"]
    assert rt["bound"] == _upper_budget(f, folner, rep.p)
    assert rt["bound"] >= expected["bound"]
    assert rt["bound"] >= rt["error"]


@pytest.mark.parametrize("case, forms_built", [(2, 0), (3, 1)])
def test_roundtrip_assembles_psi_only_when_its_coefficients_differ_from_f(monkeypatch, case, forms_built):
    # on F = G psi collects f's own coefficients, so the defect is zero
    # without assembling psi's integrated form; on F = {0..5} that form is
    # the only one built, since the budget needs no window
    _, f, folner, rep = _roundtrip_cases()[case]
    form = rep.integrated(f)
    expected = _reference_roundtrip(f, folner, rep)
    forms = []
    integrated = CovariantRep.integrated
    monkeypatch.setattr(CovariantRep, "integrated", lambda self, g: forms.append(g) or integrated(self, g))
    rt = folner_roundtrip(f, folner, rep, form=form)
    assert rt["error"] == expected["error"]
    assert len(forms) == forms_built
    assert (expected["error"] == 0.0) == (forms_built == 0)


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
    assert phi.best <= 1.0 + nuclearity._CB_TOL


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

def test_identity_factorization_is_exact():
    fact = identity_factorization(3, 2.0, n_max=2)
    assert fact.target_dim == 3
    assert fact.worst_error == 0.0
    assert fact.phi_cb.kind == fact.psi_cb.kind == "structural"
    assert fact.phi_cb.levels == fact.psi_cb.levels == [(1, 1.0), (2, 1.0)]


def _structural(level):
    return CbEstimate(levels=[(1, level)], kind="structural")


def _scaling(dim, c):
    """x -> c x on M_dim with its structural certificate (R = c I, S = I)."""
    idx = np.arange(dim)
    cb = monomial_cb((idx, idx, np.full(dim, c)), (idx, idx, np.ones(dim)), 2.0, 2)
    return LinearMap(dim, dim, apply_fn=lambda a: c * np.asarray(a, dtype=complex)), cb


def test_factorization_rejects_expansive_certificates():
    ident = LinearMap.identity(2)
    bad = _structural(1.01)
    good = _structural(1.0)
    with pytest.raises(CertificateError):
        Factorization(phi=ident, psi=ident, target_dim=2, phi_cb=bad, psi_cb=good)


def test_factorization_refuses_a_sampled_certificate_at_one():
    # a sampled level is a lower bound: at exactly 1.0 it still proves nothing
    ident = LinearMap.identity(2)
    sampled = CbEstimate(levels=[(1, 1.0)], kind="sampled_lower")
    for phi_cb, psi_cb in ((sampled, _structural(1.0)), (_structural(1.0), sampled)):
        with pytest.raises(CertificateError, match="sampled_lower"):
            Factorization(phi=ident, psi=ident, target_dim=2, phi_cb=phi_cb, psi_cb=psi_cb)


def test_factorization_refuses_a_certificate_with_no_levels():
    # a structural certificate with no levels bounds nothing
    ident = LinearMap.identity(2)
    empty = CbEstimate(levels=[], kind="structural")
    for phi_cb, psi_cb in ((empty, _structural(1.0)), (_structural(1.0), empty)):
        with pytest.raises(CertificateError):
            Factorization(phi=ident, psi=ident, target_dim=2, phi_cb=phi_cb, psi_cb=psi_cb)
    doubling = ((np.arange(2), np.arange(2), np.full(2, 2.0)), (np.arange(2), np.arange(2), np.ones(2)))
    for n_max in (0, -1):
        with pytest.raises(ValueError, match="at least one level"):
            monomial_cb(*doubling, 2.0, n_max)
        with pytest.raises(ValueError, match="at least one level"):
            identity_factorization(2, 2.0, n_max=n_max)


def test_measure_roundtrip_reports_per_element_errors():
    shrink = LinearMap(2, 2, apply_fn=lambda a: 0.75 * np.asarray(a, dtype=complex))
    ident = LinearMap.identity(2)
    elements = {"x": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)}
    errors = measure_roundtrip(ident, shrink, elements, 2.0)
    assert errors["x"] == pytest.approx(0.25, abs=1e-10)


def test_lift_scales_errors_by_block_count():
    base = identity_factorization(2, 2.0)
    shrink = LinearMap(2, 2, apply_fn=lambda a: (1 - 1e-3) * np.asarray(a, dtype=complex))
    lossy = Factorization(phi=base.phi, psi=shrink, target_dim=2,
                          phi_cb=base.phi_cb, psi_cb=base.psi_cb,
                          roundtrip_errors={}, p=2.0)
    gen = np.random.default_rng(6)
    for n in (1, 2, 3):
        grid = gen.standard_normal((n, n, 2, 2)) + 1j * gen.standard_normal((n, n, 2, 2))
        entry_errs = [
            measure_roundtrip(lossy.phi, lossy.psi, {"e": grid[i, j]}, 2.0)["e"]
            for i in range(n) for j in range(n)
        ]
        lifted = lift_factorization(lossy, n, entries={"e": grid},
                                    rng=np.random.default_rng(6))
        assert lifted.target_dim == 2 * n
        assert lifted.roundtrip_errors["e"] <= n * n * max(entry_errs) + 1e-12


def test_corner_embed_project_are_mutually_inverse():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    iota = corner_embed(5, 2)
    rho = corner_project(5, 2)
    big = iota(a)
    assert big.shape == (10, 10)
    assert np.array_equal(big[:2, :2], a)
    assert np.all(big[2:, :] == 0.0) and np.all(big[:, 2:] == 0.0)
    assert np.array_equal(rho(big), a)


def test_corner_restrict_of_exact_parent_is_exact():
    parent = identity_factorization(4, 1.5, n_max=2)
    rng = np.random.default_rng(9)
    tests = {f"a{i}": rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
             for i in range(3)}
    fact = corner_restrict(parent, 2, test_elements=tests)
    assert fact.worst_error == 0.0
    assert (fact.phi_cb, fact.psi_cb) == (parent.phi_cb, parent.psi_cb)


def _count_sampled_cb(monkeypatch) -> list:
    """Replace cb_norm_lower by a counter in every loaded lpalg module that
    binds it (``from .opspace import cb_norm_lower`` makes copies) and
    return the list the counter appends the sampled map names to."""
    calls = []
    sampled = opspace.cb_norm_lower

    def counting(*args, **kwargs):
        calls.append(args[0].name)
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
    parent = identity_factorization(6, 3.0, n_max=3)
    shrink, shrink_cb = _scaling(6, 0.5)
    lossy = Factorization(parent.phi, shrink, 6, parent.phi_cb, shrink_cb, p=3.0)
    fact = corner_restrict(lossy, 3, rng=np.random.default_rng(10))
    assert calls == []
    assert fact.psi_cb is shrink_cb and fact.phi_cb is parent.phi_cb
    assert sorted(fact.roundtrip_errors) == ["a0", "a1"]
    assert all(err > 0.0 for err in fact.roundtrip_errors.values())


def test_truncate_keeps_leading_blocks():
    t = np.arange(36, dtype=float).reshape(6, 6)
    out = truncate_stable(t, 2, block_dim=2)
    assert out.shape == (6, 6)
    assert np.array_equal(out[:4, :4], t[:4, :4])
    assert np.all(out[4:, :] == 0.0) and np.all(out[:, 4:] == 0.0)
    with pytest.raises(ValueError):
        truncate_stable(t, 0, block_dim=2)
    with pytest.raises(ValueError):
        truncate_stable(t, 4, block_dim=2)


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
    inner = identity_factorization(2, 2.0, n_max=2)
    ident = LinearMap.identity(2)
    tests = {"x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)}
    fact = compose_factorizations(ident, ident, inner, tests, (0.1, 0.0), p=2.0,
                                  bridge_phi_cb=inner.phi_cb, bridge_psi_cb=inner.psi_cb)
    assert fact.worst_error == 0.0
    assert fact.phi_cb.kind == fact.psi_cb.kind == "structural"


def test_compose_rejects_expansive_bridge():
    inner = identity_factorization(2, 2.0, n_max=2)
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
    inner = identity_factorization(2, 2.0)
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
    inner = Factorization(ident, shrink, 2, compression_cb(np.arange(2), 2, 3), shrink_cb, p=2.0)
    tests = {"x": np.eye(2, dtype=complex)}
    fact = compose_factorizations(half, ident, inner, tests, (0.5, 0.25), p=2.0,
                                  bridge_phi_cb=half_cb, bridge_psi_cb=compression_cb(np.arange(2), 2, 2))
    assert fact.phi_cb.kind == fact.psi_cb.kind == "structural"
    assert fact.phi_cb.levels == [(1, 0.5), (2, 0.5)]
    assert fact.psi_cb.levels == [(1, 0.75), (2, 0.75)]
    assert fact.roundtrip_errors["x"] == pytest.approx(0.625, abs=1e-12)


def test_compose_rejects_budget_overrun():
    shrink = LinearMap(2, 2, apply_fn=lambda a: 0.5 * np.asarray(a, dtype=complex))
    ident = LinearMap.identity(2)
    inner = Factorization(phi=ident, psi=shrink, target_dim=2,
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
        rng=np.random.default_rng(18), n_max=2)
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
    assert (fact.phi.name, fact.psi.name) == ("folner_phi", "folner_psi")
    assert fact.roundtrip_errors["f0"] == report["elements"][0]["roundtrip_error"]
    assert report["passed"]


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


def test_rotation_demo_estimates_only_the_reduced_norms(monkeypatch):
    # on F = G every defect is zero and every ratio is 1: nothing else to
    # estimate, and the commutation check builds no form of its own
    calls = _count_estimates(monkeypatch)
    searches = _count_calls(monkeypatch, nuclearity, "folner_search")
    reps = _count_calls(monkeypatch, nuclearity, "CovariantRep")
    forms = _count_calls(monkeypatch, CovariantRep, "integrated")
    report = rotation_demo(12, 5, 1.5, 0.3)
    assert report["passed"]
    assert calls == ["pnorm_estimate"] * 2
    assert (len(searches), len(reps), len(forms)) == (1, 1, 2)


def test_z_witness_estimates_each_form_once(monkeypatch):
    # one Folner search and one window: one reduced norm per element and the
    # defect of the delta_1 term; the defect of a delta_0 is zero
    zw = ZWindow(0)
    one = CcElement.delta(zw, 1, np.array([[0.8j]]))
    for fs in ([one], [one, CcElement.delta(zw, 0, np.array([[0.5]]))]):
        calls = _count_estimates(monkeypatch)
        searches = _count_calls(monkeypatch, nuclearity, "folner_search")
        reps = _count_calls(monkeypatch, nuclearity, "CovariantRep")
        _, report = crossed_nuclearity_witness(fs, 0.3, ConcreteAlgebra(1), zw, trivial_action(zw, 1), 1.5)
        assert report["passed"]
        assert (len(searches), len(reps)) == (1, 1)
        assert len(calls) == len(fs) + 1
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
        monkeypatch.setattr(nuclearity, "folner_roundtrip",
                            lambda *args, budget=budget, **kw: {"error": 0.29, "bound": budget})
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


def test_witness_input_validation():
    carrier = cyclic_group(4)
    with pytest.raises(ValueError):
        crossed_nuclearity_witness([], 0.3, ConcreteAlgebra(4), carrier,
                                   cyclic_coordinate_rotation(4, 1), 2.0)
    f = CcElement.delta(carrier, 0, np.eye(4, dtype=complex))
    with pytest.raises(ValueError):
        crossed_nuclearity_witness([f], -1.0, ConcreteAlgebra(4), carrier,
                                   cyclic_coordinate_rotation(4, 1), 2.0)


def test_rotation_demo_rejects_non_coprime_angle():
    with pytest.raises(ValueError):
        rotation_demo(12, 4, 2.0, 0.3)
