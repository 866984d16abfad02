"""The acceptance battery: thirteen numbered checks, one callable each.

Every check draws its randomness from a child generator derived from the
battery seed and its own number, so single checks can run in isolation and
repeated runs are reproducible bit for bit.  ``run_suite`` executes a
selection and assembles a JSON-ready report; the command-line ``suite``
command and the test suite both call into this module so there is exactly
one definition of what passing means.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from .crossed import (
    CcElement,
    ConcreteAlgebra,
    CovariantRep,
    IsometricAction,
    compress_identity_check,
    cyclic_coordinate_rotation,
    expectation_cb_certificate,
    random_cc_element,
    trivial_action,
    twisted_convolve,
)
from .groups import (
    FolnerSet,
    ZWindow,
    cyclic_group,
    folner_intersection,
    folner_ratio,
    folner_search,
    group_from_table,
    translate_set,
)
from .lpnorm import adjoint, as_exponent, pnorm_estimate, pnorm_exact, pnorm_oracle
from .nuclearity import (
    Factorization,
    corner_restrict,
    crossed_nuclearity_witness,
    folner_phi_map,
    folner_psi_map,
    lift_factorization,
    measure_roundtrip,
    rotation_demo,
    truncate_map,
)
from .opspace import LinearMap, cb_norm_lower, compression, compression_cb, embedding, weighted_sum_cb
from .partition import (
    circle_function,
    circle_partition,
    cx_phi_cb_certificate,
    cx_psi_cb_certificate,
    partition_roundtrip,
)
from .serialize import canonical_json

__all__ = ["CRITERIA", "run_criterion", "run_suite"]

_CERT_OPTS = {"trials": 4, "ascent_steps": 2, "restarts": 6, "max_iters": 60}


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(tag)])


def _random_matrix(gen: np.random.Generator, n: int) -> np.ndarray:
    return gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))


# ---------------------------------------------------------------------------
# 1-2: norm estimation against the oracle and duality
# ---------------------------------------------------------------------------


def _norm_corpus(gen: np.random.Generator, count: int = 200):
    for _ in range(count):
        yield _random_matrix(gen, int(gen.integers(2, 5)))


def criterion_1(seed: int):
    """Estimates and closed formulas agree with the independent oracle."""
    gen = _rng(seed, 1)
    exponents = [1.0, 1.5, 2.0, 3.0, float("inf")]
    worst_est = 0.0
    worst_exact = 0.0
    for a in _norm_corpus(gen):
        for p in exponents:
            ref = pnorm_oracle(a, p, rng=_rng(seed, 101))
            est = pnorm_estimate(a, p).value
            worst_est = max(worst_est, abs(est - ref) / ref)
            if p in (1.0, 2.0, float("inf")):
                worst_exact = max(worst_exact, abs(pnorm_exact(a, p) - ref) / ref)
    passed = worst_est <= 1e-5 and worst_exact <= 1e-6
    return passed, {
        "matrices": 200,
        "exponents": exponents,
        "max_rel_dev_estimate": worst_est,
        "max_rel_dev_exact": worst_exact,
    }


def criterion_2(seed: int):
    """||A||_p equals ||A*||_q within estimator tolerance."""
    gen = _rng(seed, 2)
    worst = 0.0
    for a in _norm_corpus(gen):
        for p in (1.0, 1.5, 2.0, 3.0, float("inf")):
            pe = as_exponent(p)
            lhs = pnorm_estimate(a, pe).value
            rhs = pnorm_estimate(adjoint(a), pe.q).value
            worst = max(worst, abs(lhs - rhs) / max(1.0, lhs))
    return worst <= 1e-5, {"matrices": 200, "max_scaled_dev": worst}


# ---------------------------------------------------------------------------
# 3-5: group representation identities
# ---------------------------------------------------------------------------


def _table_test_groups():
    klein = group_from_table([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
    perms = sorted(permutations(range(3)))
    index = {pi: i for i, pi in enumerate(perms)}
    mult = [
        [index[tuple(pi[pj[x]] for x in range(3))] for pj in perms]
        for pi in perms
    ]
    sym3 = group_from_table(mult)
    return [klein, sym3]


def criterion_3(seed: int):
    """Translation adjoints: lambda_p(s)* = lambda_q(s^{-1}) exactly.

    lambda(s) is ``CovariantRep.translation(s)``, the matrix v(s) is built
    from; it does not depend on the exponent.
    """
    checked = 0
    ok = True
    for g in [*(cyclic_group(n) for n in range(1, 13)), *_table_test_groups()]:
        rep = CovariantRep(ConcreteAlgebra(1), trivial_action(g, 1), 2.0)
        for s in g.elements():
            ok = ok and np.array_equal(adjoint(rep.translation(s)), rep.translation(g.inv(s)))
            checked += 1
    return ok, {"elements_checked": checked}


def _phased_actions(n: int):
    """Exact phased-permutation actions of Z/n on M_n (real and complex)."""
    actions = [cyclic_coordinate_rotation(n, 1)]
    shift = np.zeros((n, n), dtype=complex)
    shift[(np.arange(n) - 1) % n, np.arange(n)] = 1.0
    if n % 4 == 0:
        gen_mat = 1j * shift  # (i S)^n = I exactly since i, -1, -i are exact
    else:
        gen_mat = -shift if n % 2 == 0 else shift
    mats = [np.linalg.matrix_power(gen_mat, s) for s in range(n)]
    actions.append(IsometricAction(cyclic_group(n), unitaries=mats))
    return actions


def criterion_4(seed: int):
    """Covariance v(t) pi(a) v(t)^{-1} = pi(alpha_t(a)) and multiplicativity."""
    gen = _rng(seed, 4)
    worst_cov = 0.0
    worst_mult = 0.0
    count = 0
    reps = []
    for n in (4, 6):
        for action in _phased_actions(n):
            reps.append(CovariantRep(ConcreteAlgebra(n), action, 2.0))
    while count < 100:
        rep = reps[count % len(reps)]
        n = rep.base_dim
        a = _random_matrix(gen, n)
        t = int(gen.integers(rep.carrier.order))
        vt = rep.v(t)
        lhs = vt @ rep.pi(a) @ vt.conj().T
        worst_cov = max(worst_cov, float(np.abs(lhs - rep.pi(rep.action.apply(t, a))).max()))
        f = random_cc_element(gen, rep.carrier, n, n_terms=2, max_shift=rep.carrier.order - 1)
        g2 = random_cc_element(gen, rep.carrier, n, n_terms=2, max_shift=rep.carrier.order - 1)
        prod = rep.integrated(twisted_convolve(f, g2, rep.action))
        worst_mult = max(
            worst_mult, float(np.abs(prod - rep.integrated(f) @ rep.integrated(g2)).max())
        )
        count += 1
    passed = worst_cov <= 1e-13 and worst_mult <= 1e-11
    return passed, {"instances": count, "max_covariance_dev": worst_cov, "max_mult_dev": worst_mult}


def criterion_5(seed: int):
    """Compression by P_e (x) I recovers exactly the identity coefficient."""
    gen = _rng(seed, 5)
    reps = [
        CovariantRep(ConcreteAlgebra(4), cyclic_coordinate_rotation(4, 1), 1.5),
        CovariantRep(ConcreteAlgebra(6), cyclic_coordinate_rotation(6, 1), 3.0),
        CovariantRep(ConcreteAlgebra(2), trivial_action(ZWindow(5), 2), 2.0),
    ]
    worst = 0.0
    for i in range(100):
        rep = reps[i % len(reps)]
        # a finite carrier draws from the whole group
        f = random_cc_element(gen, rep.carrier, rep.base_dim, n_terms=3, max_shift=3)
        worst = max(worst, compress_identity_check(rep, f)["max_abs_diff"])
    return worst <= 1e-12, {"elements": 100, "max_abs_diff": worst}


# ---------------------------------------------------------------------------
# 6: the contractivity certificate battery
# ---------------------------------------------------------------------------


def criterion_6(seed: int):
    """Every factorization leg certifies contractive (or isometric) to level 3."""
    opts = dict(_CERT_OPTS)
    results = {}

    rep4 = CovariantRep(ConcreteAlgebra(4), cyclic_coordinate_rotation(4, 1), 3.0)
    results["expectation"] = expectation_cb_certificate(
        rep4, n_max=3, rng=_rng(seed, 61), **opts
    ).levels

    rep_f = CovariantRep(ConcreteAlgebra(2), trivial_action(cyclic_group(6), 2), 1.5)
    fol = FolnerSet(rep_f.carrier, (0, 1, 2))
    results["folner_phi"] = cb_norm_lower(
        folner_phi_map(fol, rep_f), rep_f.p, n_max=3, rng=_rng(seed, 62), **opts
    ).levels
    results["folner_psi"] = cb_norm_lower(
        folner_psi_map(fol, rep_f), rep_f.p, n_max=3, rng=_rng(seed, 63), **opts
    ).levels

    results["truncate"] = cb_norm_lower(
        truncate_map(4, 2, 2), 3.0, n_max=3, rng=_rng(seed, 64), **opts
    ).levels
    results["corner_rho"] = cb_norm_lower(
        compression(np.arange(2), 4), 1.5, n_max=3, rng=_rng(seed, 65), **opts
    ).levels

    part = circle_partition(16, 4)
    results["cx_point_eval"] = cx_phi_cb_certificate(
        part, 3.0, n_max=3, trials=4, rng=_rng(seed, 66)
    ).levels

    iso = {
        "cx_partition_psi": cx_psi_cb_certificate(
            part, 1.5, n_max=3, trials=4, rng=_rng(seed, 67)
        ).levels,
        "corner_iota": cb_norm_lower(
            embedding(np.arange(2), 4), 3.0, n_max=3, rng=_rng(seed, 68), **opts
        ).levels,
    }

    contractive_ok = all(v <= 1 + 1e-6 for levels in results.values() for _, v in levels)
    iso_ok = all(1 - 1e-6 <= v <= 1 + 1e-6 for levels in iso.values() for _, v in levels)
    details = {name: [[n, v] for n, v in levels] for name, levels in {**results, **iso}.items()}
    return contractive_ok and iso_ok, details


# ---------------------------------------------------------------------------
# 7-9: Folner arithmetic through the end-to-end witness
# ---------------------------------------------------------------------------


def criterion_7(seed: int):
    """|F cap sF| = (2|F| - |sF (sym diff) F|)/2, and the search meets delta."""
    gen = _rng(seed, 7)
    zw = ZWindow(0)
    ok = True
    for _ in range(500):
        if gen.integers(2):
            g = cyclic_group(int(gen.integers(2, 13)))
            members = gen.choice(g.order, size=int(gen.integers(1, g.order + 1)), replace=False)
            fset = FolnerSet(g, tuple(int(t) for t in members))
            s = int(gen.integers(g.order))
        else:
            members = gen.choice(30, size=int(gen.integers(1, 12)), replace=False) - 15
            fset = FolnerSet(zw, tuple(int(t) for t in members))
            s = int(gen.integers(-5, 6))
        shifted = translate_set(fset, s)
        base = frozenset(fset.members)
        sym = len(base ^ shifted)
        ok = ok and (2 * folner_intersection(fset, s) == 2 * fset.size - sym)
    deltas = [0.3, 0.1, 0.05]
    shifts = [1, -1, 2, -2]
    sizes = {}
    for delta in deltas:
        fset = folner_search(ZWindow(0), shifts, delta)
        sizes[str(delta)] = fset.size
        ok = ok and all(folner_ratio(fset, s) < delta for s in shifts)
    return ok, {"pairs": 500, "search_sizes": sizes}


def criterion_8(seed: int):
    """Single-term round-trip defect equals the intersection-ratio formula,
    measured through the dense phi/psi pipeline, which the witness never
    runs (it reads every defect off the ratios as an element)."""

    def measured(fol, rep, form):
        return measure_roundtrip(folner_phi_map(fol, rep), folner_psi_map(fol, rep), {"f": form}, rep.p)["f"]

    gen = _rng(seed, 8)
    worst = 0.0
    cases = 0
    for p in (1.0, 1.5, 3.0):
        rep = CovariantRep(ConcreteAlgebra(12), cyclic_coordinate_rotation(12, 5), p)
        fol = FolnerSet(rep.carrier, tuple(range(6)))
        for s in (1, 4):
            a = _random_matrix(gen, 12)
            f = CcElement(rep.carrier, {s: a})
            form = rep.integrated(f)
            ratio = folner_intersection(fol, s) / fol.size
            rhs = abs(1.0 - ratio) * pnorm_estimate(form, p).value
            worst = max(worst, abs(measured(fol, rep, form) - rhs))
            cases += 1

        zw = ZWindow(10)
        repz = CovariantRep(ConcreteAlgebra(2), trivial_action(zw, 2), p)
        folz = FolnerSet(zw, tuple(range(7)))
        a = _random_matrix(gen, 2)
        fz = CcElement(zw, {2: a})
        form = repz.integrated(fz)
        ratio = folner_intersection(folz, 2) / folz.size
        rhs = abs(1.0 - ratio) * pnorm_estimate(form, p).value
        worst = max(worst, abs(measured(folz, repz, form) - rhs))
        cases += 1
    return worst <= 1e-8, {"cases": cases, "max_equality_dev": worst}


def criterion_9(seed: int):
    """The end-to-end witness: 1/21 on the line, exactly zero on finite groups."""
    zw = ZWindow(1)
    _, zrep = crossed_nuclearity_witness(
        [CcElement.delta(zw, 1, base_dim=1)],
        0.3,
        ConcreteAlgebra(1),
        zw,
        trivial_action(zw, 1),
        1.5,
    )
    zerr = zrep["elements"][0]["roundtrip_error"]
    z_ok = (
        abs(zerr - 1.0 / 21.0) <= 1e-12
        and zerr < 0.3
        and zrep["passed"]
        and len(zrep["folner"]["members"]) == 21
    )

    act = cyclic_coordinate_rotation(6, 1)
    f6 = random_cc_element(_rng(seed, 92), act.carrier, 6, n_terms=2, max_shift=5)
    _, frep = crossed_nuclearity_witness(
        [f6], 0.25, ConcreteAlgebra(6), act.carrier, act, 2.0
    )
    f_ok = (
        all(e["roundtrip_error"] == 0.0 for e in frep["elements"])
        and frep["passed"]
        and frep["folner"]["members"] == list(act.carrier.elements())
    )
    return z_ok and f_ok, {
        "z_error": zerr,
        "z_folner_size": len(zrep["folner"]["members"]),
        "z_window_radius": zrep["window_radius"],
        "finite_errors": [e["roundtrip_error"] for e in frep["elements"]],
        "finite_folner_size": len(frep["folner"]["members"]),
    }


# ---------------------------------------------------------------------------
# 10-12: commutative model, stability lemmas, rotation demo
# ---------------------------------------------------------------------------


def criterion_10(seed: int):
    """Point-evaluation / blend round trip is bounded by arc oscillation."""
    part = circle_partition(64, 8)
    sums_dev = float(np.abs(part.bumps.sum(axis=0) - 1.0).max())
    results = {}
    ok = sums_dev <= 1e-12
    for name in ("one", "z", "z2", "re_z"):
        rt = partition_roundtrip(part, circle_function(name, 64))
        results[name] = {"error": rt["error"], "bound": rt["bound"]}
        ok = ok and rt["error"] <= rt["bound"] + 1e-12
    return ok, {"partition_sum_dev": sums_dev, "roundtrips": results}


def criterion_11(seed: int):
    """Amplification keeps errors within n^2 bookkeeping; corners only shrink."""
    gen = _rng(seed, 11)
    d = 2
    shrink = 1.0 - 1e-3
    phi = LinearMap.identity(d)
    psi = LinearMap(d, d, apply_fn=lambda x: shrink * np.asarray(x, dtype=complex))
    cb = compression_cb(np.arange(d), d)
    cb2 = weighted_sum_cb([[shrink]])  # x -> shrink x is one fibre of weight shrink
    lift_ok = True
    lift_rows = []
    for n in (1, 2, 3):
        grid = gen.standard_normal((n, n, d, d)) + 1j * gen.standard_normal((n, n, d, d))
        entry_err = 0.0
        for i in range(n):
            for j in range(n):
                e = measure_roundtrip(phi, psi, {"e": grid[i, j]}, 2.0)["e"]
                entry_err = max(entry_err, e)
        parent = Factorization(phi, psi, cb, cb2, roundtrip_errors={}, p=2.0)
        lifted = lift_factorization(parent, n, entries={"g": grid})
        err = lifted.roundtrip_errors["g"]
        lift_rows.append({"n": n, "error": err, "budget": n * n * entry_err})
        lift_ok = lift_ok and err <= n * n * entry_err + 1e-12

    outer, dim = 3, 2
    big = outer * dim
    psi_big = LinearMap(big, big, apply_fn=lambda x: shrink * np.asarray(x, dtype=complex))
    parent_big = Factorization(
        LinearMap.identity(big),
        psi_big,
        compression_cb(np.arange(big), big),
        cb2,
        p=2.0,
    )
    corner_ok = True
    corner_rows = []
    iota = embedding(np.arange(dim), big)
    for t in range(3):
        a = _random_matrix(gen, dim)
        block_err = measure_roundtrip(parent_big.phi, parent_big.psi, {"b": iota.apply(a)}, 2.0)["b"]
        restricted = corner_restrict(parent_big, outer, test_elements={"a": a})
        err = restricted.roundtrip_errors["a"]
        corner_rows.append({"corner_error": err, "block_error": block_err})
        corner_ok = corner_ok and err <= block_err + 1e-9
    return lift_ok and corner_ok, {"lifts": lift_rows, "corners": corner_rows}


def criterion_12(seed: int):
    """Rotation model: exact commutation phase and a zero-defect witness."""
    runs = {}
    ok = True
    for p in (1.5, 3.0):
        demo = rotation_demo(12, 5, p, 0.3)
        errors = [e["roundtrip_error"] for e in demo["witness"]["elements"]]
        ok = ok and demo["commutation_dev"] <= 1e-12
        ok = ok and all(err == 0.0 for err in errors)
        ok = ok and demo["passed"]
        runs[str(p)] = {
            "commutation_dev": demo["commutation_dev"],
            "witness_errors": errors,
            "theta_model": demo["model"]["theta_model"],
        }
    return ok, runs


def criterion_13(seed: int):
    """Reports are a pure function of the seed, byte for byte."""

    def payload() -> str:
        zw = ZWindow(1)
        _, rep = crossed_nuclearity_witness(
            [CcElement.delta(zw, 1, base_dim=1)],
            0.3,
            ConcreteAlgebra(1),
            zw,
            trivial_action(zw, 1),
            1.5,
        )
        a = _random_matrix(_rng(seed, 132), 4)
        est = pnorm_estimate(a, 1.5, rng=_rng(seed, 133))
        cb = cb_norm_lower(
            LinearMap.identity(3), 3.0, n_max=2, rng=_rng(seed, 134), **_CERT_OPTS
        )
        return canonical_json(
            {
                "witness": rep,
                "pnorm": {"value": est.value, "converged": est.converged},
                "cb_levels": [[n, v] for n, v in cb.levels],
            }
        )

    first, second = payload(), payload()
    return first == second, {"bytes": len(first.encode()), "identical": first == second}


CRITERIA = [
    (1, "norm estimates agree with the oracle", criterion_1),
    (2, "p-q duality of operator norms", criterion_2),
    (3, "translation adjoint identity", criterion_3),
    (4, "covariance and integrated multiplicativity", criterion_4),
    (5, "identity-coefficient compression", criterion_5),
    (6, "contractivity certificates to level 3", criterion_6),
    (7, "Folner set arithmetic and search", criterion_7),
    (8, "single-term round-trip equality", criterion_8),
    (9, "end-to-end nuclearity witness", criterion_9),
    (10, "commutative partition round trip", criterion_10),
    (11, "amplification and corner stability", criterion_11),
    (12, "rotation algebra model", criterion_12),
    (13, "byte-identical reports per seed", criterion_13),
]


def run_criterion(number: int, seed: int = 0) -> dict:
    for num, label, fn in CRITERIA:
        if num == number:
            passed, details = fn(seed)
            return {"criterion": num, "label": label, "passed": bool(passed), "details": details}
    raise ValueError(f"no acceptance criterion numbered {number}")


def run_suite(seed: int = 0, numbers=None) -> dict:
    """Run the selected criteria (all by default) and collect one report."""
    selected = sorted(set(numbers)) if numbers is not None else [num for num, _, _ in CRITERIA]
    results = [run_criterion(num, seed) for num in selected]
    return {
        "seed": int(seed),
        "criteria": results,
        "passed": bool(all(r["passed"] for r in results)),
    }
