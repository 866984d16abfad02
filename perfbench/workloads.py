"""The benchmark's workloads: seeded inputs, one round of operations, checks.

Every workload has three parts:

* ``make_inputs(seed)`` draws plain numpy data from the seed (no lpalg);
* ``build(lp, inputs)`` turns it into lpalg objects and returns the round,
  a list of :class:`Op`; this runs inside the timed set-up;
* ``warm_up(lp, inputs)`` calls every layer the workload uses once, on tiny
  inputs that do not depend on the seed, also inside the set-up.

An operation's ``call`` returns the report dict that the runner serializes
with ``canonical_json`` inside the timed region, plus whatever its check
needs.  ``check`` compares against values computed here in plain numpy or
against properties the method must have, and returns a list of problems
(empty when the claim holds).  Operations look lpalg functions up through
the module objects at call time, so the tracer's wrappers are seen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

CB_TOL = 1e-6  # certificate tolerance of lpalg.nuclearity
NORM_RTOL = 1e-9
WITNESS_RTOL = 1e-12


@dataclass
class Op:
    label: str
    call: Callable[[], tuple]
    check: Callable[[dict, object], list]
    known_fault: str = ""  # names the program fault this operation exposes


def pnorm(x, p) -> float:
    """l^p norm of a vector, scaled against overflow and underflow."""
    mags = np.abs(np.asarray(x).ravel())
    top = mags.max()
    if top == 0.0:
        return 0.0
    if math.isinf(p):
        return float(top)
    return float(top * ((mags / top) ** p).sum() ** (1.0 / p))


def conjugate(p: float) -> float:
    return p / (p - 1.0)


def complex_gaussian(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def unit_phases(rng, n: int) -> np.ndarray:
    return np.exp(2j * np.pi * rng.random(n))


def phased_permutation(rng, d: int) -> np.ndarray:
    """A random permutation matrix with random unimodular entries."""
    out = np.zeros((d, d), dtype=complex)
    out[rng.permutation(d), np.arange(d)] = unit_phases(rng, d)
    return out


def rank_one(rng, d: int, p: float, norm: float):
    """u v^H with ||u||_p ||v||_q = norm, the exact p-norm of the product."""
    u = complex_gaussian(rng, d)
    v = complex_gaussian(rng, d)
    u = u / pnorm(u, p)
    v = v / pnorm(v, conjugate(p))
    return norm * np.outer(u, v.conj())


def level_problems(certificates, where: str) -> list:
    return [
        f"{where} {c['map']} level {n}: {v!r} > 1 + {CB_TOL}"
        for c in certificates
        for n, v in c["levels"]
        if v > 1.0 + CB_TOL
    ]


# ---------------------------------------------------------------------------
# witness_line: crossed_nuclearity_witness on Z
# ---------------------------------------------------------------------------

# Each operation witnesses several elements at one exponent.  ``terms`` are
# (shift, kind, p-norm); the largest norm is exactly 1.0 and each epsilon
# puts 6 max|s| M / eps at 20.7, so |F| = 21 for every seed.  Four
# operations per round make the median the mean of two of them.
LINE_OPS = (
    {
        "label": "line d=1 trivial p=1.5",
        "dim": 1, "action": "trivial", "p": 1.5, "eps": 0.29,
        "elements": (
            ((1, "scalar", 1.0),),
            ((0, "scalar", 0.6), (-1, "scalar", 0.4)),
        ),
    },
    {
        "label": "line d=2 phased p=3",
        "dim": 2, "action": "phased", "p": 3.0, "eps": 0.58,
        "elements": (
            ((1, "rank_one", 1.0),),
            ((-2, "phased", 0.45),),
            ((0, "phased", 0.6), (2, "phased", 0.4)),
        ),
    },
    {
        "label": "line d=2 trivial p=1.5",
        "dim": 2, "action": "trivial", "p": 1.5, "eps": 0.29,
        "elements": (
            ((-1, "rank_one", 1.0),),
            ((0, "rank_one", 0.7), (1, "phased", 0.3)),
        ),
    },
    {
        "label": "line d=1 phased p=3",
        "dim": 1, "action": "phased", "p": 3.0, "eps": 0.58,
        "elements": (
            ((2, "scalar", 1.0),),
            ((-1, "scalar", 0.5), (1, "scalar", 0.5)),
        ),
    },
)


def _line_inputs(seed: int) -> list:
    rng = np.random.default_rng([101, seed])
    ops = []
    for spec in LINE_OPS:
        d, p = spec["dim"], spec["p"]
        elements = []
        for terms in spec["elements"]:
            coeffs = {}
            for s, kind, norm in terms:
                if kind == "scalar":
                    coeffs[s] = np.array([[norm * unit_phases(rng, 1)[0]]])
                elif kind == "rank_one":
                    coeffs[s] = rank_one(rng, d, p, norm)
                else:
                    coeffs[s] = norm * phased_permutation(rng, d)
            elements.append((coeffs, {s: norm for s, _, norm in terms}))
        generator = phased_permutation(rng, d) if spec["action"] == "phased" else None
        ops.append({**spec, "coeffs": elements, "generator": generator})
    return ops


def _line_check(spec, report, _extra) -> list:
    problems = []
    eps = spec["eps"]
    if not report["passed"]:
        problems.append("witness did not pass")
    problems += level_problems(report["certificates"], "certificate")
    members = report["folner"]["members"]
    size = len(members)
    if members != list(range(members[0], members[0] + size)):
        problems.append(f"Folner set is not an interval: {members}")
    m_bound = max(e["reduced_norm"] for e in report["elements"])
    for s in report["folner"]["ratios"]:
        if not 2 * abs(int(s)) / size < eps / (3.0 * m_bound):
            problems.append(f"shift {s}: 2|s|/|F| = {2 * abs(int(s)) / size!r} >= eps/(3M)")
    for elem, (_, norms) in zip(report["elements"], spec["coeffs"]):
        err = elem["roundtrip_error"]
        if not err < eps:
            problems.append(f"{elem['id']}: error {err!r} >= eps {eps}")
        budget = sum(abs(s) / size * norm for s, norm in norms.items())
        if len(norms) == 1:
            (norm,) = norms.values()
            if abs(elem["reduced_norm"] - norm) > NORM_RTOL * norm:
                problems.append(f"{elem['id']}: reduced norm {elem['reduced_norm']!r} != {norm!r}")
            if abs(err - budget) > NORM_RTOL * budget:
                problems.append(f"{elem['id']}: error {err!r} != |s|/|F| ||a||_p = {budget!r}")
        elif err > budget * (1.0 + NORM_RTOL):
            problems.append(f"{elem['id']}: error {err!r} > budget {budget!r}")
    return problems


def _line_build(lp, inputs) -> list:
    carrier = lp.groups.ZWindow(0)
    ops = []
    for index, spec in enumerate(inputs):
        d = spec["dim"]
        if spec["generator"] is None:
            action = lp.crossed.trivial_action(carrier, d)
        else:
            action = lp.crossed.IsometricAction(carrier, generator=spec["generator"])
        elements = [lp.crossed.CcElement(carrier, coeffs, base_dim=d) for coeffs, _ in spec["coeffs"]]
        algebra = lp.crossed.ConcreteAlgebra(d)

        def call(spec=spec, elements=elements, algebra=algebra, action=action, index=index):
            # the certificates' rng is fixed per operation, not drawn from the
            # seed: it sets how many estimates the sampled certificates make,
            # and drawn from the seed it moved a witness's time by up to 12%
            _, report = lp.nuclearity.crossed_nuclearity_witness(
                elements, spec["eps"], algebra, carrier, action, spec["p"],
                rng=np.random.default_rng([102, index]),
            )
            return report, None

        ops.append(Op(spec["label"], call, lambda r, x, spec=spec: _line_check(spec, r, x)))
    return ops


def _folner_warm_up(lp, carrier, action, dim: int, shifts: list):
    """One pass through the layers of a witness on a tiny fixed instance:
    reduced norm, Folner search, both Folner maps under a level-1
    certificate, and serialization."""
    folner = lp.groups.folner_search(carrier, shifts, 0.5)
    radius = max(abs(s) for s in shifts) + folner.size
    rep = lp.crossed.CovariantRep(
        lp.crossed.ConcreteAlgebra(dim), action, 1.5,
        window_radius=radius if isinstance(carrier, lp.groups.ZWindow) else None,
    )
    f = lp.crossed.CcElement(carrier, {s: np.eye(dim) for s in shifts})
    light = {"restarts": 1, "max_iters": 10}
    norm = lp.crossed.reduced_norm(f, rep, **light).value
    levels = [
        lp.opspace.cb_norm_lower(make(folner, rep), 1.5, n_max=1, trials=0, ascent_steps=0,
                                 rng=0, **light).levels
        for make in (lp.nuclearity.folner_phi_map, lp.nuclearity.folner_psi_map)
    ]
    lp.serialize.canonical_json({"norm": norm, "levels": levels})


def _line_warm_up(lp, _inputs):
    carrier = lp.groups.ZWindow(0)
    _folner_warm_up(lp, carrier, lp.crossed.trivial_action(carrier, 2), 2, [0, 1])


# ---------------------------------------------------------------------------
# rotation_grid: rotation_demo at coprime (n, k)
# ---------------------------------------------------------------------------

ROTATION_OPS = ((5, 1.5), (8, 3.0), (11, 1.5), (12, 3.0))  # (n, p); the seed picks k


def _rotation_inputs(seed: int) -> list:
    rng = np.random.default_rng([202, seed])
    out = []
    for n, p in ROTATION_OPS:
        coprime = [k for k in range(1, n) if math.gcd(k, n) == 1]
        out.append({"n": n, "k": int(rng.choice(coprime)), "p": p, "eps": 0.3})
    return out


def _rotation_reference(n: int, k: int) -> float:
    """max |u z - e^{2 pi i k/n} z u| on integrated forms built here.

    On l^p(Z/n) (x) C^n, u = I delta_1 is the position shift t -> t+1, and
    z = diag(w^j) delta_0 has block alpha_{-t}(z) = diag(w^(j - t k)) at
    position t, with w = e^{2 pi i/n}.
    """
    w = np.exp(2j * np.pi / n)
    shift = np.roll(np.eye(n), 1, axis=0)
    u = np.kron(shift, np.eye(n))
    j = np.arange(n)
    z = np.diag(np.concatenate([w ** ((j - t * k) % n) for t in range(n)]))
    return float(np.abs(u @ z - np.exp(2j * np.pi * k / n) * (z @ u)).max())


def _tent_error_and_bound(n: int, n_arcs: int) -> tuple:
    """Exact reconstruction error of z by tents of spacing n/n_arcs, and the
    oscillation bound max_{|j| <= spacing} |w^j - 1|."""
    spacing = n // n_arcs
    w = np.exp(2j * np.pi / n)
    j = np.arange(spacing + 1)
    recon = (1.0 - j / spacing) + (j / spacing) * w**spacing
    error = float(np.abs(w**j - recon).max())
    bound = float(np.abs(w**j - 1.0).max())
    return error, bound


def _rotation_check(spec, report, _extra) -> list:
    problems = []
    n, k = spec["n"], spec["k"]
    if not report["passed"]:
        problems.append("rotation model did not pass")
    dev = _rotation_reference(n, k)
    if dev > 1e-12 or report["commutation_dev"] > 1e-12:
        problems.append(f"commutation deviation {dev!r} / reported {report['commutation_dev']!r}")
    for elem in report["witness"]["elements"]:
        if elem["roundtrip_error"] != 0.0:
            problems.append(f"{elem['id']}: error {elem['roundtrip_error']!r} on F = G")
    problems += level_problems(report["witness"]["certificates"], "witness certificate")
    part = report["partition"]
    problems += level_problems(
        [{"map": "point_eval", "levels": part["point_eval_levels"]},
         {"map": "blend", "levels": part["blend_levels"]}],
        "partition certificate",
    )
    for level, value in part["blend_levels"]:
        if abs(value - 1.0) > CB_TOL:
            problems.append(f"blend level {level}: {value!r} not within {CB_TOL} of 1")
    if n % part["n_arcs"]:
        problems.append(f"{part['n_arcs']} arcs do not divide {n} points")
        return problems
    error, bound = _tent_error_and_bound(n, part["n_arcs"])
    if abs(part["oscillation_bound"] - bound) > 1e-12:
        problems.append(f"oscillation bound {part['oscillation_bound']!r} != {bound!r}")
    if abs(part["roundtrip_error"] - error) > 1e-12 or part["roundtrip_error"] > bound + 1e-12:
        problems.append(f"partition error {part['roundtrip_error']!r}: expected {error!r} <= {bound!r}")
    return problems


def _rotation_build(lp, inputs) -> list:
    ops = []
    for index, spec in enumerate(inputs):
        def call(spec=spec, index=index):
            # the rng is fixed per operation for the reason given in _line_build
            report = lp.nuclearity.rotation_demo(
                spec["n"], spec["k"], spec["p"], spec["eps"],
                rng=np.random.default_rng([203, index]),
            )
            return report, None

        label = f"rotation n={spec['n']} p={spec['p']}"
        ops.append(Op(label, call, lambda r, x, spec=spec: _rotation_check(spec, r, x)))
    return ops


def _rotation_warm_up(lp, _inputs):
    action = lp.crossed.cyclic_coordinate_rotation(3, 1)
    _folner_warm_up(lp, action.carrier, action, 3, [0, 1])
    lp.partition.cx_phi_cb_certificate(lp.partition.circle_partition(6, 3), 1.5, n_max=1, trials=1)


# ---------------------------------------------------------------------------
# norm_stream: independent pnorm_estimate calls
# ---------------------------------------------------------------------------

# (dimensions, Gaussian matrices per (dimension, p)): many small matrices,
# where the median operation lies, and fewer large ones, which set the tail;
# enough of each that iteration counts, which vary from matrix to matrix,
# average out over a round.
STREAM_CLASSES = (((4, 6, 8, 12, 16, 24, 32), 64), ((48, 64, 96, 144), 6))
STREAM_PS = (1.2, 1.5, 3.0, 4.0)
KNOWN_RANK_ONE = ((8, 1.5), (40, 3.0), (144, 1.2))  # (dim, p)
KNOWN_PHASED = ((12, 4.0), (64, 1.5))
# Scale pairs use inputs fixed apart from the seed: a 40 x 40 matrix A and
# the copy 1e-12 A.  The copies fail scale covariance on every run because
# the stagnation test at lpnorm.py:329 becomes absolute when ||A|| < 1.
SCALE_PAIRS = ((40, 1.5), (40, 3.0))
SCALE = 1e-12
SCALE_FAULT = "lpnorm.py:329 absolute stagnation tolerance"


def _stream_inputs(seed: int) -> list:
    rng = np.random.default_rng([303, seed])
    items = []
    for dims, copies in STREAM_CLASSES:
        for d in dims:
            for p in np.repeat(STREAM_PS, copies):
                items.append({"kind": "gaussian", "a": complex_gaussian(rng, (d, d)), "p": float(p)})
    for d, p in KNOWN_RANK_ONE:
        known = 1.0 + rng.random()
        items.append({"kind": "rank_one", "a": rank_one(rng, d, p, known), "p": p, "known": known})
    for d, p in KNOWN_PHASED:
        c = (0.5 + rng.random()) * unit_phases(rng, 1)[0]
        items.append({"kind": "phased", "a": c * phased_permutation(rng, d), "p": p,
                      "known": abs(c)})
    items = [items[i] for i in rng.permutation(len(items))]
    fixed = np.random.default_rng(404)
    for d, p in SCALE_PAIRS:
        a = complex_gaussian(fixed, (d, d))
        items.append({"kind": "twin", "a": a, "p": p})
        items.append({"kind": "scaled", "a": SCALE * a, "p": p, "twin": len(items) - 1})
    return items


def _stream_check(item, report, est, twins) -> list:
    problems = []
    a, p = item["a"], item["p"]
    value = est.value
    w = est.witness
    if abs(pnorm(w, p) - 1.0) > WITNESS_RTOL:
        problems.append(f"witness has l^p norm {pnorm(w, p)!r}")
    image = pnorm(a @ w, p)
    if abs(image - value) > WITNESS_RTOL * max(value, image):
        problems.append(f"||A w||_p = {image!r} but value {value!r}")
    mags = np.abs(a)
    riesz = mags.sum(axis=0).max() ** (1.0 / p) * mags.sum(axis=1).max() ** (1.0 - 1.0 / p)
    if value > riesz * (1.0 + WITNESS_RTOL):
        problems.append(f"value {value!r} above the Riesz-Thorin bound {riesz!r}")
    if item["kind"] in ("rank_one", "phased"):
        known = item["known"]
        if abs(value - known) > NORM_RTOL * known:
            problems.append(f"value {value!r} != known norm {known!r}")
    if item["kind"] == "scaled":
        ref = twins[item["twin"]]
        if abs(value / SCALE - ref) > NORM_RTOL * ref:
            problems.append(f"estimate(cA)/|c| = {value / SCALE!r} != estimate(A) = {ref!r}")
    return problems


def _stream_build(lp, inputs) -> list:
    twins: dict = {}
    ops = []
    for index, item in enumerate(inputs):
        a = lp.lpnorm.validate_matrix(item["a"])

        def call(a=a, item=item):
            est = lp.lpnorm.pnorm_estimate(a, item["p"])
            report = {
                "command": "pnorm",
                "p": item["p"],
                "shape": list(a.shape),
                "value": est.value,
                "converged": est.converged,
                "restarts": est.restarts_used,
                "method": est.method,
            }
            return report, est

        def check(report, est, item=item, index=index):
            if item["kind"] == "twin":
                twins[index] = est.value
            return _stream_check(item, report, est, twins)

        label = f"{item['kind']} {a.shape[0]} p={item['p']}"
        ops.append(Op(label, call, check, SCALE_FAULT if item["kind"] == "scaled" else ""))
    return ops


def _stream_warm_up(lp, _inputs):
    rng = np.random.default_rng(505)  # not the run's seed: set-up work is the same in every run
    lp.lpnorm.pnorm_estimate(complex_gaussian(rng, (144, 144)), 1.5, restarts=4)


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable
    build: Callable
    warm_up: Callable


WORKLOADS = {
    "witness_line": Workload(_line_inputs, _line_build, _line_warm_up),
    "rotation_grid": Workload(_rotation_inputs, _rotation_build, _rotation_warm_up),
    "norm_stream": Workload(_stream_inputs, _stream_build, _stream_warm_up),
}
