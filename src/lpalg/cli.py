"""Command-line front end.

Each subcommand reads JSON inputs, runs the corresponding operation and
emits a JSON report (canonical byte-for-byte form) or a fixed-column CSV
projection.  A subcommand takes exactly the options its operation reads:
``pnorm``, ``cbnorm``, ``crossed`` and ``suite`` draw random numbers, all
derived from ``--seed``; ``folner``, ``witness`` and ``rotation`` draw none
and take no ``--seed``.  Every command but ``folner`` and ``suite`` takes the
exponent ``--p``.  Exit codes: 0 on success, 1 when a certificate or
acceptance check fails, 2 on input errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from pathlib import Path

import numpy as np

from .crossed import ConcreteAlgebra, CovariantRep, conditional_expectation, trivial_action
from .errors import CapacityError, CertificateError, DimensionGuardError, UnsupportedExponentError
from .groups import ZWindow, cyclic_group, folner_ratio, folner_search, group_from_descriptor
from .lpnorm import pnorm_estimate, pnorm_upper
from .nuclearity import crossed_nuclearity_witness, rotation_demo, sum_upper
from .opspace import cb_norm_lower, compression
from .serialize import (
    action_from_obj,
    canonical_json,
    cc_element_from_obj,
    linear_map_from_obj,
    load_json,
    matrix_from_obj,
)
from .suite import run_suite

__all__ = ["main"]


def _parse_p(text: str) -> float:
    """The ``--p`` type: a number, or inf (also infinity or oo)."""
    lowered = text.strip().lower()
    if lowered in ("inf", "infinity", "oo"):
        return float("inf")
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"exponent must be a number or inf, got {text!r}") from None


def _parse_group(text: str):
    """cyclic:N, z:RADIUS (or plain z), or a path to a group JSON file."""
    kind, colon, arg = text.strip().lower().partition(":")
    if kind == "cyclic" and colon:
        return cyclic_group(int(arg))
    if kind == "z":
        return ZWindow(int(arg) if colon else 0)
    return group_from_descriptor(load_json(text))


def _parse_action(text: str | None, carrier, dim: int):
    """trivial, rotation:N:K, or a path to an action descriptor file."""
    if text is None or text.strip().lower() == "trivial":
        return trivial_action(carrier, dim)
    lowered = text.strip().lower()
    if lowered.startswith("rotation:"):
        _, n, k = lowered.split(":")
        return action_from_obj({"type": "rotation", "n": int(n), "k": int(k)})
    return action_from_obj(load_json(text), carrier)


def _csv_text(header: list, rows: list) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def _emit(args, payload: dict, header: list, rows: list) -> None:
    json_text = canonical_json(payload)
    csv_text = _csv_text(header, rows)
    chosen = json_text if args.format == "json" else csv_text
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{args.command}.json").write_text(json_text, encoding="utf-8")
        (out_dir / f"{args.command}.csv").write_text(csv_text, encoding="utf-8")
        print(f"wrote {args.command}.json and {args.command}.csv to {out_dir}")
    else:
        sys.stdout.write(chosen)


# ---------------------------------------------------------------------------
# Subcommand handlers; each returns the exit code
# ---------------------------------------------------------------------------


# the pnorm CSV's columns: [value, upper] brackets the norm; its help names them too
PNORM_CSV_HEADER = ("value", "converged", "restarts", "upper")


def _cmd_pnorm(args) -> int:
    a = matrix_from_obj(load_json(args.matrix))
    est = pnorm_estimate(a, args.p, restarts=args.restarts, rng=np.random.default_rng(args.seed))
    payload = {
        "command": "pnorm",
        "p": args.p,
        "shape": list(a.shape),
        "value": est.value,
        "upper": pnorm_upper(a, args.p),
        "converged": est.converged,
        "restarts": est.restarts_used,
        "method": est.method,
    }
    _emit(args, payload, list(PNORM_CSV_HEADER), [[payload[key] for key in PNORM_CSV_HEADER]])
    return 0


def _cmd_cbnorm(args) -> int:
    phi = linear_map_from_obj(load_json(args.map))
    cb = cb_norm_lower(
        phi,
        args.p,
        n_max=args.n_max,
        trials=args.trials,
        rng=np.random.default_rng(args.seed),
    )
    payload = {
        "command": "cbnorm",
        "p": args.p,
        "domain_dim": phi.domain_dim,
        "codomain_dim": phi.codomain_dim,
        "levels": [[n, v] for n, v in cb.levels],
        "best": cb.best,
    }
    _emit(args, payload, ["level", "bound"], [[n, v] for n, v in cb.levels])
    return 0


def _cmd_folner(args) -> int:
    carrier = _parse_group(args.group)
    shifts = [int(s) for s in args.shifts.split(",") if s.strip() != ""]
    fset = folner_search(carrier, shifts, args.delta)
    ratios = {str(s): folner_ratio(fset, s) for s in shifts}
    payload = {
        "command": "folner",
        "group": carrier.descriptor(),
        "delta": args.delta,
        "members": [int(t) for t in fset.members],
        "size": fset.size,
        "ratios": ratios,
    }
    _emit(args, payload, ["shift", "ratio"], [[s, ratios[str(s)]] for s in shifts])
    return 0


# the crossed CSV's columns: [reduced_norm, norm_upper] brackets the norm; its help names them too
CROSSED_CSV_HEADER = ("reduced_norm", "converged", "expectation_compress_dev", "norm_upper")


def _cmd_crossed(args) -> int:
    f = cc_element_from_obj(load_json(args.elements))
    action = _parse_action(args.action, f.carrier, f.base_dim)
    radius = max((abs(s) for s in f.support), default=0) + 2  # a finite carrier ignores it
    rep = CovariantRep(ConcreteAlgebra(f.base_dim), action, args.p, window_radius=radius)
    form = rep.integrated(f)  # assembled once; the norm and the check read it
    est = pnorm_estimate(form, rep.p, restarts=args.restarts, rng=np.random.default_rng(args.seed))
    # compress_identity_check's deviation (its padding only adds zeros):
    # the identity block against f(e)
    e_block = compression(rep.block_selector([rep.identity_position]), rep.dimension).apply(form)
    e_dev = float(np.abs(conditional_expectation(f) - e_block).max())
    payload = {
        "command": "crossed",
        "group": f.carrier.descriptor(),
        "p": args.p,
        "support": [int(s) for s in f.support],
        "reduced_norm": est.value,
        "norm_upper": sum_upper(pnorm_upper(a, rep.p) for _, a in f.items()),  # as the witness reports it
        "converged": est.converged,
        "expectation_compress_dev": e_dev,
    }
    if f.carrier.order is None:  # the window truncates an infinite group
        payload["window_radius"] = int(rep.window_radius)
    _emit(args, payload, list(CROSSED_CSV_HEADER), [[payload[key] for key in CROSSED_CSV_HEADER]])
    if e_dev > 1e-12:
        print("conditional-expectation compression identity failed", file=sys.stderr)
        return 1
    return 0


# the witness CSV's columns, one row per element; its help names them too
WITNESS_CSV_HEADER = ("id", "reduced_norm", "norm_upper", "roundtrip_error", "bound")


def _cmd_witness(args) -> int:
    f = cc_element_from_obj(load_json(args.elements))
    action = _parse_action(args.action, f.carrier, f.base_dim)
    fact, report = crossed_nuclearity_witness(
        [f],
        args.epsilon,
        ConcreteAlgebra(f.base_dim),
        f.carrier,
        action,
        args.p,
    )
    payload = {"command": "witness", **report}
    rows = [[e[key] for key in WITNESS_CSV_HEADER] for e in report["elements"]]
    _emit(args, payload, list(WITNESS_CSV_HEADER), rows)
    return 0 if report["passed"] else 1


def _cmd_rotation(args) -> int:
    report = rotation_demo(args.n, args.k, args.p, args.epsilon)
    payload = {"command": "rotation", **report}
    _emit(
        args,
        payload,
        ["p", "theta_model", "commutation_dev", "passed"],
        [[report["p"], report["model"]["theta_model"], report["commutation_dev"], report["passed"]]],
    )
    return 0 if report["passed"] else 1


def _cmd_suite(args) -> int:
    numbers = None
    if args.criteria:
        numbers = [int(c) for c in args.criteria.split(",") if c.strip() != ""]
    report = run_suite(seed=args.seed, numbers=numbers)
    for item in report["criteria"]:
        mark = "PASS" if item["passed"] else "FAIL"
        print(f"criterion {item['criterion']:2d} [{mark}] {item['label']}")
    print(f"suite: {'PASS' if report['passed'] else 'FAIL'}")
    payload = {"command": "suite", **report}
    rows = [[item["criterion"], item["label"], item["passed"]] for item in report["criteria"]]
    _emit(args, payload, ["criterion", "label", "passed"], rows)
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpalg",
        description=(
            "Finite-matrix laboratory for operator norms on l^p, crossed products, "
            "and approximation factorizations. JSON is the canonical output; CSV is "
            "a fixed-column projection (columns listed per command below)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def exponent(cmd, default=2.0):
        cmd.add_argument("--p", type=_parse_p, default=default, help="exponent in [1, inf]; 'inf' allowed")

    def seed(cmd):
        cmd.add_argument("--seed", type=int, default=0, help="seed for all randomness")

    def common(cmd):
        cmd.add_argument("--out", default=None, help="directory for JSON and CSV artifacts")
        cmd.add_argument("--format", choices=("json", "csv"), default="json",
                         help="stdout format when --out is not given")

    def element_inputs(cmd):
        cmd.add_argument("--elements", required=True, help="element JSON file {group, coeffs}")
        cmd.add_argument("--action", default=None, help="trivial (default), rotation:N:K, or action descriptor file")

    c = sub.add_parser("pnorm", help=f"operator p-norm of a matrix (CSV: {','.join(PNORM_CSV_HEADER)})")
    c.add_argument("--matrix", required=True, help="matrix JSON file {rows,cols,entries}")
    c.add_argument("--restarts", type=int, default=32)
    exponent(c)
    seed(c)
    common(c)
    c.set_defaults(handler=_cmd_pnorm)

    c = sub.add_parser("cbnorm", help="sampled p-cb lower bound of a linear map (CSV: level,bound)")
    c.add_argument("--map", required=True,
                   help="coefficient-matrix JSON file, shape (codomain^2) x (domain^2)")
    c.add_argument("--n-max", type=int, default=3, dest="n_max", help="largest amplification level")
    c.add_argument("--trials", type=int, default=8)
    exponent(c)
    seed(c)
    common(c)
    c.set_defaults(handler=_cmd_cbnorm)

    c = sub.add_parser("folner", help="search an approximately invariant set (CSV: shift,ratio)")
    c.add_argument("--group", required=True, help="cyclic:N, z[:RADIUS], or group JSON file")
    c.add_argument("--shifts", required=True, help="comma-separated group elements")
    c.add_argument("--delta", type=float, required=True, help="target translate ratio")
    common(c)
    c.set_defaults(handler=_cmd_folner)

    c = sub.add_parser("crossed", help=f"reduced norm and expectation checks (CSV: {','.join(CROSSED_CSV_HEADER)})")
    element_inputs(c)
    c.add_argument("--restarts", type=int, default=32)
    exponent(c)
    seed(c)
    common(c)
    c.set_defaults(handler=_cmd_crossed)

    c = sub.add_parser("witness", help=f"end-to-end nuclearity witness (CSV: {','.join(WITNESS_CSV_HEADER)}); "
                                       "its certificates hold at every amplification level and list levels 1 and 2")
    element_inputs(c)
    c.add_argument("--epsilon", type=float, required=True, help="round-trip error budget")
    exponent(c, 1.5)
    common(c)
    c.set_defaults(handler=_cmd_witness)

    c = sub.add_parser("rotation", help="rotation-algebra model report (CSV: p,theta_model,"
                                        "commutation_dev,passed)")
    c.add_argument("--n", type=int, required=True, help="grid points on the circle")
    c.add_argument("--k", type=int, required=True, help="rotation steps per generator")
    c.add_argument("--epsilon", type=float, default=0.3)
    exponent(c, 1.5)
    common(c)
    c.set_defaults(handler=_cmd_rotation)

    c = sub.add_parser("suite", help="run the acceptance battery (CSV: criterion,label,passed)")
    c.add_argument("--criteria", default=None, help="comma-separated subset, e.g. 1,7,9")
    seed(c)
    common(c)
    c.set_defaults(handler=_cmd_suite)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except CertificateError as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError, TypeError,
            UnsupportedExponentError, DimensionGuardError, CapacityError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
