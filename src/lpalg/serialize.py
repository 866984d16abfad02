"""JSON interchange for matrices, group elements, actions, and reports.

Complex matrices travel as ``{"rows": r, "cols": c, "entries": [[re, im],
...]}`` with the entries in row-major order; finitely supported elements as
``{"group": <descriptor>, "coeffs": [{"s": ..., "matrix": ...}]}`` sorted by
group element.  Floats are written with ``repr``'s shortest round-trip form
(at most 17 significant digits), so a dump/load cycle reproduces every value
bit for bit.

``canonical_json`` renders any report deterministically: keys sorted,
fixed separators, NumPy scalars unwrapped, and non-finite numbers spelled
out as the strings "inf"/"-inf"/"nan" so the output stays strict JSON.  Two
runs producing equal reports therefore produce identical bytes.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .crossed import CcElement, IsometricAction, cyclic_coordinate_rotation, trivial_action
from .groups import as_integer, group_from_descriptor
from .opspace import LinearMap

__all__ = [
    "action_from_obj",
    "canonical_json",
    "cc_element_from_obj",
    "cc_element_to_obj",
    "linear_map_from_obj",
    "load_json",
    "matrix_from_obj",
    "matrix_to_obj",
]


def _jsonable(obj):
    """Recursively convert to plain JSON types with deterministic floats."""
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            if not isinstance(key, str):
                key = str(key)
            out[key] = _jsonable(value)
        return out
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if math.isnan(f):
            return "nan"
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    if isinstance(obj, (complex, np.complexfloating)):
        return [_jsonable(float(obj.real)), _jsonable(float(obj.imag))]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def canonical_json(obj) -> str:
    """Deterministic JSON text for a report (sorted keys, exact floats)."""
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Matrices and linear maps
# ---------------------------------------------------------------------------


def matrix_to_obj(a) -> dict:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError("only two-dimensional matrices are serialized")
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "entries": [[float(z.real), float(z.imag)] for z in a.reshape(-1)],
    }


def matrix_from_obj(obj) -> np.ndarray:
    try:
        rows, cols = as_integer(obj["rows"], "rows"), as_integer(obj["cols"], "cols")
        entries = obj["entries"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix object: missing {exc}") from exc
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be positive")
    if len(entries) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
    flat = np.empty(rows * cols, dtype=complex)
    for i, pair in enumerate(entries):
        if len(pair) != 2:
            raise ValueError(f"entry {i} is not a [re, im] pair")
        flat[i] = complex(float(pair[0]), float(pair[1]))
    if not np.all(np.isfinite(flat.view(float))):
        raise ValueError("matrix entries must be finite")
    return flat.reshape(rows, cols)


def linear_map_from_obj(obj) -> LinearMap:
    """A map from its coefficient matrix over row-major matrix units, as
    ``matrix_to_obj(phi.matrix)`` writes it."""
    m = matrix_from_obj(obj)
    c = math.isqrt(m.shape[0])
    d = math.isqrt(m.shape[1])
    if c * c != m.shape[0] or d * d != m.shape[1]:
        raise ValueError(
            "a linear-map file needs a (codomain^2) x (domain^2) coefficient matrix; "
            f"got shape {m.shape}"
        )
    return LinearMap(d, c, apply_fn=lambda a: (m @ a.reshape(-1)).reshape(c, c))


# ---------------------------------------------------------------------------
# Group elements and actions
# ---------------------------------------------------------------------------


def cc_element_to_obj(f: CcElement) -> dict:
    return {
        "group": f.carrier.descriptor(),
        "coeffs": [{"s": int(s), "matrix": matrix_to_obj(mat)} for s, mat in f.items()],
    }


def cc_element_from_obj(obj) -> CcElement:
    try:
        carrier = group_from_descriptor(obj["group"])
        raw = obj["coeffs"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed element object: missing {exc}") from exc
    coeffs = {}
    for item in raw:
        s = as_integer(item["s"], "s")
        if s in coeffs:
            raise ValueError(f"duplicate coefficient for group element {s}")
        coeffs[s] = matrix_from_obj(item["matrix"])
    if not coeffs:
        raise ValueError("an element file needs at least one coefficient")
    return CcElement(carrier, coeffs)  # checks that the coefficients are square and of one size


def action_from_obj(obj, carrier=None) -> IsometricAction:
    """Rebuild an action; ``carrier`` is required unless the descriptor
    carries its own group (rotations do)."""
    kind = obj.get("type") if isinstance(obj, dict) else None
    if kind == "rotation":
        return cyclic_coordinate_rotation(as_integer(obj["n"], "n"), as_integer(obj["k"], "k"))
    if kind not in ("trivial", "implementers", "z_generator"):
        raise ValueError(f"unknown action descriptor type {kind!r}")
    if carrier is None:
        raise ValueError(f"a {kind} action descriptor needs the group it acts for")
    if kind == "trivial":
        return trivial_action(carrier, as_integer(obj["dim"], "dim"))
    if kind == "implementers":
        return IsometricAction(carrier, unitaries=[matrix_from_obj(m) for m in obj["matrices"]])
    return IsometricAction(carrier, generator=matrix_from_obj(obj["matrix"]))
