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

It writes the text in one recursive pass, dispatching on each value's exact
type and appending pieces to one list: floats by ``float.__repr__``, ints by
``int.__repr__``, strings and keys by json's ``encode_basestring_ascii``,
dict keys through ``str`` (a later key that reads the same replaces an
earlier one) and sorted, with a two-space indent and ``{}``/``[]`` for
empty containers.  These are the bytes ``json.dumps(..., sort_keys=True,
indent=2)`` writes, without its pure-Python encoder (``indent`` turns its
C encoder off).  NumPy scalars and arrays, complex numbers and subclasses
of the JSON types are converted first, on a slower path.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _quote

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

_INF = float("inf")


def _plain(obj):
    """A value that is not of an exact JSON type, as one: numpy scalars are
    unwrapped, an array becomes its nested list, a complex number its
    [re, im] pair, and a subclass of a JSON type becomes that type."""
    if isinstance(obj, dict):
        return dict(obj)
    if isinstance(obj, (list, tuple)):
        return list(obj)
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, str):
        return str.__str__(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def _write(obj, out: list, newline: str) -> None:
    """Append the JSON text of obj to out; newline starts its lines."""
    kind = type(obj)
    if kind is float:
        if -_INF < obj < _INF:
            out.append(float.__repr__(obj))
        else:  # strict JSON has no literal for these
            out.append('"nan"' if obj != obj else '"inf"' if obj > 0 else '"-inf"')
    elif kind is str:
        out.append(_quote(obj))
    elif kind is int:
        out.append(int.__repr__(obj))
    elif kind is dict:
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        plain = {key if isinstance(key, str) else str(key): value for key, value in obj.items()}
        sep = "{" + inner
        for key, value in sorted(plain.items()):
            out.append(sep + _quote(key) + ": ")
            _write(value, out, inner)
            sep = "," + inner
        out.append(newline + "}")
    elif kind is list or kind is tuple:
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            _write(value, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    else:
        _write(_plain(obj), out, newline)


def canonical_json(obj) -> str:
    """Deterministic JSON text for a report (sorted keys, exact floats)."""
    out: list[str] = []
    _write(obj, out, "\n")
    out.append("\n")
    return "".join(out)


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
