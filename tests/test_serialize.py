"""Tests for canonical JSON output and object round trips."""

import importlib.util
import json
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import lpalg

from lpalg.crossed import CcElement, cyclic_coordinate_rotation
from lpalg.groups import ZWindow, cyclic_group
from lpalg.opspace import LinearMap
from lpalg.serialize import (
    action_from_obj,
    canonical_json,
    cc_element_from_obj,
    cc_element_to_obj,
    linear_map_from_obj,
    matrix_from_obj,
    matrix_to_obj,
)


def test_canonical_json_sorts_keys_and_ends_with_newline():
    text = canonical_json({"b": 1, "a": [2, 3]})
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")
    assert json.loads(text) == {"a": [2, 3], "b": 1}


def test_canonical_json_is_deterministic():
    payload = {"x": 1.5, "y": {"k": [True, None, "s"]}}
    assert canonical_json(payload) == canonical_json(payload)


def test_canonical_json_encodes_non_finite_floats_as_strings():
    text = canonical_json({"a": np.inf, "b": -np.inf, "c": np.nan})
    obj = json.loads(text)
    assert obj == {"a": "inf", "b": "-inf", "c": "nan"}


def test_canonical_json_encodes_complex_as_pair():
    assert json.loads(canonical_json(1.5 - 2.0j)) == [1.5, -2.0]


def test_canonical_json_rejects_unknown_types():
    with pytest.raises(TypeError):
        canonical_json({"f": object()})


def _jsonable(obj):
    """The conversion canonical_json made before it wrote its own text."""
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


def _reference_json(obj) -> str:
    """The text canonical_json wrote through json's own encoder."""
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072e-308, 1e308, -1e308, math.nan, math.inf, -math.inf,
                     0.1 + 0.2, 1e16, 1e-7]),
)
_LEAVES = st.one_of(
    _FLOATS,
    st.integers(min_value=-(2**200), max_value=2**200),
    st.booleans(),
    st.builds(np.bool_, st.booleans()),
    st.none(),
    st.text(),
    st.sampled_from(['"', "\\", "\n\t\x00\x1f\x7f", "é✓\U0001f600", "\u2028"]),
    st.complex_numbers(),
    st.builds(np.float64, _FLOATS),
    st.builds(np.float32, st.floats(width=32)),
    st.builds(np.int64, st.integers(min_value=-(2**63), max_value=2**63 - 1)),
    st.builds(np.complex128, st.complex_numbers()),
    arrays(np.float64, st.integers(0, 3)),
    arrays(np.complex128, st.tuples(st.integers(0, 2), st.integers(0, 2))),
    arrays(np.int32, st.integers(0, 3)),
)
_KEYS = st.one_of(st.text(max_size=4), st.integers(-3, 3), st.booleans(), st.none(), st.floats(width=16),
                  st.sampled_from([1, "1", "True", "None"]))
_REPORTS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_KEYS, inner, max_size=5),
    ),
    max_leaves=20,
)


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(_REPORTS)
@example({1: "int", "1": "str", True: [], "True": {}})  # keys that collide under str()
@example({"1": "str", 1: "int"})
@example([{}, [], (), {"a": {}}, np.zeros((0, 2))])
def test_canonical_json_writes_the_bytes_of_json_dumps(report):
    assert canonical_json(report) == _reference_json(report)


def _bench_workloads():
    """The benchmark's workload definitions, loaded from their file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.WORKLOADS


@pytest.mark.parametrize("seed", [1, 3, 29])
def test_canonical_json_writes_the_bytes_of_json_dumps_on_benchmark_reports(seed):
    # every witness_line and rotation_grid report; norm_stream's reports all
    # have one flat shape, so its first ten stand for its ~1,900
    modules = ("crossed", "groups", "lpnorm", "nuclearity", "opspace", "partition", "serialize")
    lp = types.SimpleNamespace(**{name: getattr(lpalg, name) for name in modules})
    for name, count in (("witness_line", None), ("rotation_grid", None), ("norm_stream", 10)):
        workload = _bench_workloads()[name]
        for op in workload.build(lp, workload.make_inputs(seed))[:count]:
            report, _ = op.call()
            assert canonical_json(report) == _reference_json(report), (name, op.label)


def test_matrix_round_trip_is_bitwise():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    back = matrix_from_obj(matrix_to_obj(m))
    assert np.array_equal(back, m)
    assert back.dtype == np.complex128


def test_matrix_obj_validation():
    with pytest.raises(ValueError):
        matrix_from_obj({"rows": 2, "cols": 2, "entries": [[1.0, 0.0]]})
    with pytest.raises(ValueError):
        matrix_from_obj({"rows": 0, "cols": 0, "entries": []})
    with pytest.raises(ValueError):
        matrix_from_obj({"rows": 1, "cols": 1, "entries": [["inf", 0.0]]})


@pytest.mark.parametrize("field", ["rows", "cols"])
@pytest.mark.parametrize("value", [1.0, 1.5, "1", True])
def test_matrix_obj_sizes_must_be_integers(field, value):
    obj = {"rows": 1, "cols": 1, "entries": [[1.0, 0.0]], field: value}
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
        matrix_from_obj(obj)
    assert matrix_from_obj({**obj, field: np.int64(1)}).shape == (1, 1)


def test_cc_element_round_trip_finite():
    carrier = cyclic_group(6)
    rng = np.random.default_rng(1)
    f = CcElement(carrier, {
        0: rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
        4: rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
    })
    back = cc_element_from_obj(cc_element_to_obj(f))
    assert back.support == f.support
    for s in f.support:
        assert np.array_equal(back.coeff(s), f.coeff(s))
    assert back.carrier.order == 6


def test_cc_element_round_trip_integers():
    f = CcElement(ZWindow(3), {-2: np.eye(2, dtype=complex), 1: 2j * np.eye(2)})
    back = cc_element_from_obj(cc_element_to_obj(f))
    assert back.support == (-2, 1)
    assert np.array_equal(back.coeff(-2), np.eye(2, dtype=complex))


def test_cc_element_obj_rejects_duplicate_support():
    obj = cc_element_to_obj(CcElement.delta(cyclic_group(3), 1, np.eye(1, dtype=complex)))
    obj["coeffs"] = obj["coeffs"] + obj["coeffs"]
    with pytest.raises(ValueError):
        cc_element_from_obj(obj)


@pytest.mark.parametrize("value", [1.7, 1.0, "1", True])
def test_cc_element_obj_elements_must_be_integers(value):
    # s = 1.7 used to run as s = 1
    obj = cc_element_to_obj(CcElement.delta(ZWindow(1), 1, np.eye(1, dtype=complex)))
    obj["coeffs"][0]["s"] = value
    with pytest.raises(ValueError, match="^s must be an integer, got "):
        cc_element_from_obj(obj)


@pytest.mark.parametrize("obj, field", [
    ({"type": "rotation", "n": 5.5, "k": 2}, "n"),
    ({"type": "rotation", "n": 5, "k": "2"}, "k"),
    ({"type": "trivial", "dim": 2.0}, "dim"),
    ({"type": "trivial", "dim": True}, "dim"),
])
def test_action_obj_sizes_must_be_integers(obj, field):
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
        action_from_obj(obj, carrier=cyclic_group(5))
    assert action_from_obj({**obj, field: np.int64(1)}, carrier=cyclic_group(5)).base_dim >= 1


def test_action_round_trip_rotation():
    back = action_from_obj({"type": "rotation", "n": 5, "k": 2})
    assert back.carrier.descriptor() == {"type": "cyclic", "n": 5}
    a = np.diag(np.arange(5, dtype=float)).astype(complex)
    assert np.array_equal(back.apply(1, a), cyclic_coordinate_rotation(5, 2).apply(1, a))


def test_action_round_trip_trivial():
    back = action_from_obj({"type": "trivial", "dim": 3}, carrier=cyclic_group(4))
    assert back.base_dim == 3
    assert np.array_equal(back.apply(2, np.eye(3, dtype=complex)), np.eye(3, dtype=complex))


def _swap(d):
    return np.roll(np.eye(d, dtype=complex), 1, axis=0)


def test_action_from_obj_implementers():
    mats = [np.eye(2, dtype=complex), -1j * _swap(2), -np.eye(2, dtype=complex), 1j * _swap(2)]
    obj = {"type": "implementers", "matrices": [matrix_to_obj(m) for m in mats]}
    back = action_from_obj(obj, carrier=cyclic_group(4))
    for s, m in enumerate(mats):
        assert np.array_equal(back.unitary(s), m)
    with pytest.raises(ValueError):
        action_from_obj(obj)


def test_action_from_obj_z_generator():
    # one generator descriptor serves every cyclic carrier, Z and Z/n alike
    gen = np.diag([1.0, -1.0]) @ _swap(2)  # gen^2 = -I, so gen^4 = I
    obj = {"type": "z_generator", "matrix": matrix_to_obj(gen)}
    for carrier, elements in ((ZWindow(2), (-3, 0, 1, 4)), (cyclic_group(4), range(4))):
        back = action_from_obj(obj, carrier=carrier)
        for s in elements:
            assert np.array_equal(back.unitary(s), np.linalg.matrix_power(gen if s >= 0 else gen.T, abs(s)))
    with pytest.raises(ValueError):
        action_from_obj(obj)


def test_action_from_obj_unknown_type():
    with pytest.raises(ValueError):
        action_from_obj({"type": "ergodic"})


def test_linear_map_round_trip():
    lm = LinearMap(2, 2, apply_fn=lambda a: np.asarray(a, dtype=complex).T)
    back = linear_map_from_obj(matrix_to_obj(lm.matrix))
    x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    assert np.allclose(back.apply(x), x.T, atol=1e-15)


def test_loaded_linear_map_applies_its_coefficient_matrix_bit_for_bit():
    # a loaded map is the product with its coefficient matrix m, and its
    # derived .matrix is m again
    rng = np.random.default_rng(5)
    d, c = 2, 3
    m = rng.standard_normal((c * c, d * d)) + 1j * rng.standard_normal((c * c, d * d))
    loaded = linear_map_from_obj(matrix_to_obj(m))
    assert (loaded.domain_dim, loaded.codomain_dim) == (d, c)
    for _ in range(4):
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        assert np.array_equal(loaded.apply(x), (m @ x.ravel()).reshape(c, c))
    assert np.array_equal(loaded.matrix, m)


def test_linear_map_obj_requires_square_block_structure():
    obj = matrix_to_obj(LinearMap.identity(2).matrix)
    obj["rows"], obj["cols"] = 8, 2  # 8 is not a perfect square
    with pytest.raises(ValueError):
        linear_map_from_obj(obj)
