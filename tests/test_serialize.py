"""Tests for canonical JSON output and object round trips."""

import json

import numpy as np
import pytest

from lpalg.crossed import CcElement, cyclic_coordinate_rotation, trivial_action
from lpalg.groups import ZWindow, cyclic_group
from lpalg.opspace import LinearMap
from lpalg.serialize import (
    action_from_obj,
    action_to_obj,
    canonical_json,
    cc_element_from_obj,
    cc_element_to_obj,
    linear_map_from_obj,
    linear_map_to_obj,
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


def test_action_round_trip_rotation():
    act = cyclic_coordinate_rotation(5, 2)
    obj = action_to_obj(act)
    assert obj["type"] == "rotation"
    back = action_from_obj(obj)
    a = np.diag(np.arange(5, dtype=float)).astype(complex)
    assert np.array_equal(back.apply(1, a), act.apply(1, a))


def test_action_round_trip_trivial():
    act = trivial_action(cyclic_group(4), 3)
    obj = action_to_obj(act)
    assert obj == {"type": "trivial", "dim": 3}
    back = action_from_obj(obj, carrier=cyclic_group(4))
    assert np.array_equal(back.apply(2, np.eye(3, dtype=complex)), np.eye(3, dtype=complex))


def test_action_from_obj_unknown_type():
    with pytest.raises(ValueError):
        action_from_obj({"type": "ergodic"})


def test_linear_map_round_trip():
    lm = LinearMap(2, 2, apply_fn=lambda a: np.asarray(a, dtype=complex).T)
    back = linear_map_from_obj(linear_map_to_obj(lm))
    x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    assert np.allclose(back(x), x.T, atol=1e-15)


def test_linear_map_obj_requires_square_block_structure():
    obj = linear_map_to_obj(LinearMap.identity(2))
    obj["rows"], obj["cols"] = 8, 2  # 8 is not a perfect square
    with pytest.raises(ValueError):
        linear_map_from_obj(obj)
