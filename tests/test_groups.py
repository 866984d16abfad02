"""Tests for group carriers, translation operators and Folner sets."""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from lpalg.errors import CapacityError
from lpalg.groups import (
    FolnerSet,
    ZWindow,
    cyclic_group,
    folner_intersection,
    folner_ratio,
    folner_search,
    group_from_descriptor,
    group_from_table,
    group_to_descriptor,
    lambda_adjoint_check,
    regular_rep,
    translate_set,
)

KLEIN_TABLE = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]


def test_cyclic_group_arithmetic():
    g = cyclic_group(5)
    assert g.order == 5
    assert g.op(3, 4) == 2
    assert g.inv(2) == 3
    assert g.identity == 0


def test_group_from_table_rejects_non_group():
    bad = [[0, 1], [1, 1]]  # second row repeats 1, no inverses
    with pytest.raises(ValueError):
        group_from_table(bad)


def test_klein_table_is_a_group():
    g = group_from_table(KLEIN_TABLE)
    assert g.order == 4
    for s in range(4):
        assert g.op(s, g.inv(s)) == 0


def test_regular_rep_is_the_shift():
    # on Z/3 the translation by 1 sends basis vector t to t+1
    lam = regular_rep(cyclic_group(3), 1)
    expected = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=float)
    assert np.array_equal(lam.real, expected)
    assert np.all(lam.imag == 0.0)


def test_regular_rep_multiplies():
    g = cyclic_group(7)
    l2 = regular_rep(g, 2)
    l3 = regular_rep(g, 3)
    assert np.allclose(l2 @ l3, regular_rep(g, g.op(2, 3)), atol=1e-15)


def test_lambda_adjoint_identity_small_groups():
    for n in range(1, 9):
        g = cyclic_group(n)
        assert all(lambda_adjoint_check(g, s) for s in range(n))
    klein = group_from_table(KLEIN_TABLE)
    assert all(lambda_adjoint_check(klein, s) for s in range(4))


# ---------------------------------------------------------------------------
# Folner machinery
# ---------------------------------------------------------------------------

def test_folner_set_members_sorted_and_validated():
    f = FolnerSet(ZWindow(5), (3, -1, 0))
    assert f.members == (-1, 0, 3)
    with pytest.raises(ValueError):
        FolnerSet(ZWindow(5), (2, 2))
    with pytest.raises(ValueError):
        FolnerSet(cyclic_group(4), (0, 9))


def test_translate_set_on_interval():
    f = FolnerSet(ZWindow(50), tuple(range(10)))
    assert translate_set(f, 2) == frozenset(range(2, 12))
    assert folner_intersection(f, 2) == 8
    assert folner_ratio(f, 2) == pytest.approx(0.4, abs=1e-15)


@seed(3)
@settings(max_examples=50, deadline=None)
@given(
    members=st.frozensets(st.integers(min_value=-40, max_value=40), min_size=1, max_size=25),
    s=st.integers(min_value=-6, max_value=6),
)
def test_intersection_symmetric_difference_identity(members, s):
    f = FolnerSet(ZWindow(50), tuple(members))
    shifted = {m + s for m in members}
    inter = folner_intersection(f, s)
    assert 2 * inter == 2 * len(members) - len(members ^ shifted)
    assert folner_ratio(f, s) == pytest.approx(
        len(members ^ shifted) / len(members), abs=1e-15)


def test_folner_search_on_integers():
    f = folner_search(ZWindow(60), [1, -1, 2], 0.1)
    assert len(f.members) == 41
    assert folner_ratio(f, 1) == pytest.approx(2 / 41, abs=1e-15)
    assert folner_ratio(f, 2) == pytest.approx(4 / 41, abs=1e-15)
    for s in (1, -1, 2):
        assert folner_ratio(f, s) < 0.1


def test_folner_search_finite_group_returns_everything():
    g = cyclic_group(6)
    f = folner_search(g, [1, 2], 0.05)
    assert f.members == tuple(range(6))
    for s in (1, 2):
        assert folner_ratio(f, s) == 0.0


def test_folner_search_capacity_guard():
    with pytest.raises(CapacityError):
        folner_search(ZWindow(10**6), [1], 1e-4, max_size=100)


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------

def test_descriptor_round_trip_finite():
    g = group_from_table(KLEIN_TABLE)
    desc = group_to_descriptor(g)
    h = group_from_descriptor(desc)
    assert h.order == 4
    for s in range(4):
        for t in range(4):
            assert h.op(s, t) == g.op(s, t)


def test_descriptor_round_trip_integers():
    w = ZWindow(7)
    back = group_from_descriptor(group_to_descriptor(w))
    assert isinstance(back, ZWindow)
    assert back.radius == 7


def test_descriptor_rejects_garbage():
    with pytest.raises(ValueError):
        group_from_descriptor({"type": "free_group", "rank": 2})
