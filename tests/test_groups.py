"""Tests for group carriers and Folner sets."""

import re

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from lpalg.errors import CapacityError
from lpalg.groups import (
    CyclicGroup,
    FolnerSet,
    ZWindow,
    cyclic_group,
    folner_intersection,
    folner_ratio,
    folner_search,
    group_from_descriptor,
    group_from_table,
    translate_set,
)
from lpalg.suite import _table_test_groups

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


@pytest.mark.parametrize("table, message", [
    ([[0, 1, 2], [1, 2, 0]], "multiplication table must be square and nonempty, got (2, 3)"),
    (np.zeros((0, 0)), "multiplication table must be square and nonempty, got (0, 0)"),
    ([[0, 1], [1, 2]], "table entries must be element indices 0..n-1"),
    ([[0, -1], [-1, 0]], "table entries must be element indices 0..n-1"),
    ([[0, 0], [0, 0]], "table does not define a unique two-sided identity"),
    ([[0, 1, 2], [1, 1, 1], [2, 1, 0]], "element 1 has no two-sided inverse"),  # no solution of 1 x = 0
    ([[0, 1, 2], [1, 2, 0], [2, 2, 1]], "element 1 has no two-sided inverse"),  # 1 2 = 0 but 2 1 = 2
    ([[0, 1, 2, 3], [1, 0, 0, 2], [2, 3, 0, 1], [3, 0, 1, 0]], "element 1 has no two-sided inverse"),  # 1 x = 0 twice
    ([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 1, 1], [3, 2, 1, 1]], "element 2 has no two-sided inverse"),  # 3 neither
    ([[0, 1, 2], [1, 0, 1], [2, 2, 0]], "multiplication table is not associative"),  # (1 1) 2 = 2, 1 (1 2) = 0
    # entries are refused, not truncated: the first was read as the table of Z/2
    ([[0, 1.7], [1, 0.2]], "a multiplication table entry must be an integer, got 1.7"),
    ([[0, True], [True, 0]], "a multiplication table entry must be an integer, got True"),  # numpy: int64
    ([[0, 1.0], [1.0, 0]], "a multiplication table entry must be an integer, got 1.0"),
    (np.eye(2, dtype=bool), "a multiplication table entry must be an integer, got True"),
])
def test_group_from_table_refusals(table, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        group_from_table(table)


def test_group_from_table_checks_associativity_on_every_triple():
    # Z/200 with the intercalate at rows 3, 103 and columns 5, 105 swapped:
    # still a Latin square with identity 0 and unique inverses, and
    # non-associative on 3152 of its 8,000,000 triples, which 2000 random
    # triples missed
    idx = np.arange(200)
    table = (idx[:, None] + idx[None, :]) % 200
    table[np.ix_([3, 103], [5, 105])] = table[np.ix_([3, 103], [105, 5])]
    assert all(len(set(line)) == 200 for line in (*table, *table.T))
    with pytest.raises(ValueError, match="multiplication table is not associative"):
        group_from_table(table)


def test_group_from_table_finds_a_nonzero_identity_and_inverses():
    # Z/3 relabelled so that 2 is the identity: x * y = x + y - 2 mod 3
    g = group_from_table([[(x + y - 2) % 3 for y in range(3)] for x in range(3)])
    assert g.identity == 2
    assert g.inverse.tolist() == [1, 0, 2]


def test_klein_table_is_a_group():
    g = group_from_table(KLEIN_TABLE)
    assert g.order == 4
    assert group_from_table(np.array(KLEIN_TABLE, dtype=np.int8)).order == 4  # any integer dtype
    for s in range(4):
        assert g.op(s, g.inv(s)) == 0


def test_finite_arithmetic_on_arrays_matches_scalar_calls():
    for g in (cyclic_group(5), *_table_test_groups()):  # Klein and sym3
        elems = range(g.order)
        s, t = np.indices((g.order, g.order))
        assert g.op(s, t).tolist() == [[g.op(a, b) for b in elems] for a in elems]
        assert g.inv(np.arange(g.order)).tolist() == [g.inv(a) for a in elems]
        for radius in (None, 0, 3):
            assert g.window(radius).tolist() == list(g.elements())


def test_z_arithmetic_on_arrays_matches_scalar_calls():
    z = ZWindow(3)
    s, t = np.indices((13, 13)) - 6
    assert z.op(s, t).tolist() == [[z.op(a, b) for b in range(-6, 7)] for a in range(-6, 7)]
    assert z.inv(np.arange(-6, 7)).tolist() == [z.inv(a) for a in range(-6, 7)]
    assert z.window().tolist() == list(range(-3, 4))
    assert z.window(5).tolist() == list(range(-5, 6))


def test_z_window_needs_a_positive_radius():
    for call in (ZWindow(0).window, lambda: ZWindow(3).window(0), lambda: ZWindow(3).window(-2)):
        with pytest.raises(ValueError, match="positive window radius"):
            call()


@pytest.mark.parametrize("make, order", [
    (cyclic_group, 4.9),  # used to be Z/4
    (cyclic_group, True),  # used to be Z/1
    (cyclic_group, "3"),  # used to be Z/3
    (CyclicGroup, 2.5),  # used to build a group of order 2.5
])
def test_a_cyclic_group_order_must_be_an_integer(make, order):
    with pytest.raises(ValueError, match="^cyclic group order must be an integer, got "):
        make(order)
    assert cyclic_group(np.int64(3)).order == 3


@pytest.mark.parametrize("radius", [1.7, 2.0, True, "3"])
def test_a_window_radius_must_be_an_integer(radius):
    # ZWindow(1.7) used to give the positions -1.7, -0.7, 0.3, ..., and
    # window(1.7) the radius-1 window
    with pytest.raises(ValueError, match="^window radius must be an integer, got "):
        ZWindow(radius)
    with pytest.raises(ValueError, match="^window radius must be an integer, got "):
        ZWindow(3).window(radius)
    assert ZWindow(np.int64(2)).window(np.int64(1)).tolist() == [-1, 0, 1]


# ---------------------------------------------------------------------------
# the carrier protocol
# ---------------------------------------------------------------------------

CARRIERS = [*(cyclic_group(n) for n in (1, 2, 5, 12)), *_table_test_groups(), ZWindow(3)]


@pytest.mark.parametrize("carrier", CARRIERS, ids=repr)
def test_every_carrier_answers_the_protocol(carrier):
    if carrier.order is None:
        window, sample = np.arange(-3, 4), np.arange(-9, 10)
        assert carrier.contains(sample).all()
    else:
        window = sample = np.arange(carrier.order)
        assert carrier.contains(np.arange(-2, carrier.order + 2)).tolist() == [0 <= s < carrier.order
                                                                                for s in range(-2, carrier.order + 2)]
    assert carrier.window().tolist() == window.tolist()
    s, t = np.meshgrid(sample, sample, indexing="ij")
    st = carrier.op(s, t)
    assert carrier.contains(st).all()
    assert (carrier.op(s, carrier.inv(s)) == carrier.identity).all()
    assert (carrier.op(carrier.identity, sample) == sample).all()
    assert st.tolist() == [[carrier.op(int(a), int(b)) for b in sample] for a in sample]
    back = group_from_descriptor(carrier.descriptor())
    assert back.descriptor() == carrier.descriptor()
    assert (back.op(s, t) == st).all() and (back.inv(sample) == carrier.inv(sample)).all()
    assert carrier.same_group(carrier) and carrier.same_group(back) and back.same_group(carrier)
    assert [other.same_group(carrier) for other in CARRIERS] == [other is carrier for other in CARRIERS]


@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_cyclic_arithmetic_agrees_with_the_addition_table(n):
    idx = np.arange(n)
    table = group_from_table((idx[:, None] + idx[None, :]) % n)
    arith = cyclic_group(n)
    s, t = np.indices((n, n))
    assert np.array_equal(arith.op(s, t), table.op(s, t))
    assert np.array_equal(arith.inv(idx), table.inv(idx))
    assert table.descriptor() == arith.descriptor() == {"type": "cyclic", "n": n}
    assert table.same_group(arith) and arith.same_group(table)


# ---------------------------------------------------------------------------
# Folner machinery
# ---------------------------------------------------------------------------

def test_folner_set_members_sorted_and_validated():
    f = FolnerSet(ZWindow(5), (3, -1, 0))
    assert f.members == (-1, 0, 3)
    assert FolnerSet(ZWindow(5), (np.int64(2), np.int32(-1))).members == (-1, 2)
    with pytest.raises(ValueError):
        FolnerSet(ZWindow(5), (2, 2))
    with pytest.raises(ValueError):
        FolnerSet(cyclic_group(4), (0, 9))


def test_translate_set_on_interval():
    f = FolnerSet(ZWindow(50), tuple(range(10)))
    assert translate_set(f, 2) == frozenset(range(2, 12))
    assert folner_intersection(f, 2) == 8
    assert folner_ratio(f, 2) == pytest.approx(0.4, abs=1e-15)


TRANSLATE_CARRIERS = {"Z": ZWindow(50), "Z/12": cyclic_group(12), "sym3": _table_test_groups()[1]}


@pytest.mark.parametrize("carrier", TRANSLATE_CARRIERS.values(), ids=TRANSLATE_CARRIERS.keys())
@seed(3)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_intersection_symmetric_difference_identity(carrier, data):
    elements = st.integers(-40, 40) if carrier.order is None else st.integers(0, carrier.order - 1)
    members = data.draw(st.frozensets(elements, min_size=1, max_size=25))
    s = data.draw(st.integers(-6, 6) if carrier.order is None else elements)
    f = FolnerSet(carrier, tuple(members))
    shifted = {int(carrier.op(s, t)) for t in members}  # left translation s t, one element at a time
    assert translate_set(f, s) == shifted
    assert 2 * folner_intersection(f, s) == 2 * len(members) - len(members ^ shifted)
    assert folner_ratio(f, s) == len(members ^ shifted) / len(members)


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
    # every interval that could meet delta = 1e-5 is longer than the cap of
    # 100,000, so the search refuses before it tries one
    with pytest.raises(CapacityError, match="100000"):
        folner_search(ZWindow(10**6), [1], 1e-5)


@pytest.mark.parametrize("carrier, shift, named", [
    (ZWindow(0), 1.9, "got 1.9"),
    (ZWindow(0), 0.5, "got 0.5"),
    (cyclic_group(6), 7, "shift 7"),
    (group_from_table(KLEIN_TABLE), 9, "shift 9"),
])
def test_a_shift_must_be_an_integer_element_of_the_carrier(carrier, shift, named):
    # read unchecked, 1.9 sizes F for the shift 1 (its ratio at 1.9 is 2.0),
    # 0.5 gives {0}, Z/6 takes 7 as 1, and the Klein table raises IndexError
    fset = FolnerSet(carrier, (0, 1))
    calls = (lambda: folner_search(carrier, [1, shift], 0.1), lambda: translate_set(fset, shift),
             lambda: folner_intersection(fset, shift), lambda: folner_ratio(fset, shift))
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(named)):
            call()
    assert folner_ratio(fset, np.int64(1)) == folner_ratio(fset, 1)


@pytest.mark.parametrize("delta", [float("nan"), 0.0, -0.1])
def test_folner_search_refuses_a_nan_or_nonpositive_delta(delta):
    for carrier in (ZWindow(0), cyclic_group(4)):
        with pytest.raises(ValueError, match="delta must be positive"):
            folner_search(carrier, [1], delta)


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------

def test_descriptor_round_trip_finite():
    g = group_from_table(KLEIN_TABLE)
    desc = g.descriptor()
    h = group_from_descriptor(desc)
    assert h.order == 4
    for s in range(4):
        for t in range(4):
            assert h.op(s, t) == g.op(s, t)


def test_descriptor_round_trip_integers():
    w = ZWindow(7)
    back = group_from_descriptor(w.descriptor())
    assert isinstance(back, ZWindow)
    assert back.radius == 7


@pytest.mark.parametrize("members", [(0.5, 1.7), (0, 2.0), (True,), ("1",)])
def test_folner_set_members_must_be_integers(members):
    # a member is never truncated or parsed: (0.5, 1.7) used to become (0, 1)
    with pytest.raises(ValueError, match="Folner set member must be an integer"):
        FolnerSet(ZWindow(5), members)


@pytest.mark.parametrize("desc, field", [
    ({"type": "cyclic", "n": 4.9}, "n"),
    ({"type": "cyclic", "n": "2"}, "n"),
    ({"type": "cyclic", "n": True}, "n"),
    ({"type": "z_window", "radius": 1.5}, "radius"),
    ({"type": "z_window", "radius": "3"}, "radius"),
])
def test_descriptor_sizes_must_be_integers(desc, field):
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
        group_from_descriptor(desc)
    assert group_from_descriptor({**desc, field: np.int64(4)}).descriptor()[field] == 4


def test_descriptor_rejects_garbage():
    with pytest.raises(ValueError):
        group_from_descriptor({"type": "free_group", "rank": 2})
