"""Tests for group carriers and Folner sets, and for the one rule by which
lpalg reads an integer argument."""

import ast
import re
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import lpalg
from lpalg import suite
from lpalg.crossed import (
    CcElement,
    ConcreteAlgebra,
    cyclic_coordinate_rotation,
    random_cc_element,
    trivial_action,
)
from lpalg.errors import CapacityError
from lpalg.groups import (
    CyclicGroup,
    FolnerSet,
    ZWindow,
    as_integer,
    cyclic_group,
    folner_intersection,
    folner_ratio,
    folner_search,
    group_from_descriptor,
    group_from_table,
    translate_set,
)
from lpalg.lpnorm import pnorm_estimate, pnorm_oracle
from lpalg.nuclearity import Factorization, corner_restrict, lift_factorization, rotation_demo, truncate_map
from lpalg.opspace import LinearMap, amplify, cb_norm_lower, compression, compression_cb
from lpalg.partition import circle_partition, cx_phi_cb_certificate, cx_psi_cb_certificate
from lpalg.serialize import matrix_from_obj
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
        with pytest.raises(ValueError, match="^window radius must be an integer >= 1, got "):
            call()


@pytest.mark.parametrize("make, order", [
    (cyclic_group, 4.9),  # used to be Z/4
    (cyclic_group, True),  # used to be Z/1
    (cyclic_group, "3"),  # used to be Z/3
    (CyclicGroup, 2.5),  # used to build a group of order 2.5
])
def test_a_cyclic_group_order_must_be_an_integer(make, order):
    with pytest.raises(ValueError, match="^cyclic group order must be an integer >= 1, got "):
        make(order)
    assert cyclic_group(np.int64(3)).order == 3


@pytest.mark.parametrize("radius", [1.7, 2.0, True, "3"])
def test_a_window_radius_must_be_an_integer(radius):
    # ZWindow(1.7) used to give the positions -1.7, -0.7, 0.3, ..., and
    # window(1.7) the radius-1 window
    with pytest.raises(ValueError, match="^window radius must be an integer >= 0, got "):
        ZWindow(radius)
    with pytest.raises(ValueError, match="^window radius must be an integer >= 1, got "):
        ZWindow(3).window(radius)
    assert ZWindow(np.int64(2)).window(np.int64(1)).tolist() == [-1, 0, 1]


# ---------------------------------------------------------------------------
# one rule for every integer argument
# ---------------------------------------------------------------------------


def test_as_integer_reads_ints_and_numpy_integers_and_refuses_the_rest():
    assert as_integer(3, "x") == 3 and type(as_integer(np.uint8(3), "x", 3)) is int
    for value in (3.0, True, "3", None, np.float64(3.0), np.array(3)):
        with pytest.raises(ValueError, match=re.escape(f"x must be an integer, got {value!r}")):
            as_integer(value, "x")
    with pytest.raises(ValueError, match=re.escape(f"x must be an integer >= 4, got {np.int64(3)!r}")):
        as_integer(np.int64(3), "x", 4)


def _run_stub_criterion(number):
    """run_criterion over one criterion that does nothing, numbered 1."""
    with mock.patch.object(suite, "CRITERIA", [(1, "stub", lambda seed: (True, {}))]):
        return suite.run_criterion(number)


def _factorization():
    """The exact factorization of M_2 through itself, both legs certified."""
    ident = compression(np.arange(2), 2)
    return Factorization(ident, ident, compression_cb(np.arange(2), 2), compression_cb(np.arange(2), 2))


_CHEAP_CB = {"trials": 0, "ascent_steps": 0, "restarts": 1, "max_iters": 5}

# (call with the argument set to v, the field it is named by, its least value)
INTEGER_ARGUMENTS = {
    "CyclicGroup order": (CyclicGroup, "cyclic group order", 1),
    "ZWindow radius": (ZWindow, "window radius", 0),
    "ZWindow.window radius": (lambda v: ZWindow(3).window(v), "window radius", 1),
    "ConcreteAlgebra base_dim": (ConcreteAlgebra, "base_dim", 1),
    "CcElement base_dim": (lambda v: CcElement(cyclic_group(3), {}, base_dim=v), "base_dim", 1),
    "CcElement.delta base_dim": (lambda v: CcElement.delta(cyclic_group(3), 1, base_dim=v), "base_dim", 1),
    "random_cc_element base_dim": (
        lambda v: random_cc_element(np.random.default_rng(0), cyclic_group(3), v), "base_dim", 1),
    "random_cc_element n_terms": (
        lambda v: random_cc_element(np.random.default_rng(0), cyclic_group(3), 1, n_terms=v), "n_terms", 0),
    "random_cc_element max_shift": (
        lambda v: random_cc_element(np.random.default_rng(0), cyclic_group(3), 1, max_shift=v), "max_shift", 1),
    "trivial_action dim": (lambda v: trivial_action(ZWindow(0), v), "dim", 1),
    "cyclic_coordinate_rotation n": (lambda v: cyclic_coordinate_rotation(v, 1), "rotation grid size n", 1),
    "pnorm_estimate restarts": (lambda v: pnorm_estimate(np.ones((2, 3)), 1.5, restarts=v), "restarts", 1),
    "pnorm_estimate max_iters": (lambda v: pnorm_estimate(np.ones((2, 3)), 1.5, max_iters=v), "max_iters", 1),
    "pnorm_oracle samples": (lambda v: pnorm_oracle(np.eye(2), 3.0, samples=v), "samples", 1),
    "LinearMap domain_dim": (lambda v: LinearMap(v, 1, apply_fn=np.trace), "domain_dim", 0),
    "LinearMap codomain_dim": (lambda v: LinearMap(1, v, apply_fn=np.trace), "codomain_dim", 0),
    "amplify level": (lambda v: amplify(LinearMap.identity(2), v), "amplification level", 1),
    "cb_norm_lower n_max": (
        lambda v: cb_norm_lower(LinearMap.identity(1), 1.5, **{**_CHEAP_CB, "n_max": v}), "n_max", 1),
    "cb_norm_lower trials": (
        lambda v: cb_norm_lower(LinearMap.identity(1), 1.5, n_max=1, **{**_CHEAP_CB, "trials": v}), "trials", 0),
    "cb_norm_lower restarts": (
        lambda v: cb_norm_lower(LinearMap.identity(1), 1.5, n_max=1, **{**_CHEAP_CB, "restarts": v}), "restarts", 1),
    "cb_norm_lower ascent_steps": (
        lambda v: cb_norm_lower(LinearMap.identity(1), 1.5, n_max=1, **{**_CHEAP_CB, "ascent_steps": v}),
        "ascent_steps", 0),
    "lift_factorization n": (lambda v: lift_factorization(_factorization(), v, {}), "amplification level", 1),
    "corner_restrict outer": (lambda v: corner_restrict(_factorization(), v, test_elements={}), "outer", 1),
    "truncate_map window": (lambda v: truncate_map(v, 1, 2), "window", 1),
    "truncate_map n_keep": (lambda v: truncate_map(4, v, 2), "n_keep", 1),
    "truncate_map block_dim": (lambda v: truncate_map(4, 2, v), "block_dim", 1),
    "rotation_demo n": (lambda v: rotation_demo(v, 1, 1.5, 0.3), "rotation grid size n", 2),
    "circle_partition n_points": (lambda v: circle_partition(v, 2), "n_points", 2),
    "circle_partition n_arcs": (lambda v: circle_partition(4, v), "n_arcs", 2),
    "cx_phi_cb_certificate n_max": (
        lambda v: cx_phi_cb_certificate(circle_partition(4, 2), 1.5, n_max=v, trials=0), "n_max", 1),
    "cx_psi_cb_certificate trials": (
        lambda v: cx_psi_cb_certificate(circle_partition(4, 2), 1.5, n_max=1, trials=v), "trials", 0),
    "matrix_from_obj rows": (
        lambda v: matrix_from_obj({"rows": v, "cols": 1, "entries": [[1.0, 0.0]]}), "rows", 1),
    "matrix_from_obj cols": (
        lambda v: matrix_from_obj({"rows": 1, "cols": v, "entries": [[1.0, 0.0]]}), "cols", 1),
    "run_suite seed": (lambda v: suite.run_suite(v, numbers=[]), "seed", 0),
    "run_criterion number": (_run_stub_criterion, "criterion number", 1),
}


@pytest.mark.parametrize("row", sorted(INTEGER_ARGUMENTS))
def test_every_integer_argument_is_read_by_one_rule(row):
    call, field, least = INTEGER_ARGUMENTS[row]
    for value in (True, float(least), least - 1):
        with pytest.raises(ValueError, match=f"^{re.escape(f'{field} must be an integer >= {least}, got {value!r}')}$"):
            call(value)
    call(least)
    call(np.int64(least))


def _own_parameters(func: ast.AST) -> set:
    args = func.args
    return {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg) if a}


def _casts_a_parameter(call: ast.Call, params: set) -> bool:
    """int(p), or np.asarray/np.array(p) with an integer dtype, for a parameter p."""
    name = ast.unparse(call.func)
    if not call.args or not (isinstance(call.args[0], ast.Name) and call.args[0].id in params):
        return False
    if name == "int":
        return True
    dtypes = [*call.args[1:2], *(kw.value for kw in call.keywords if kw.arg == "dtype")]
    return name in ("np.asarray", "np.array") and any(
        re.fullmatch(r"int|(np|numpy)\.u?int(p|c|\d+)?|['\"]u?int\d*['\"]", ast.unparse(d)) for d in dtypes)


def _functions(node, prefix: str):
    """(qualified name, node) of every function under ``node``, methods and
    nested functions included."""
    for child in ast.iter_child_nodes(node):
        named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        name = f"{prefix}.{child.name}" if named else prefix
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield name, child
        yield from _functions(child, name)


def test_no_function_in_lpalg_casts_its_own_arguments_to_integers():
    # groups.as_integer is the rule itself; serialize._plain converts report
    # values, not arguments
    exempt = {"groups.as_integer", "serialize._plain"}
    found = [
        name
        for path in sorted(Path(lpalg.__file__).parent.glob("*.py"))
        for name, func in _functions(ast.parse(path.read_text()), path.stem)
        for call in ast.walk(func)
        if name not in exempt and isinstance(call, ast.Call) and _casts_a_parameter(call, _own_parameters(func))
    ]
    assert found == []


def test_a_deprecation_that_lpalg_triggers_fails_the_tests():
    # pyproject.toml turns a DeprecationWarning or FutureWarning attributed to
    # one of lpalg's modules into an error, and only those
    for category in (DeprecationWarning, FutureWarning):
        with pytest.raises(category, match="^probe$"):
            warnings.warn_explicit("probe", category, "probe.py", 1, module="lpalg.probe")
    with warnings.catch_warnings(record=True) as seen:
        warnings.warn_explicit("probe", DeprecationWarning, "probe.py", 1, module="hypothesis.probe")
    assert [w.category for w in seen] == [DeprecationWarning]


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
    # 100,000, so the search refuses before it tries one; at the subnormal
    # 1e-320, 2 / delta is inf, whose int() was an OverflowError
    for delta in (1e-5, 1e-320):
        with pytest.raises(CapacityError, match=f"no interval of length <= 100000 .* below {delta!r}"):
            folner_search(ZWindow(10**6), [1], delta)


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


def test_a_cyclic_group_beyond_the_largest_window_is_a_capacity_error():
    # its window and its Folner set are the whole group: Z/2^40 was accepted,
    # and its window, Folner set and pair table could not be allocated
    with pytest.raises(CapacityError, match=f"^cyclic group order {2**40} exceeds the largest, 2097153$"):
        group_from_descriptor({"type": "cyclic", "n": 2**40})
    assert cyclic_group(2**21 + 1).order == ZWindow(2**20).window().size


@pytest.mark.parametrize("radius", [2**62 + 2, 2**40])
def test_a_window_beyond_the_largest_radius_is_a_capacity_error(radius):
    # np.arange overflowed at 2^62 + 2 to an empty window, and at 2^40 could not be allocated
    with pytest.raises(CapacityError, match=f"^window radius {radius} exceeds the largest, 1048576$"):
        ZWindow(0).window(radius)
    assert ZWindow(0).window(3).tolist() == [-3, -2, -1, 0, 1, 2, 3]


# a bool was read as 1.0 (|F| = 3 on Z), and a string failed with a bare
# TypeError comparing it with 0.0
@pytest.mark.parametrize("delta", [float("nan"), 0.0, -0.1, True, "0.5"])
def test_folner_search_refuses_a_nan_or_nonpositive_delta(delta):
    for carrier in (ZWindow(0), cyclic_group(4)):
        with pytest.raises(ValueError, match=f"^{re.escape(f'delta must be positive, got {delta!r}')}$"):
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
    with pytest.raises(ValueError, match="group element must be an integer"):
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
