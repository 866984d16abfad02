"""The record types: how they are built, printed, compared and kept read-only,
and that importing lpalg generates no code for them."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lpalg
from lpalg.crossed import ConcreteAlgebra
from lpalg.groups import CyclicGroup, FiniteGroup, FolnerSet, Record, ZWindow, cyclic_group, group_from_table
from lpalg.lpnorm import PExponent, PNormEstimate
from lpalg.nuclearity import Factorization
from lpalg.opspace import CbEstimate, _Walk, compression, compression_cb
from lpalg.partition import PartitionOfUnity, circle_partition

KLEIN = group_from_table([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])


def test_importing_lpalg_does_not_import_dataclasses():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(lpalg.__file__).parent.parent), env.get("PYTHONPATH")]))
    code = "import sys, lpalg; print('dataclasses' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_reprs():
    assert repr(ZWindow(3)) == "ZWindow(radius=3)"
    assert repr(PExponent(3)) == "PExponent(p=3.0, q=1.5)"
    assert repr(PExponent(1)) == "PExponent(p=1.0, q=inf)"
    assert repr(FolnerSet(ZWindow(0), (1, 0))) == "FolnerSet(carrier=ZWindow(radius=0), members=(0, 1))"
    assert repr(FolnerSet(cyclic_group(3), (2,))) == "FolnerSet(carrier=CyclicGroup(order=3), members=(2,))"
    assert repr(KLEIN) == "FiniteGroup(order=4)"


def test_value_records_are_equal_and_hash_alike_by_value():
    equal_pairs = [
        (PExponent(2), PExponent(2.0)),
        (PExponent(np.inf), PExponent(float("inf"))),
        (ZWindow(), ZWindow(0)),
        (ZWindow(4), ZWindow(radius=4)),
        (FolnerSet(ZWindow(1), (2, 0, 1)), FolnerSet(ZWindow(1), (0, 1, 2))),
    ]
    for a, b in equal_pairs:
        assert a == b and a is not b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    unequal_pairs = [
        (PExponent(2), PExponent(3)),
        (ZWindow(1), ZWindow(2)),
        (FolnerSet(ZWindow(1), (0, 1)), FolnerSet(ZWindow(2), (0, 1))),
        (FolnerSet(ZWindow(1), (0, 1)), FolnerSet(ZWindow(1), (0, 2))),
        (ZWindow(2), 2),
        (PExponent(2), 2.0),
    ]
    for a, b in unequal_pairs:
        assert a != b and b != a


def test_other_records_are_equal_only_to_themselves():
    # a table group or an algebra compares by identity, as it did
    assert ConcreteAlgebra(2) != ConcreteAlgebra(2)
    algebra = ConcreteAlgebra(2)
    assert algebra == algebra and {algebra: 1}[algebra] == 1
    assert KLEIN != group_from_table(KLEIN.mult.tolist())
    # a Folner set over a table group is equal to one over the same group object
    assert FolnerSet(KLEIN, (0, 1)) == FolnerSet(KLEIN, (1, 0))


def _read_only_fields():
    part = circle_partition(6, 3)
    return [
        (PExponent(2), "p"),
        (PExponent(2), "q"),
        (ZWindow(1), "radius"),
        (KLEIN, "mult"),
        (KLEIN, "identity"),
        (KLEIN, "inverse"),
        (cyclic_group(3), "order"),
        (FolnerSet(ZWindow(1), (0,)), "carrier"),
        (FolnerSet(ZWindow(1), (0,)), "members"),
        (ConcreteAlgebra(2), "base_dim"),
        (part, "points"),
        (part, "bumps"),
        (part, "cover"),
    ]


@pytest.mark.parametrize("record, name", _read_only_fields(),
                         ids=lambda x: x if isinstance(x, str) else type(x).__name__)
def test_assigning_a_field_of_a_read_only_record_raises(record, name):
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, before)
    assert getattr(record, name) is before


def _functions(node, prefix: str):
    """(qualified name, node) of every function under ``node``, methods and
    nested functions included."""
    for child in ast.iter_child_nodes(node):
        named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        name = f"{prefix}.{child.name}" if named else prefix
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield name, child
        yield from _functions(child, name)


def _bypasses(node) -> int:
    """The uses of ``object.__setattr__`` under ``node``."""
    return sum(isinstance(n, ast.Attribute) and ast.unparse(n) == "object.__setattr__" for n in ast.walk(node))


def test_only_record_keeps_fields_fixed_and_compares_them():
    # groups.Record is the one place that refuses assignment, defines value
    # equality and hashing, and sets fields past that refusal
    defined, bypassing, bypasses = [], [], 0
    for path in sorted(Path(lpalg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        functions = list(_functions(tree, path.stem))
        defined += [name for name, func in functions if func.name in ("__setattr__", "__eq__", "__hash__")]
        bypassing += [name for name, func in functions if _bypasses(func)]
        bypasses += _bypasses(tree)
    assert sorted(defined) == ["groups.Record.__eq__", "groups.Record.__hash__", "groups.Record.__setattr__"]
    assert (bypassing, bypasses) == (["groups.Record._set"], 1)
    for cls in (PExponent, ConcreteAlgebra, FiniteGroup, CyclicGroup, ZWindow, FolnerSet, PartitionOfUnity):
        assert issubclass(cls, Record), cls


def test_number_records_construct_by_position_keyword_and_default():
    assert PExponent(3).p == PExponent(p=3).p == 3.0 and PExponent(3).q == 1.5
    assert ZWindow().radius == 0 and ZWindow(2).radius == ZWindow(radius=2).radius == 2
    assert ConcreteAlgebra(3).base_dim == ConcreteAlgebra(base_dim=3).base_dim == 3
    w = np.ones(2) / 2
    for est in (PNormEstimate(1.5, w, "exact", True, 0),
                PNormEstimate(value=1.5, witness=w, method="exact", converged=True, restarts_used=0)):
        assert est.witness is w
        assert (est.value, est.method, est.converged, est.restarts_used) == (1.5, "exact", True, 0)


def test_group_records_construct_by_position_and_keyword():
    positional = FiniteGroup(KLEIN.mult, 0, KLEIN.inverse)
    keyword = FiniteGroup(mult=KLEIN.mult, identity=0, inverse=KLEIN.inverse)
    for g in (positional, keyword):
        assert (g.mult is KLEIN.mult, g.identity, g.inverse is KLEIN.inverse, g.order) == (True, 0, True, 4)
    for fset in (FolnerSet(ZWindow(2), [1, 0]), FolnerSet(carrier=ZWindow(2), members=[1, 0])):
        assert (fset.carrier, fset.members, fset.size) == (ZWindow(2), (0, 1), 2)


def test_certificate_records_construct_by_position_keyword_and_default():
    first, second = CbEstimate(), CbEstimate()
    assert (first.levels, first.kind) == ([], "sampled_lower")
    first.levels.append((1, 0.5))
    assert second.levels == []  # a fresh list each time
    levels = [(1, 1.0)]
    for cb in (CbEstimate(levels, "structural"), CbEstimate(levels=levels, kind="structural")):
        assert cb.levels is levels and cb.kind == "structural" and cb.best == 1.0

    ident, cb = compression(np.arange(2), 2), compression_cb(np.arange(2), 2)
    plain = Factorization(ident, ident, cb, cb)
    assert (plain.roundtrip_errors, plain.p, plain.target_dim) == ({}, 2.0, 2)
    assert plain.roundtrip_errors is not Factorization(ident, ident, cb, cb).roundtrip_errors
    errors = {"x": 0.0}
    for fact in (Factorization(ident, ident, cb, cb, errors, 3.0),
                 Factorization(phi=ident, psi=ident, phi_cb=cb, psi_cb=cb, roundtrip_errors=errors, p=3.0)):
        assert (fact.phi, fact.psi, fact.phi_cb, fact.psi_cb) == (ident, ident, cb, cb)
        assert fact.roundtrip_errors is errors and fact.p == 3.0


def test_walk_and_partition_construct_by_position_keyword_and_default():
    m = np.eye(2)
    walk = _Walk(m, 0.5, 1.0, [])
    assert (walk.m is m, walk.ratio, walk.scale, walk.steps, walk.sigma) == (True, 0.5, 1.0, [], 0.25)
    assert _Walk(m=m, ratio=0.5, scale=1.0, steps=[], sigma=2.0).sigma == 2.0
    walk.sigma *= 0.5  # a walk is updated in place
    assert walk.sigma == 0.125

    good = circle_partition(6, 3)
    for part in (PartitionOfUnity(good.points, good.bumps, good.cover),
                 PartitionOfUnity(points=list(good.points), bumps=good.bumps.tolist(), cover=good.cover)):
        assert part.points == (0, 2, 4) and part.n_bumps == 3 and part.n_points == 6
        assert np.array_equal(part.bumps, good.bumps) and np.array_equal(part.cover, good.cover)
