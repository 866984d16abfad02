"""Every name that other code looks up in lpalg by string resolves.

``perfbench/layertrace.py`` patches the functions it times by module and
attribute name, so a renamed or deleted function breaks only traced
benchmark runs.  These tests read its name tables from the source, without
importing or running anything there, and resolve each entry, together with
every entry of every lpalg module's ``__all__``.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import lpalg
from lpalg.crossed import ConcreteAlgebra, CovariantRep, cyclic_coordinate_rotation
from lpalg.groups import FolnerSet, cyclic_group

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"
CARRIER_TYPES = {"CyclicGroup", "FiniteGroup", "ZWindow"}


def _tracer_tables() -> dict:
    """SPANS, HOT and PHI_MAP of the layer tracer, as literals."""
    tables = {}
    for node in ast.parse(LAYERTRACE.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SPANS", "HOT", "PHI_MAP"):
                tables[name] = ast.literal_eval(node.value)
    assert sorted(tables) == ["HOT", "PHI_MAP", "SPANS"]
    return tables


def _traced_names() -> list:
    tables = _tracer_tables()
    return [f"{mod}:{name}" for mod, name in (*tables["SPANS"], *tables["HOT"], tables["PHI_MAP"])]


@pytest.mark.parametrize("traced", _traced_names())
def test_every_traced_name_resolves(traced):
    modname, qualname = traced.split(":")
    module = importlib.import_module(modname)
    if "." in qualname:  # the tracer replaces the attribute of the class itself
        cls_name, attr = qualname.split(".")
        assert attr in vars(getattr(module, cls_name)), qualname
    else:
        assert callable(getattr(module, qualname)), qualname


def test_the_traced_phi_map_keeps_its_apply_function():
    # the tracer times the F-compression by swapping the map's _apply_fn
    modname, qualname = _tracer_tables()["PHI_MAP"]
    rep = CovariantRep(ConcreteAlgebra(3), cyclic_coordinate_rotation(3, 1), 1.5)
    phi = getattr(importlib.import_module(modname), qualname)(FolnerSet(cyclic_group(3), (0, 1)), rep)
    assert callable(phi._apply_fn)
    t = np.arange(81.0).reshape(9, 9)
    assert np.array_equal(phi._apply_fn(t.astype(complex)), phi.apply(t))


def _modules():
    names = [f"lpalg.{info.name}" for info in pkgutil.iter_modules(lpalg.__path__) if info.name != "__main__"]
    return ["lpalg", *names]


@pytest.mark.parametrize("modname", _modules())
def test_every_exported_name_resolves(modname):
    module = importlib.import_module(modname)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("modname", [m for m in _modules() if m != "lpalg.groups"])
def test_no_module_outside_groups_asks_for_a_carrier_type(modname):
    # every group question goes to the carrier's protocol, whatever its type
    tree = ast.parse(Path(importlib.import_module(modname).__file__).read_text())
    asked = [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2
        and {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.args[1])} & CARRIER_TYPES
    ]
    assert asked == []


@pytest.mark.parametrize("modname", _modules())
def test_no_module_imports_another_modules_private_name(modname):
    # a private name is its module's own; another module that needs it
    # calls the public function built on it
    tree = ast.parse(Path(importlib.import_module(modname).__file__).read_text())
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("lpalg"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_groups_imports_nothing_from_lpalg_but_errors():
    # the carriers know no norm: the translation operators are built in crossed
    tree = ast.parse(Path(importlib.import_module("lpalg.groups").__file__).read_text())
    imported = {
        node.module.removeprefix("lpalg.")
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("lpalg"))
    }
    assert imported == {"errors"}
