"""The lazy package namespace and the module list README documents."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

import mixedhurwitz


def test_every_public_name_resolves_to_its_home_object():
    for name in mixedhurwitz.__all__:
        obj = getattr(mixedhurwitz, name)
        assert obj.__module__.startswith("mixedhurwitz."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_star_import_binds_every_public_name():
    ns = {}
    exec("from mixedhurwitz import *", ns)
    assert {name: ns[name] for name in mixedhurwitz.__all__} == \
        {name: getattr(mixedhurwitz, name) for name in mixedhurwitz.__all__}


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError):
        mixedhurwitz.no_such_name
    assert not hasattr(mixedhurwitz, "no_such_name")


def test_readme_layout_names_every_module():
    # the first column of each row of README's Layout table; a row for a path
    # outside the package (tests/references.py) names no module
    root = Path(__file__).resolve().parents[1]
    layout = (root / "README.md").read_text().split("## Layout", 1)[1]
    rows = re.findall(r"^\|([^|]*)\|", layout.split("\n## ", 1)[0], re.M)
    documented = {name for cell in rows for name in re.findall(r"`([^`/]+)`", cell)}
    package = {p.stem for p in (root / "src" / "mixedhurwitz").glob("*.py")}
    assert documented == package - {"__init__"}


def test_readme_names_every_refusal_bound():
    # a module-level name that ends in _LIMIT or starts with MAX_ is a bound a
    # route refuses work past; README names each as `module.NAME`
    # (DEFAULT_ORACLE_LIMIT is the default of a caller's limit, not a bound)
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    bounds = set()
    for path in (root / "src" / "mixedhurwitz").glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                name = getattr(target, "id", "")
                if ((name.endswith("_LIMIT") or name.startswith("MAX_"))
                        and name != "DEFAULT_ORACLE_LIMIT"):
                    bounds.add(f"{path.stem}.{name}")
    assert len(bounds) >= 10
    assert sorted(b for b in bounds if f"`{b}`" not in readme) == []


def test_every_imported_name_is_read():
    # no linter runs on this package or its tests: a name that an import
    # binds, in a function too, and that its module never reads is left over
    # from a move
    root = Path(__file__).resolve().parents[1]
    unread = []
    for path in sorted([*(root / "src" / "mixedhurwitz").glob("*.py"),
                        *(root / "tests").glob("*.py")]):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        bound = [alias.asname or alias.name.split(".")[0]
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 for alias in node.names]
        unread += [f"{path.stem}: {name}" for name in bound if name not in read]
    assert unread == []


def test_every_private_top_level_name_is_read():
    # a module-level function or class whose name starts with one underscore
    # is private to the package: one that nothing in src/ reads is left over
    # from a rewrite
    package = Path(__file__).resolve().parents[1] / "src" / "mixedhurwitz"
    trees = [ast.parse(path.read_text()) for path in package.glob("*.py")]
    private = {node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}
    assert len(private) >= 60
    assert sorted(private - read) == []


@pytest.mark.parametrize("module,name,args,message", [
    ("spectral", "oracle_C", (0, 2, (3,)), "omega has 2 slots, mu has 1"),
    ("tropical", "gw_vertex_multiplicity", ((1, 1, 1), (1, 1), -1, 1),
     "vertex genus -1 must be >= 0"),
    ("characters", "sector_value", (1, 0, 0, 0, (), -1), "degree -1 must be >= 0"),
    ("double_recursion", "disconnected_double", ("monotone", (2,), (2,), -1),
     "transposition count -1 must be >= 0"),
    ("partitions", "stirling", ("bogus", 0, 0), "unknown Stirling kind: bogus"),
], ids=["oracle_C-n", "vertex-genus", "sector-degree", "double-b", "stirling-kind"])
def test_entry_points_refuse_outside_input(module, name, args, message):
    from mixedhurwitz.errors import DomainError

    func = getattr(importlib.import_module(f"mixedhurwitz.{module}"), name)
    with pytest.raises(DomainError, match=re.escape(message)):
        func(*args)
