"""The lazy package namespace and the module list README documents."""

import ast
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
