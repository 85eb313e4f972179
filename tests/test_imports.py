"""Each module of the package owns its private names: no module imports an
underscore name from another, so a shared step is public in the module that
owns it. And no top-level name of the package is dead: each is named
somewhere other than its own definition."""

import ast
from pathlib import Path

import tricent

PACKAGE = Path(tricent.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]


def test_no_module_imports_another_modules_private_name():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [f"{path.name}: from {'.' * node.level}{node.module or ''} "
                          f"import {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert not found, "\n".join(found)


def top_level_names(tree):
    """The functions, classes and constants that a module's top level defines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            yield from (n.id for n in ast.walk(node)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))


def named_in(tree):
    """Every name that code reads, imports or reaches as an attribute; a
    definition or an assignment does not name what it defines."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_top_level_name_of_the_package_is_named_elsewhere():
    named = set()
    for folder in (PACKAGE, ROOT / "tests", ROOT / "demos", ROOT / "perfbench"):
        for path in sorted(folder.rglob("*.py")):
            named.update(named_in(ast.parse(path.read_text(encoding="utf-8"))))
    dead = [f"{path.name}: {name}" for path in sorted(PACKAGE.glob("*.py"))
            for name in top_level_names(ast.parse(path.read_text(encoding="utf-8")))
            if name not in named and name != "__version__"]
    assert not dead, "\n".join(dead)
