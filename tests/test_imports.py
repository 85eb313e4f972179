"""Each module of the package owns its private names: no module imports an
underscore name from another, so a shared step is public in the module that
owns it."""

import ast
from pathlib import Path

import tricent

PACKAGE = Path(tricent.__file__).resolve().parent


def test_no_module_imports_another_modules_private_name():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [f"{path.name}: from {'.' * node.level}{node.module or ''} "
                          f"import {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert not found, "\n".join(found)
