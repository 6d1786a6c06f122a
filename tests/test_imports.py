"""Module boundaries inside the package."""

import ast
from pathlib import Path

import unityroot


def test_no_private_name_imported_across_modules():
    # a private helper shared by two modules belongs behind a public name in
    # the module that owns it
    found = []
    for path in sorted(Path(unityroot.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("unityroot"):
                continue
            found += [f"{path.name}:{node.lineno} {alias.name}"
                      for alias in node.names if alias.name.startswith("_")]
    assert not found
