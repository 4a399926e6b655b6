"""Every name a confolkit module imports is used there.

A name listed in the module's ``__all__`` counts as used (a re-export);
``from __future__`` imports are exempt.  Read with the stdlib ``ast``, so
no linter is needed.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "confolkit"


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_uses_every_import(path):
    unused = _unused_imports(ast.parse(path.read_text(), str(path)))
    assert not unused, [f"{path.name}:{line}: {name}"
                        for line, name in unused]


def test_unused_import_is_reported():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os, numpy.linalg\nfrom a import b, c as d\n"
                     "__all__ = ['b']\nos.sep\n")
    assert _unused_imports(tree) == [(2, "numpy"), (3, "d")]
