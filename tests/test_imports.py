"""Every name a confolkit module imports is used there, every name it
exports is bound, and every public function is reached.

A name listed in the module's ``__all__`` counts as used (a re-export);
``from __future__`` imports are exempt.  Read with the stdlib ``ast``, so
no linter is needed.
"""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "confolkit"


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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_binds_every_exported_name(path):
    # a name deleted from the module but left in __all__ breaks
    # `from confolkit import *`; the import check above counts it as used
    name = "confolkit" if path.stem == "__init__" else f"confolkit.{path.stem}"
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []


# Public functions that nothing in src, no __all__ and no README text
# reaches, each kept for a reason outside the package.
UNREACHED_BY_DESIGN = {
    "flow_invariance_test": "a trace target of bench/layers.py",
    "rank_stratify": "a trace target of bench/layers.py",
    "open_book_contact_identity": "acceptance criterion 1 calls it",
    "print_document": "the printer round trip that test_cli checks",
}


def _references(node):
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _public_defs(tree):
    """Module-level functions and methods of module-level classes, without a
    leading underscore or a decorator other than classmethod, staticmethod
    or property."""
    for node in tree.body:
        for d in node.body if isinstance(node, ast.ClassDef) else [node]:
            if (isinstance(d, ast.FunctionDef) and not d.name.startswith("_")
                    and all(isinstance(x, ast.Name) and x.id in
                            ("classmethod", "staticmethod", "property")
                            for x in d.decorator_list)):
                yield d


def _unreached(trees, readme):
    """Names of public functions that no Name or Attribute outside their own
    body, no ``__all__`` and no backticked README text names.  The parser
    dispatches on "stmt_" + keyword, so its ``stmt_*`` methods count as
    used."""
    refs = sum((_references(t) for t in trees), Counter())
    exported = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(x, ast.Name) and x.id == "__all__"
                    for x in node.targets):
                exported |= set(ast.literal_eval(node.value))
    spans = re.findall(r"```(.*?)```|`([^`]+)`", readme, flags=re.S)
    documented = {w for span in spans
                  for w in re.findall(r"\w+", "".join(span))}
    return sorted(d.name for tree in trees for d in _public_defs(tree)
                  if refs[d.name] == _references(d)[d.name]
                  and d.name not in exported | documented
                  and not d.name.startswith("stmt_"))


def test_every_public_function_is_reached():
    trees = [ast.parse(p.read_text(), str(p))
             for p in sorted(SRC.glob("*.py"))]
    unreached = _unreached(trees, (ROOT / "README.md").read_text())
    assert unreached == sorted(UNREACHED_BY_DESIGN)


def test_unreached_function_is_reported():
    trees = [ast.parse("__all__ = ['kept']\n"
                       "def kept(): pass\n"
                       "def used(): pass\n"
                       "def loops(n): return loops(n - 1)\n"
                       "def _private(): pass\n"
                       "class C:\n"
                       "    @staticmethod\n"
                       "    def called(): return used()\n"
                       "    def doc(self): pass\n"
                       "    def stmt_x(self): pass\n"),
             ast.parse("C.called()\n")]
    assert _unreached(trees, "call `C().doc()`") == ["loops"]
