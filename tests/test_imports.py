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


def _references(node, method=False):
    """How often ``node`` names each name: as an attribute, and unless
    ``method`` also as a bare Name."""
    kinds = ast.Attribute if method else (ast.Name, ast.Attribute)
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node) if isinstance(n, kinds))


def _public_defs(tree):
    """(def, is_method) for module-level functions and methods of
    module-level classes, without a leading underscore or a decorator other
    than classmethod, staticmethod or property."""
    for node in tree.body:
        method = isinstance(node, ast.ClassDef)
        for d in node.body if method else [node]:
            if (isinstance(d, ast.FunctionDef) and not d.name.startswith("_")
                    and all(isinstance(x, ast.Name) and x.id in
                            ("classmethod", "staticmethod", "property")
                            for x in d.decorator_list)):
                yield d, method


def _unreached(trees, readme):
    """Names of public functions that no Name or Attribute outside their own
    body, no ``__all__`` and no backticked README text names.  A method
    counts only attribute references: a bare Name of its spelling is some
    other binding, a local variable say.  The parser dispatches on
    "stmt_" + keyword, so its ``stmt_*`` methods count as used."""
    refs = {method: sum((_references(t, method) for t in trees), Counter())
            for method in (False, True)}
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
    return sorted(d.name for tree in trees for d, method in _public_defs(tree)
                  if refs[method][d.name] == _references(d, method)[d.name]
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
                       "    def stmt_x(self): pass\n"
                       "    def masked(self): pass\n"),
             ast.parse("C.called()\nmasked = 0\n")]
    assert _unreached(trees, "call `C().doc()`") == ["loops", "masked"]


def test_every_trace_target_resolves(monkeypatch):
    # the benchmark's layer tracer patches each (module, path) by name, and
    # only the benchmark would notice one that src no longer binds
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    layers = importlib.import_module("layers")
    missing = []
    for metric, module, path in layers.TARGETS:
        obj = importlib.import_module(module)
        for part in path.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(metric)
    assert missing == []
