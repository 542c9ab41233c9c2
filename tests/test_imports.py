"""Every name a package module or script imports is used in it, and no
private helper of the package is left behind unused.

pyflakes is not a dependency, so the checks walk the syntax tree: an
imported name counts as used when it appears as a name anywhere in the
module, in a quoted annotation, or in `__all__`. A module-level private
function or class, or a method of a private class, counts as used when
its name appears as a name or an attribute anywhere in the package.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*ROOT.glob("src/fanolines/*.py"), *ROOT.glob("scripts/*.py")])


def _names(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    used = _names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    used |= _names(ast.parse(sub.value, mode="eval"))
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_the_check_sees_an_unused_import():
    assert unused_imports("from .field import Field, FieldElement\n"
                          "def f(x: 'Field'): return x\n") == [(1, "FieldElement")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


PACKAGE = sorted(ROOT.glob("src/fanolines/*.py"))


def dead_private_code(sources):
    """`module.name` of every module-level private function or class, and
    every non-dunder method of a private class, that no module of
    `sources` (module name -> source text) references."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or not node.name.startswith("_")):
                continue
            if node.name not in used:
                dead.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                dead += [f"{module}.{node.name}.{item.name}"
                         for item in node.body
                         if isinstance(item, ast.FunctionDef)
                         and not item.name.startswith("__")
                         and item.name not in used]
    return sorted(dead)


def test_the_check_sees_a_dead_private_helper():
    source = ("def _used(): return 1\n"
              "def _dead(): return 2\n"
              "class _Box:\n"
              "    def __init__(self): self.v = _used()\n"
              "    def live(self): return self.v\n"
              "    def stale(self): return 0\n"
              "def public(): return _Box().live()\n")
    assert dead_private_code({"m": source}) == ["m._Box.stale", "m._dead"]


def test_no_dead_private_code():
    assert dead_private_code({p.stem: p.read_text() for p in PACKAGE}) == []
