"""Every name a package module or script imports is used in it.

pyflakes is not a dependency, so the check walks the syntax tree: an
imported name counts as used when it appears as a name anywhere in the
module, in a quoted annotation, or in `__all__`.
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
