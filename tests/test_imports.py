"""Every name a package module or script imports is used in it, and no
helper of the package, private or public, is left behind unused.

pyflakes is not a dependency, so the checks walk the syntax tree: an
imported name counts as used when it appears as a name anywhere in the
module, in a quoted annotation, or in `__all__`. A module-level private
function or class, or a method of a private class, counts as used when
its name appears as a name or an attribute anywhere in the package. A
public function, class, method or module-level name bound by assignment
counts as used when its name appears outside its own definition as a
name or an attribute in the package, the scripts or the benchmark, in an
`__all__` list, or as a word in a string of the benchmark (its tracer
names the layers it wraps in strings). Likewise every public class
attribute is read as `.name`, and every defaulted parameter is set by
some call, outside the tests. Tests do not count: code that only tests
call belongs in `tests/conftest.py` as a named oracle. Every parameter
of a package function is read in its body, save where several classes
of a module define the method. Last, no dataclass of the package writes
its own `__init__`.
"""

import ast
import re
from collections import Counter
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


CALLERS = sorted([*ROOT.glob("scripts/*.py"), *ROOT.glob("verdictbench/*.py")])


def dead_public_code(package, callers, strings=()):
    """`module.name` of every public module-level function, class or name
    bound by assignment, and every public method of a public class, of
    `package` (module name -> source text) that is named nowhere outside
    its own definition: not as a name or an attribute in `package` or
    `callers` (more sources), in an `__all__` list, nor as a word in a
    string constant of `strings` (more sources)."""
    def named(tree):
        return Counter(n.id if isinstance(n, ast.Name) else n.attr
                       for n in ast.walk(tree)
                       if isinstance(n, (ast.Name, ast.Attribute)))

    trees = {module: ast.parse(text) for module, text in package.items()}
    used = Counter()
    for tree in [*trees.values(), *map(ast.parse, callers)]:
        used += named(tree)
        used.update(elt.value for node in tree.body
                    if isinstance(node, ast.Assign)
                    and _assigned(node) == ["__all__"]
                    for elt in node.value.elts)
    for text in strings:
        used.update(word for node in ast.walk(ast.parse(text))
                    if isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    for word in re.findall(r"\w+", node.value))

    def public(nodes):
        return [node for node in nodes
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")]

    dead = []
    for module, tree in trees.items():
        for node in public(tree.body):
            defs = [(f"{module}.{node.name}", node)]
            if isinstance(node, ast.ClassDef):
                defs += [(f"{module}.{node.name}.{item.name}", item)
                         for item in public(node.body)]
            dead += [label for label, item in defs
                     if used[item.name] <= named(item)[item.name]]
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                dead += [f"{module}.{name}" for name in _assigned(node)
                         if not name.startswith("_")
                         and used[name] <= named(node)[name]]
    return sorted(dead)


def _assigned(node):
    """The names a module-level assignment binds."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [n.id for target in targets for n in ast.walk(target)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]


def test_the_check_sees_dead_public_code():
    package = {"m": ("def used(): return 1\n"
                     "def recursive(n): return recursive(n - 1)\n"
                     "def listed(): return 2\n"
                     "class Box:\n"
                     "    def live(self): return used()\n"
                     "    def stale(self): return self.stale\n"
                     "LIMIT = 3\n"
                     "Alias = int\n"
                     "Spare: int = LIMIT\n"
                     "Exported = 4\n"
                     "__all__ = ['Exported']\n"),
               "n": "def helper(box): return box.live()\n"}
    assert dead_public_code(package, [], ['LAYERS = {"m": ("listed",)}']) == [
        "m.Alias", "m.Box", "m.Box.stale", "m.Spare", "m.recursive",
        "n.helper"]


def test_no_dead_public_code():
    assert dead_public_code(
        {p.stem: p.read_text() for p in PACKAGE},
        [p.read_text() for p in CALLERS],
        [p.read_text() for p in ROOT.glob("verdictbench/*.py")]) == []


def unread_class_attributes(package, callers):
    """`module.Class.name` of every public class attribute of `package`
    (module name -> source text), a class-body assignment or dataclass
    field, that no `.name` read in `package` or `callers` uses."""
    trees = {module: ast.parse(text) for module, text in package.items()}
    read = {n.attr for tree in [*trees.values(), *map(ast.parse, callers)]
            for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return sorted(f"{module}.{cls.name}.{name}"
                  for module, tree in trees.items()
                  for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                  for item in cls.body
                  if isinstance(item, (ast.Assign, ast.AnnAssign))
                  for name in _assigned(item)
                  if not name.startswith("_") and name not in read)


def test_the_check_sees_an_unread_class_attribute():
    package = {"m": ("@dataclass\n"
                     "class Box:\n"
                     "    size: int\n"
                     "    label: str = ''\n"
                     "    kind = 'box'\n"
                     "    _tag = 0\n"
                     "def area(box):\n"
                     "    box.label = 'sized'\n"
                     "    return box.size\n")}
    assert unread_class_attributes(package, ["print(Box.kind)"]) == [
        "m.Box.label"]


def test_no_unread_class_attributes():
    assert unread_class_attributes({p.stem: p.read_text() for p in PACKAGE},
                                   [p.read_text() for p in CALLERS]) == []


def unset_defaults(package, callers):
    """`module.function(param)` of every defaulted parameter of a function
    or method of `package` (module name -> source text) that no call in
    `package` or `callers` sets, by keyword or by position. A call counts
    when it names the function (the class, for `__init__`); a method's
    calls leave out self, and a `*` or `**` argument sets every parameter
    of its kind."""
    trees = {module: ast.parse(text) for module, text in package.items()}
    positional, keywords = {}, set()
    for tree in [*trees.values(), *map(ast.parse, callers)]:
        for call in ast.walk(tree):
            if isinstance(call, ast.Call):
                func = call.func
                name = getattr(func, "id", getattr(func, "attr", None))
                count = (float("inf") if any(isinstance(a, ast.Starred)
                                             for a in call.args)
                         else len(call.args))
                positional[name] = max(positional.get(name, 0), count)
                keywords |= {(name, k.arg) for k in call.keywords}
    unset = []
    for module, tree in trees.items():
        classes = {id(item): cls for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for item in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            cls = classes.get(id(fn))
            name = cls.name if cls and fn.name == "__init__" else fn.name
            params = fn.args.posonlyargs + fn.args.args
            first = len(params) - len(fn.args.defaults)
            defaulted = [(arg, i - bool(cls))
                         for i, arg in enumerate(params) if i >= first]
            defaulted += [(arg, None) for arg, default in zip(
                fn.args.kwonlyargs, fn.args.kw_defaults) if default]
            label = f"{module}.{cls.name + '.' if cls else ''}{fn.name}"
            unset += [f"{label}({arg.arg})" for arg, index in defaulted
                      if not {(name, arg.arg), (name, None)} & keywords
                      and (index is None
                           or positional.get(name, 0) <= index)]
    return sorted(unset)


def test_the_check_sees_an_unset_default():
    package = {"m": ("def scale(x, factor=2, shift=0, *, clip=None):\n"
                     "    return x\n"
                     "class Box:\n"
                     "    def __init__(self, size, unit='m'): pass\n"
                     "    def grow(self, by=1, to=None): return self\n"
                     "y = scale(1, 3)\n"
                     "z = Box(2).grow(to=5)\n")}
    callers = ["Box(1).grow(2)"]
    assert unset_defaults(package, callers) == [
        "m.Box.__init__(unit)", "m.scale(clip)", "m.scale(shift)"]
    package["n"] = "def spread(**kw): return scale(0, **kw)\n"
    assert unset_defaults(package, callers) == ["m.Box.__init__(unit)"]


# Defaulted parameters that no caller sets, each kept for its reason.
UNSET_KEPT = {
    # a test seam: tests force band and pool boundaries on small inputs
    "scan.variety_scan(chunk)",
    # benchmark-pinned: verdictbench's LAYERS traces is_member by name, and
    # ROADMAP item 2 decides its fate
    "groebner.is_member(order)",
}


def test_no_unset_defaults():
    unset = unset_defaults({p.stem: p.read_text() for p in PACKAGE},
                           [p.read_text() for p in CALLERS])
    assert unset == sorted(UNSET_KEPT)


def unread_parameters(package):
    """`module.function(param)` of every parameter of a function or
    method of `package` (module name -> source text) that its body never
    reads, a method's self or cls aside. A method whose name several
    classes of its module define is exempt: the classes share one
    interface, and not every class needs every argument."""
    unread = []
    for module, text in package.items():
        tree = ast.parse(text)
        owner = {id(item): cls for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) for item in cls.body
                 if isinstance(item, ast.FunctionDef)}
        shared = Counter(fn.name for fn in ast.walk(tree) if id(fn) in owner)
        for fn in ast.walk(tree):
            cls = owner.get(id(fn))
            if not isinstance(fn, ast.FunctionDef) or (
                    cls and shared[fn.name] > 1):
                continue
            args = fn.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                      *filter(None, (args.vararg, args.kwarg))]
            if cls and not any(getattr(d, "id", None) == "staticmethod"
                               for d in fn.decorator_list):
                params = params[1:]
            read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            label = f"{module}.{cls.name + '.' if cls else ''}{fn.name}"
            unread += [f"{label}({arg.arg})" for arg in params
                       if arg.arg not in read]
    return sorted(unread)


def test_the_check_sees_an_unread_parameter():
    package = {"m": ("def lift(sub, field, *rest):\n"
                     "    return build(field)\n"
                     "def scale(x, *, by=2): return lambda: x * by\n"
                     "class Box:\n"
                     "    def grow(self, by): return self\n"
                     "    @staticmethod\n"
                     "    def make(size): return Box()\n"
                     "class Shape:\n"
                     "    def area(self, unit): return 0\n"
                     "class Square(Shape):\n"
                     "    def area(self, unit): return unit\n")}
    assert unread_parameters(package) == [
        "m.Box.grow(by)", "m.Box.make(size)", "m.lift(rest)", "m.lift(sub)"]


def test_no_unread_parameters():
    assert unread_parameters({p.stem: p.read_text() for p in PACKAGE}) == []


def dataclasses_with_init(package):
    """`module.Class` of every class of `package` (module name -> source
    text) decorated with `dataclass`, called or not, that writes its own
    `__init__`; the decorator then adds only what the class did not ask
    for."""
    found = []
    for module, text in package.items():
        for cls in ast.walk(ast.parse(text)):
            if not isinstance(cls, ast.ClassDef):
                continue
            decorators = [d.func if isinstance(d, ast.Call) else d
                          for d in cls.decorator_list]
            if (any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass"
                    for d in decorators)
                    and any(isinstance(item, ast.FunctionDef)
                            and item.name == "__init__" for item in cls.body)):
                found.append(f"{module}.{cls.name}")
    return sorted(found)


def test_the_check_sees_a_dataclass_with_its_own_init():
    package = {"m": ("@dataclass(eq=False)\n"
                     "class Box:\n"
                     "    size: int\n"
                     "    def __init__(self, size): self.size = size\n"
                     "@dataclasses.dataclass\n"
                     "class Crate:\n"
                     "    def __init__(self): pass\n"
                     "@dataclass(frozen=True)\n"
                     "class Bag:\n"
                     "    size: int\n"
                     "    def __post_init__(self): pass\n"
                     "class Tin:\n"
                     "    def __init__(self): pass\n")}
    assert dataclasses_with_init(package) == ["m.Box", "m.Crate"]


def test_no_dataclass_writes_its_own_init():
    assert dataclasses_with_init(
        {p.stem: p.read_text() for p in PACKAGE}) == []
