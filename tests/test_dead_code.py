"""No dead code in the package: every import is named by its module, and
every module-level function, class or constant, and every method or
property of a module-level class but the dunder ones, is referred to by
some file of ``src/`` or ``perfbench/`` (the tests do not count).

A module-level name counts as referred to by its bare name, an attribute
read ``x.name`` or an import.  A method or property counts only through an
attribute read ``x.name``, so a local variable of the same name does not
hide it; a ``@staticmethod`` of class ``Cls`` only through ``Cls.name``
(bare, or the tail of a dotted path such as ``mod.Cls.name``),
``self.name`` or ``cls.name``, so ``np.zeros`` does not hide ``Cls.zeros``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the package version, and poisson's hook for attributes made on first access
EXEMPT = {("__init__", "__version__"), ("poisson", "__getattr__")}


def parsed(paths):
    return {path.relative_to(ROOT).as_posix(): ast.parse(path.read_text(), filename=str(path))
            for path in paths}


def referenced(tree, skip=None, imports=True):
    """What ``tree`` refers to outside the node ``skip``: each name it loads,
    ``.name`` for each attribute it reads, and ``owner.name`` when the
    attribute is read off a name or attribute ``owner``; with ``imports``,
    also the names it imports from a module."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(f".{node.attr}")
            owner = getattr(node.value, "id", getattr(node.value, "attr", None))
            if owner is not None:
                names.add(f"{owner}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and imports:
            names.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return names


def defined(tree):
    """(name, the references that count for it, its definition node) of each
    module-level function, class and assigned name, and of each method or
    property (named ``Class.method``) of a module-level class whose name is
    not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, {node.name, f".{node.name}"}, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, {name.id, f".{name.id}"}, node
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if (isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (method.name.startswith("__") and method.name.endswith("__"))):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in method.decorator_list)
                    uses = ({f"{owner}.{method.name}" for owner in (node.name, "self", "cls")}
                            if static else {f".{method.name}"})
                    yield f"{node.name}.{method.name}", uses, method


def unused_imports(modules):
    """``file:line name`` of each import that its module never names; a
    package's ``__init__`` imports are its exports."""
    unused = []
    for path, tree in modules.items():
        if path.endswith("__init__.py"):
            continue
        names = referenced(tree, imports=False)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in names:
                        unused.append(f"{path}:{node.lineno} {bound}")
    return unused


def unreferenced(modules, files):
    """``file:line name`` of each module-level name of ``modules`` that no
    tree of ``files`` refers to; a definition's own body (a recursive call)
    does not count."""
    dead = []
    for path, tree in modules.items():
        stem = path.rsplit("/", 1)[-1].removesuffix(".py")
        for name, uses, node in defined(tree):
            if (stem, name) not in EXEMPT and not any(
                    uses & referenced(other, skip=node if other is tree else None)
                    for other in files.values()):
                dead.append(f"{path}:{node.lineno} {name}")
    return dead


def test_the_package_has_no_unused_import_or_unreferenced_name():
    modules = parsed(sorted((ROOT / "src" / "magnetovar").glob("*.py")))
    files = {**modules, **parsed(sorted((ROOT / "perfbench").glob("*.py")))}
    assert unused_imports(modules) == []
    assert unreferenced(modules, files) == []


def test_the_checks_find_dead_code():
    module = ast.parse("import os.path\nfrom .grid import embed, support_box\n\n"
                       "def used():\n    scaled = embed\n    return scaled\n\n"
                       "def orphan(n):\n    return orphan(n - 1)\n\n"
                       "LIMIT, CAP = 3, 4\n\n"
                       "class Spec:\n    def __init__(self):\n        self.n = 1\n\n"
                       "    def called(self):\n        return self.spare + self.ones()\n\n"
                       "    @property\n    def spare(self):\n        return self.n\n\n"
                       "    def unused(self):\n        return self.unused()\n\n"
                       "    def scaled(self):\n        return self.n\n\n"
                       "    @staticmethod\n    def zeros():\n        return 0\n\n"
                       "    @staticmethod\n    def ones():\n        return 1\n\n"
                       "    @staticmethod\n    def make():\n        return Spec()\n")
    # Spec.called is used only as obj.called, Spec.make only as the tail of
    # a dotted path and Spec.ones only as self.ones; "scaled" is elsewhere
    # only a local variable, "zeros" only an attribute of another name
    caller = ast.parse("from .mod import used, Spec\nfrom . import mod\n\nx = mod.CAP\n"
                       "y = Spec().called()\nz = Other.zeros(3) + mod.Spec.make().n\n")
    modules = {"pkg/mod.py": module}
    assert unused_imports(modules) == ["pkg/mod.py:1 os", "pkg/mod.py:2 support_box"]
    assert unreferenced(modules, {**modules, "pkg/caller.py": caller}) == [
        "pkg/mod.py:8 orphan", "pkg/mod.py:11 LIMIT", "pkg/mod.py:24 Spec.unused",
        "pkg/mod.py:27 Spec.scaled", "pkg/mod.py:31 Spec.zeros"]
