"""No dead code in the package: every import is named by its module, and
every module-level function, class or constant, and every method or
property of a module-level class but the dunder ones, is referred to by
some file of ``src/`` or ``perfbench/`` (the tests do not count)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the package version, and poisson's hook for attributes made on first access
EXEMPT = {("__init__", "__version__"), ("poisson", "__getattr__")}


def parsed(paths):
    return {path.relative_to(ROOT).as_posix(): ast.parse(path.read_text(), filename=str(path))
            for path in paths}


def referenced(tree, skip=None, imports=True):
    """The names ``tree`` loads or reads as an attribute, outside the node
    ``skip``; with ``imports``, also the names it imports from a module."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and imports:
            names.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return names


def defined(tree):
    """(name, its definition node) of each module-level function, class and
    assigned name, and (``Class.method``, its node) of each method or
    property of a module-level class whose name is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if (isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (method.name.startswith("__") and method.name.endswith("__"))):
                    yield f"{node.name}.{method.name}", method


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
        for name, node in defined(tree):
            if (stem, name) not in EXEMPT and not any(
                    name.rsplit(".", 1)[-1] in referenced(other, skip=node if other is tree
                                                          else None)
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
                       "def used():\n    return embed\n\n"
                       "def orphan(n):\n    return orphan(n - 1)\n\n"
                       "LIMIT, CAP = 3, 4\n\n"
                       "class Spec:\n    def __init__(self):\n        self.n = 1\n\n"
                       "    def called(self):\n        return self.spare\n\n"
                       "    @property\n    def spare(self):\n        return self.n\n\n"
                       "    def unused(self):\n        return self.unused()\n")
    caller = ast.parse("from .mod import used, Spec\nfrom . import mod\n\nx = mod.CAP\n"
                       "y = Spec().called()\n")
    modules = {"pkg/mod.py": module}
    assert unused_imports(modules) == ["pkg/mod.py:1 os", "pkg/mod.py:2 support_box"]
    assert unreferenced(modules, {**modules, "pkg/caller.py": caller}) == [
        "pkg/mod.py:7 orphan", "pkg/mod.py:10 LIMIT", "pkg/mod.py:23 Spec.unused"]
