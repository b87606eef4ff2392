"""Every function, class and method defined in the package is used somewhere.

A definition counts as used when src/, tests/ or bench/ mention its name as a
name, as an attribute, or as a word of a string constant other than a
docstring.  Dunder methods are called by the language and are exempt.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text())


def test_every_definition_in_the_package_is_referenced():
    defined = {}
    for path, tree in _trees("src/apolar"):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.setdefault(node.name, f"{path.relative_to(ROOT)}:{node.lineno}")
    used = set()
    for _, tree in _trees("src", "tests", "bench"):
        docstrings = {
            id(node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if id(node) not in docstrings:
                    used.update(re.findall(r"\w+", node.value))
    unused = sorted(f"{where} {name}" for name, where in defined.items() if name not in used)
    assert not unused, "defined but never referenced: " + ", ".join(unused)


def _exported(tree) -> set:
    """The names a module lists in ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def test_every_import_in_the_package_is_used():
    """No module imports a name it never uses; ``__all__`` re-exports and
    ``__future__`` imports are exempt."""
    unused = []
    for path, tree in _trees("src/apolar"):
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in imported.items()
            if name not in used and name not in _exported(tree)
        ]
    assert not unused, "imported but never used: " + ", ".join(sorted(unused))


def test_every_stored_attribute_is_read():
    """Every attribute the package stores as ``self.X = ...`` is read as an
    attribute somewhere in src/, tests/ or bench/."""
    stored = {}
    for path, tree in _trees("src/apolar"):
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for t in (t for target in targets for t in ast.walk(target)):
                    if (
                        isinstance(t, ast.Attribute)
                        and isinstance(t.ctx, ast.Store)
                        and isinstance(t.value, ast.Name)
                        and t.value.id == "self"
                    ):
                        stored.setdefault(t.attr, f"{path.relative_to(ROOT)}:{t.lineno}")
    read = {
        node.attr
        for _, tree in _trees("src", "tests", "bench")
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = sorted(f"{where} {name}" for name, where in stored.items() if name not in read)
    assert not unread, "stored but never read: " + ", ".join(unread)
