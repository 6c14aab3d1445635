"""Source hygiene: the package keeps no import it does not use and no private
top-level function that nothing in it calls.

Read with the standard library's ``ast``, so an entry removed from the package
cannot leave its helpers or its imports behind.
"""

import ast
from pathlib import Path

import fracseries

SRC = Path(fracseries.__file__).resolve().parent
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _used_names(tree):
    """Every identifier the module reads: names, attributes, and the strings
    listed in ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.List) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def _imported_names(tree):
    """(line, bound name) of every import, the star and __future__ ones aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name


def test_every_import_is_used():
    unused = []
    for path in MODULES:
        tree = _tree(path)
        used = _used_names(tree)
        unused += [f"{path.name}:{line} {name}" for line, name in _imported_names(tree)
                   if name not in used]
    assert unused == []


def test_every_private_top_level_function_is_referenced():
    trees = {path.name: _tree(path) for path in MODULES}
    used = set()
    for tree in trees.values():
        used |= _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    dead = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in used
    ]
    assert dead == []
