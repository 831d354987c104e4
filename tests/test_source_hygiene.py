"""Static checks on the package source, by the stdlib `ast` module: no module
under src/sada imports a name it never uses, every private function or
method defined there is referenced somewhere there, and every module-level
all-caps constant there is read somewhere there. A deletion or a move that
leaves an import, a helper or a constant behind fails here."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sada"


def _trees():
    return {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _referenced(tree) -> set:
    """Every name read and every attribute taken in the tree."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _is_private(name) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_modules_are_found():
    assert {"citest.py", "graph.py", "framework.py"} <= set(_trees())


def test_every_import_is_used():
    unused = []
    for module, tree in _trees().items():
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [a.asname or a.name for a in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{module}: {name}" for name in imported if name not in used]
    assert unused == []


def test_every_private_function_is_referenced():
    trees = _trees()
    referenced = set().union(*map(_referenced, trees.values()))
    unreferenced = [f"{module}: {node.name}"
                    for module, tree in trees.items() for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and _is_private(node.name) and node.name not in referenced]
    assert unreferenced == []


def test_every_constant_is_read():
    trees = _trees()
    read = {node.id for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    constants = [(module, target.id) for module, tree in trees.items()
                 for node in tree.body if isinstance(node, ast.Assign) for target in node.targets
                 if isinstance(target, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", target.id)]
    assert constants
    assert [f"{module}: {name}" for module, name in constants if name not in read] == []
