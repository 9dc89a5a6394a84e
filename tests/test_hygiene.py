"""Source hygiene of the library.

Every name a library module imports is read somewhere in it, and every
private top-level function is called from library code outside its own body.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "qtkostka"


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted((line, name) for name, line in bound.items() if name not in read)


# __init__.py imports only to re-export.
@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def _library_trees():
    return {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


def _names_read(node):
    """Names read in node, as a bare name or as an attribute."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def test_no_unreferenced_private_functions():
    # test-only helpers belong in tests/oracles.py, not in the library
    trees = _library_trees()
    unused = []
    for fname, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or not node.name.startswith("_"):
                continue
            elsewhere = set()
            for other, other_tree in trees.items():
                for top in other_tree.body:
                    if other == fname and top is node:
                        continue
                    elsewhere |= _names_read(top)
            if node.name not in elsewhere:
                unused.append("%s:%s" % (fname, node.name))
    assert unused == []
