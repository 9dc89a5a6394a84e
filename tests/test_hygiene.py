"""Source hygiene of the library.

Every name a library module imports is read somewhere in it.  Every
top-level function is read by library code outside its own body; a public
one may instead be re-exported by __init__.py or be a click command.  No
two library modules define the same top-level name.
"""

import ast
import pathlib
import subprocess
import sys

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


def _unreferenced(keep):
    """file:name of every top-level function that no library code reads
    outside its own body, skipping those for which keep(name, node) holds."""
    trees = _library_trees()
    unused = []
    for fname, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or keep(node.name, node):
                continue
            elsewhere = set()
            for other, other_tree in trees.items():
                for top in other_tree.body:
                    if other == fname and top is node:
                        continue
                    elsewhere |= _names_read(top)
            if node.name not in elsewhere:
                unused.append("%s:%s" % (fname, node.name))
    return unused


def test_no_unreferenced_private_functions():
    # test-only helpers belong in tests/oracles.py, not in the library
    assert _unreferenced(lambda name, node: not name.startswith("_")) == []


def _reexported():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _is_click_command(node):
    """Decorated by click.group()/click.command() or a group's .command(...)."""
    return any(
        isinstance(d, ast.Call)
        and isinstance(d.func, ast.Attribute)
        and d.func.attr in ("command", "group")
        for d in node.decorator_list
    )


def test_no_unreferenced_public_functions():
    # a public helper that nothing calls and the package does not export is dead
    exported = _reexported()
    assert _unreferenced(
        lambda name, node: name.startswith("_") or name in exported or _is_click_command(node)
    ) == []


def _defined(tree):
    """The names a module binds at top level: functions, classes, assignments."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id


def test_no_name_is_defined_in_two_modules():
    # two private helpers of one name read as one routine in two places
    owners = {}
    for fname, tree in _library_trees().items():
        for name in set(_defined(tree)):
            owners.setdefault(name, []).append(fname)
    assert {name: files for name, files in owners.items() if len(files) > 1} == {}


def test_import_loads_no_module_before_a_call_needs_it():
    # -S keeps site hooks from preloading modules; the package needs none of
    # these until a cache, a CSV file, the CLI or scan workers are used
    late = ["dataclasses", "inspect", "hashlib", "tempfile", "csv", "click",
            "multiprocessing", "concurrent.futures"]
    code = ("import sys; sys.path.insert(0, %r); import qtkostka; "
            "print(*(m for m in %r if m in sys.modules))" % (str(SRC.parent), late))
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == []
