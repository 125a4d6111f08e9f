"""Every export is reached from an entry point.

The entry points are the CLI, the acceptance checks, the scripts and the
benchmark.  The names they read (``Name`` and ``Attribute`` nodes) are
closed over the bodies of the package definitions they name; every
``__all__`` entry, and every public method of a package class, must then be
in the closure.  A name that only tests reach belongs in ``tests/``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "switchlab"
ENTRY_POINTS = [
    PACKAGE / "cli.py",
    PACKAGE / "verify.py",
    *sorted((ROOT / "scripts").glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
]


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names_read(node):
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _definitions():
    """Top-level functions, classes and assignments of the package, by name."""
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            defs.setdefault(name.id, []).append(node)
    return defs


def _reached():
    defs = _definitions()
    reached = set()
    todo = set().union(*(_names_read(_parse(path)) for path in ENTRY_POINTS))
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for node in defs.get(name, ()):
            todo |= _names_read(node) - reached
    return reached


def _exports():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                for name in ast.literal_eval(node.value):
                    yield path.stem, name


def _public_methods():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield path.stem, f"{node.name}.{item.name}", item.name


def test_every_export_is_reached_from_an_entry_point():
    reached = _reached()
    exports = list(_exports())
    assert exports
    unreached = [f"{module}.{name}" for module, name in exports if name not in reached]
    assert not unreached, f"exports no entry point reaches: {unreached}"


def test_every_public_method_is_reached_from_an_entry_point():
    reached = _reached()
    unreached = [f"{module}.{qual}" for module, qual, name in _public_methods() if name not in reached]
    assert not unreached, f"methods no entry point reaches: {unreached}"
