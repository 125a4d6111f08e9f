"""The program keeps no rebindable module state and no ``assert`` checks.

A ``global`` or ``nonlocal`` statement lets one call rebind state that later
calls read, a policy no argument or return value shows.  State that must
outlive a call lives in a cache entry of the function that builds it.  An
``assert`` statement vanishes under ``python -O``, so a check the program
relies on raises instead.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _program_nodes(kinds):
    """``path:line`` of every node of the given kinds in ``src/`` and ``scripts/``."""
    found = []
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "scripts").rglob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, kinds):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    return found


def test_no_global_or_nonlocal_statement():
    found = _program_nodes((ast.Global, ast.Nonlocal))
    assert not found, found


def test_no_assert_statement():
    found = _program_nodes(ast.Assert)
    assert not found, found
