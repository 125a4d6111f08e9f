"""The program keeps no rebindable module state.

A ``global`` or ``nonlocal`` statement lets one call rebind state that later
calls read, a policy no argument or return value shows.  State that must
outlive a call lives in a cache entry of the function that builds it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_no_global_or_nonlocal_statement():
    found = []
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "scripts").rglob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert not found, found
