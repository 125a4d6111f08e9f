"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` or, equivalently, through
the CLI as ``switchlab verify-lemmas``.
"""

import pytest

from switchlab import verify as verify_mod
from switchlab.verify import CHECKS, run_check

CRITERIA = [name for name, _ in CHECKS]


@pytest.mark.parametrize("name", CRITERIA)
def test_acceptance(name):
    result = run_check(name)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status}: {result.name} ({result.seconds:.2f}s) - {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_collapse_trichotomy_failure_names_the_pair_as_color_lists(monkeypatch):
    monkeypatch.setattr(verify_mod, "collapse_witness", lambda c1, c2: None)
    passed, detail = verify_mod.check_collapse_trichotomy()
    assert not passed
    # the first homogeneous non-permutation pair: all ones against one 2 in the corner
    assert detail == "no collapse for pair ([[1, 1], [1, 1]], [[1, 1], [1, 2]])"
