"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` or, equivalently, through
the CLI as ``switchlab verify-lemmas``.
"""

import pytest

from switchlab import verify as verify_mod
from switchlab.orbits import GroupSpec
from switchlab.verify import CHECKS, run_check

CRITERIA = [name for name, _ in CHECKS]

#: Each check's detail line; the counts in them are part of the output contract.
DETAILS = {
    "s3-table-fidelity": "12 products, 6 subgroups, all distinct nontrivial pairs generate S3",
    "edge-kill-locality": "167832 word applications, all local",
    "monochromatization": "500 colorings of K_{4,4} monochromatized within bound",
    "orbit-engine": "Aut=27 (oracle match), full group transitive, identity-only trivial",
    "h12-closure": "all 6 subgroup pairs saturate the full left-switch closure at (2,2) and (3,2)",
    "redu-saturation": "all 6 non-commuting subgroup pairs saturated at K_{2,2}",
    "collapse-trichotomy": "all 81x81 pairs consistent (882 collapse cases verified)",
    "sfsp-formula": (
        "ratio limits within 1e-3; estimates (n=16: 1.000, n=20: 1.000, n=24: 1.000) "
        "below clamped bounds"
    ),
    "candidate-census": "16 candidates; 0 collision(s) at (3,3): []; Aut strictly refines all others",
    "swap-duality": "200 swap isomorphisms verified; transpose merge exact for 6 candidates",
}


@pytest.mark.parametrize("name", CRITERIA)
def test_acceptance(name):
    result = run_check(name)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status}: {result.name} ({result.seconds:.2f}s) - {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"
    assert result.detail == DETAILS[name]


def test_collapse_trichotomy_failure_names_the_pair_as_color_lists(monkeypatch):
    monkeypatch.setattr(verify_mod, "collapse_witness", lambda c1, c2: None)
    passed, detail = verify_mod.check_collapse_trichotomy()
    assert not passed
    # the first homogeneous non-permutation pair: all ones against one 2 in the corner
    assert detail == "no collapse for pair ([[1, 1], [1, 1]], [[1, 1], [1, 2]])"


def test_swap_duality_fails_when_the_swap_merges_no_orbits(monkeypatch):
    # every swapped partition replaced by its candidate's base partition
    real = verify_mod.orbit_partition
    monkeypatch.setattr(
        verify_mod, "orbit_partition",
        lambda spec, m, n: real(GroupSpec(spec.h_left, spec.h_right), m, n),
    )
    passed, detail = verify_mod.check_swap_duality()
    assert not passed
    assert detail == "Aut: swap orbits differ from transpose merge"
