"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` or, equivalently, through
the CLI as ``switchlab verify-lemmas``.
"""

import pytest

from switchlab import orbits as orbits_mod
from switchlab import verify as verify_mod
from switchlab.orbits import CandidateGroup, GroupSpec
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


def test_edge_kill_check_applies_few_tiled_words(monkeypatch):
    # the 167,832 (graph, edge, word) cases run as one word per (side size,
    # edge, pair) on the side-by-side copies: 4 * 18 + 9 * 18 applications
    calls, real = [], verify_mod.apply_word
    monkeypatch.setattr(verify_mod, "apply_word", lambda g, w: calls.append(g.n) or real(g, w))
    assert verify_mod.check_edge_kill() == (True, DETAILS["edge-kill-locality"])
    assert sorted(set(calls)) == [162, 3000] and len(calls) == 234


def test_edge_kill_failure_names_the_first_failing_copy(monkeypatch):
    # one wrong edge in the 501st K_{3,3} copy of the tiled graph
    real = verify_mod.apply_word

    def wrong(g, word):
        rows = [bytearray(r) for r in real(g, word).colors]
        if g.n == 3000:
            rows[2][1500] = rows[2][1500] % 3 + 1
        return verify_mod.ColoredBipartiteGraph(g.m, g.n, rows)
    monkeypatch.setattr(verify_mod, "apply_word", wrong)
    assert verify_mod.check_edge_kill() == (False, "failure at K33 seed 424700, edge (0,0)")


def test_collapse_trichotomy_failure_names_the_pair_as_color_lists(monkeypatch):
    monkeypatch.setattr(verify_mod, "collapse_witness", lambda c1, c2: None)
    passed, detail = verify_mod.check_collapse_trichotomy()
    assert not passed
    # the first homogeneous non-permutation pair: all ones against one 2 in the corner
    assert detail == "no collapse for pair ([[1, 1], [1, 1]], [[1, 1], [1, 2]])"


def test_candidate_census_fails_on_a_collision(monkeypatch):
    # S_lr^(12) built as a copy of S_l^(12): the two partitions at (3,3) coincide
    real = orbits_mod.enumerate_candidate_groups

    def with_copy(with_swap=False):
        cands = real(with_swap)
        spec = {c.name: c.spec for c in cands}["S_l^(12)"]
        return [CandidateGroup(c.name, spec) if c.name == "S_lr^(12)" else c for c in cands]

    monkeypatch.setattr(orbits_mod, "enumerate_candidate_groups", with_copy)
    monkeypatch.setattr(verify_mod, "enumerate_candidate_groups", with_copy)
    passed, detail = verify_mod.check_candidate_census()
    assert not passed
    assert detail == "1 collision(s) at (3,3): [['S_l^(12)', 'S_lr^(12)']]"


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
