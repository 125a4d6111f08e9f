"""Every acceptance check shown able to fail: one row per (check, mutant).

A row plants its mutant with ``monkeypatch`` and asserts that the check
fails.  A name is patched in every switchlab module that looks it up, so a
mutant reaches the check through the library's own calls too.  A mutant a
check survives today is a strict xfail with its reason: once a stronger
check kills it, the row fails until it moves to the killed rows.
"""

import sys

import pytest

from switchlab import graphs, orbits, randomlab, s3, switches, verify
from switchlab.graphs import constant_graph
from switchlab.orbits import CandidateGroup, EdgePerm, GroupSpec, Recoloring
from switchlab.randomlab import BoundEval, BoundRatioReport, FailureEstimate
from switchlab.s3 import S3Perm
from switchlab.switches import SwitchWord, left_switch


def patch_everywhere(monkeypatch, module, name, value):
    original = getattr(module, name)
    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] == "switchlab" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, value)


def wrap(module, name, change):
    """A mutant of ``module.name`` that calls the original and changes its result."""
    real = getattr(module, name)
    return lambda mp: patch_everywhere(mp, module, name, lambda *args, **kw: change(real(*args, **kw), *args))


def replace(module, name, fake):
    return lambda mp: patch_everywhere(mp, module, name, fake)


def _wrong_product(mp):
    # compose((12), (123)) is (23); the mutant table says (13)
    c = S3Perm.from_cycle_string
    mp.setitem(s3._MUL, (c("(12)").image, c("(123)").image), c("(13)"))


def _estimate(rate):
    """An ``estimate_failure_prob`` whose failure rate at size n is ``rate(n)``."""
    return lambda n, k, trials, seed: FailureEstimate(n, k, trials, round(rate(n) * trials), rate(n), 0.0)


def _without_swap(real):
    return lambda spec, m, n, *rest: real(GroupSpec(spec.h_left, spec.h_right), m, n, *rest)


def entry_mutant(name, change):
    """A mutant of the orbit helper ``orbits.name`` whose results fill P's
    store entries, planted with a fresh store so that the entries are built
    by the mutant and dropped with it."""
    real = getattr(orbits, name)

    def plant(mp):
        mp.setattr(orbits, "_STORE", orbits._Store())
        mp.setattr(orbits, name, lambda *args: change(real(*args)))
    return plant


class _CountKeyedStore(orbits._Store):
    """An orbit store that keys each answer by its action count in place of its actions."""

    def fetch(self, key, build, need=0):
        return super().fetch(key[:2] + (len(key[2]),) if key[1:2] == ("answer",) else key, build, need)


def with_fresh_store(plant):
    """A mutant of a move builder planted with a fresh orbit store, so that the
    generator lists the store keeps are built by the mutant and dropped with it."""
    def planted(mp):
        mp.setattr(orbits, "_STORE", orbits._Store())
        plant(mp)
    return planted


def _one_wrong_digit(row, at=-2):
    # by default the second largest least member's digit, whose recolored ids
    # stay in range, so only a check can see it; a wrong digit of id 0 or 1
    # sends a recolored id below 0, which the engine refuses itself
    row = row.copy()
    row[at] = (row[at] + 1) % 3
    return row


def _plans_keyed_by_sigma(real):
    """An ``apply_word`` whose per-op plans are keyed by the op's permutation:
    each op replays the support of the first op with its sigma."""
    def apply(g, word):
        first = {}
        return real(g, SwitchWord(tuple(first.setdefault(op.sigma, op) for op in word.ops)))
    return apply


_PAD = (left_switch(0, S3Perm.from_cycle_string("(12)")),) * 8  # cancels: (12) has order 2

KILLED = [
    ("s3-table-fidelity", "one wrong _MUL entry", _wrong_product),
    ("edge-kill-locality", "edge_kill_word with its last two switches swapped",
     wrap(switches, "edge_kill_word", lambda w, *_: SwitchWord(w.ops[:2] + w.ops[:1:-1]))),
    ("monochromatization", "each word padded with 8 cancelling switches",
     wrap(switches, "monochromatize", lambda w, *_: SwitchWord(w.ops + _PAD))),
    ("monochromatization", "monochromatize returns the empty word",
     replace(switches, "monochromatize", lambda g, target: SwitchWord(()))),
    ("monochromatization", "apply_word plans keyed by the op's permutation, not the op",
     replace(switches, "apply_word", _plans_keyed_by_sigma(switches.apply_word))),
    ("orbit-engine", "no vertex permutations",
     with_fresh_store(replace(orbits, "vertex_perm_actions", lambda m, n: []))),
    ("orbit-engine", "_recolor_action ignores sigma (identity lut)",
     with_fresh_store(replace(orbits, "_recolor_action",
                              lambda name, positions, sigma: Recoloring(name, positions, (0, 1, 2))))),
    ("orbit-engine", "each stored conjugate list missing its last conjugate",
     entry_mutant("_conjugates", lambda conjugates: conjugates[:-1])),
    ("h12-closure", "each digit row with one wrong entry", entry_mutant("_digit_row", _one_wrong_digit)),
    ("h12-closure", "switch_actions keeps only the first sigma",
     with_fresh_store(wrap(orbits, "switch_actions",
                           lambda actions, side_left, sigmas, m, n: actions[::max(1, len(sigmas))]))),
    ("h12-closure", "join returns its first argument", replace(orbits, "join", lambda p1, p2: p1)),
    ("h12-closure", "join returns its second argument", replace(orbits, "join", lambda p1, p2: p2)),
    ("redu-saturation", "generators_for without its switch actions",
     wrap(orbits, "generators_for", lambda actions, *_: [a for a in actions if isinstance(a, EdgePerm)])),
    ("redu-saturation", "join returns its first argument", replace(orbits, "join", lambda p1, p2: p1)),
    ("redu-saturation", "join returns its second argument", replace(orbits, "join", lambda p1, p2: p2)),
    ("collapse-trichotomy", "collapse_witness finds nothing",
     replace(graphs, "collapse_witness", lambda c1, c2: None)),
    ("collapse-trichotomy", "collapse_witness swaps the collapsed pair and the colour",
     wrap(graphs, "collapse_witness", lambda w, *_: w and (w[2], w[1], w[0]))),
    ("sfsp-formula", "bound ratios 1% high",
     wrap(randomlab, "bound_ratio_check",
          lambda r, *_: BoundRatioReport(r.k, r.m_max, r.limit, tuple(1.01 * x for x in r.ratios)))),
    ("sfsp-formula", "estimate rises with n",
     replace(randomlab, "estimate_failure_prob", _estimate(lambda n: float(n > 16)))),
    ("sfsp-formula", "sfsp_bound of 0",
     replace(randomlab, "sfsp_bound", lambda k, n: BoundEval(k, n, 0.0, 0.0))),
    ("candidate-census", "a duplicated candidate",  # sixteen names, the last with its neighbour's group
     wrap(orbits, "enumerate_candidate_groups",
          lambda groups, *_: groups[:-1] + [CandidateGroup(groups[-1].name, groups[-2].spec)])),
    ("candidate-census", "a candidate with a mixed non-commuting pair",
     wrap(orbits, "enumerate_candidate_groups",
          lambda groups, *_: groups[:-1] + [CandidateGroup("Sym_lr", GroupSpec(groups[1].spec.h_left,
                                                                               groups[5].spec.h_right))])),
    ("candidate-census", "refines always True",
     replace(orbits, "refines", lambda p1, p2: True)),
    ("candidate-census", "stored answers keyed by the action count alone",
     lambda mp: mp.setattr(orbits, "_STORE", _CountKeyedStore())),
    ("swap-duality", "is_isomorphic ignores allow_swap",
     replace(graphs, "is_isomorphic", lambda g1, g2, allow_swap=False, real=graphs.is_isomorphic: real(g1, g2))),
    ("swap-duality", "generators_for drops the side swap",
     replace(orbits, "generators_for", _without_swap(orbits.generators_for))),
    ("swap-duality", "transpose_action gives the identity",
     with_fresh_store(replace(orbits, "transpose_action", lambda m, n: EdgePerm("swapSides", tuple(range(m * n)))))),
]

SURVIVING = [
    ("sfsp-formula", "constant 0.0 estimate",
     "every graph at n = 16..24 fails, so only the ratio half can fail",
     replace(randomlab, "estimate_failure_prob", _estimate(lambda n: 0.0))),
    ("sfsp-formula", "constant 1.0 estimate",
     "the true rate at n = 16..24 is 1.0, which the clamped bound allows",
     replace(randomlab, "estimate_failure_prob", _estimate(lambda n: 1.0))),
    ("sfsp-formula", "random_graph gives the constant colour-1 graph",
     "a constant graph fails like every random graph at these sizes",
     replace(randomlab, "random_graph", lambda m, n, seed: constant_graph(m, n, 1))),
    ("sfsp-formula", "sfsp_bound scaled by 0.1",
     "the bound exceeds 10 at n = 16..24, so its clamped value stays 1",
     wrap(randomlab, "sfsp_bound", lambda b, *_: BoundEval(b.k, b.n, 0.1 * b.value, min(1.0, 0.1 * b.value)))),
]


@pytest.mark.parametrize(
    "name, mutant",
    [pytest.param(name, mutant, id=f"{name}: {what}") for name, what, mutant in KILLED]
    + [pytest.param(name, mutant, id=f"{name}: {what}", marks=pytest.mark.xfail(raises=AssertionError, strict=True, reason=why))
       for name, what, why, mutant in SURVIVING],
)
def test_check_fails_under_mutant(monkeypatch, name, mutant):
    mutant(monkeypatch)
    assert verify.run_check(name).passed is False


def test_every_check_has_a_killed_row():
    assert {name for name, _, _ in KILLED} == {name for name, _ in verify.CHECKS}


_CENSUS_SHAPES = [(2, 2), (3, 3), (2, 3), (3, 2), (2, 4), (4, 2), (2, 5), (5, 2)]


@pytest.mark.parametrize("m, n", _CENSUS_SHAPES)
def test_first_digit_row_entry_wrong_raises(monkeypatch, m, n):
    # id 0 is always a least member, and a digit of 1 moved by a lut taking
    # 1 to 0 ((12) or (132)) makes its recolored id negative, which ``take``
    # would wrap: every candidate with such a move raises, and the rest keep
    # their orbit counts
    cands = orbits.enumerate_candidate_groups(with_swap=m == n)
    counts = {c.name: orbits.orbit_partition(c.spec, m, n).orbit_count for c in cands}
    entry_mutant("_digit_row", lambda row: _one_wrong_digit(row, at=0))(monkeypatch)
    raised = set()
    for cand in cands:
        if any(isinstance(a, Recoloring) and a.lut[1] == 0 for a in orbits.generators_for(cand.spec, m, n)):
            with pytest.raises(ArithmeticError, match="below id 0"):
                orbits.orbit_partition(cand.spec, m, n)
            raised.add(cand.name)
    assert {"S_l^(12)", "S_r^(12)", "Sym_lr"} <= raised


@pytest.mark.parametrize("at", [0, 1])
def test_digit_row_mutants_below_id_0_raise_inside_the_check(monkeypatch, at):
    # the first and second least members' wrong digits: take used to wrap the
    # first silently past every check; h12-closure killed the second
    entry_mutant("_digit_row", lambda row: _one_wrong_digit(row, at))(monkeypatch)
    with pytest.raises(ArithmeticError, match="below id 0"):
        verify.run_check("h12-closure")
