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
from switchlab.orbits import Action, CandidateGroup, GroupSpec
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


_PAD = (left_switch(0, S3Perm.from_cycle_string("(12)")),) * 8  # cancels: (12) has order 2

KILLED = [
    ("s3-table-fidelity", "one wrong _MUL entry", _wrong_product),
    ("edge-kill-locality", "edge_kill_word with its last two switches swapped",
     wrap(switches, "edge_kill_word", lambda w, *_: SwitchWord(w.ops[:2] + w.ops[:1:-1]))),
    ("monochromatization", "each word padded with 8 cancelling switches",
     wrap(switches, "monochromatize", lambda w, *_: SwitchWord(w.ops + _PAD))),
    ("monochromatization", "monochromatize returns the empty word",
     replace(switches, "monochromatize", lambda g, target: SwitchWord(()))),
    ("orbit-engine", "no vertex permutations",
     replace(orbits, "vertex_perm_actions", lambda m, n: [])),
    ("h12-closure", "switch_actions keeps only the first sigma",
     wrap(orbits, "switch_actions", lambda actions, side_left, sigmas, m, n: actions[::max(1, len(sigmas))])),
    ("h12-closure", "join returns its first argument", replace(orbits, "join", lambda p1, p2: p1)),
    ("h12-closure", "join returns its second argument", replace(orbits, "join", lambda p1, p2: p2)),
    ("redu-saturation", "generators_for without its switch actions",
     wrap(orbits, "generators_for", lambda actions, *_: [a for a in actions if not a.recolor])),
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
    ("swap-duality", "is_isomorphic ignores allow_swap",
     replace(graphs, "is_isomorphic", lambda g1, g2, allow_swap=False, real=graphs.is_isomorphic: real(g1, g2))),
    ("swap-duality", "generators_for drops the side swap",
     replace(orbits, "generators_for", _without_swap(orbits.generators_for))),
    ("swap-duality", "transpose_action gives the identity",
     replace(orbits, "transpose_action", lambda m, n: Action("swapSides", tuple(range(m * n))))),
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
