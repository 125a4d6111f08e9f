"""Acceptance checks: the finitely checkable content of the classification.

Each check returns a CheckResult; ``run_all`` executes the list in order.
Seeds are fixed constants so every run is reproducible bit for bit.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .graphs import (
    constant_graph,
    graph_to_json,
    is_homogeneous,
    is_isomorphic,
    pointwise_color_permutation,
    collapse_witness,
    swap_sides,
    verify_iso_witness,
)
from .orbits import (
    GroupSpec,
    enumerate_candidate_groups,
    id_to_coloring,
    join,
    orbit_partition,
    partition_from_actions,
    partitions_equal,
    refines,
    single_edge_action,
    distinguish_candidates,
    vertex_perm_actions,
)
from .randomlab import bound_ratio_check, estimate_failure_prob, random_graph, sfsp_bound
from .s3 import (
    ALL_PERMS,
    FULL_SUBGROUP,
    IDENTITY,
    TRIVIAL_SUBGROUP,
    S3Perm,
    Subgroup,
    commutator,
    commutes,
    compose,
    enumerate_subgroups,
    noncommuting_witness,
    subgroup_generated,
)
from .switches import apply_word, edge_kill_word, monochromatize

__all__ = ["CheckResult", "CHECKS", "run_all"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _perm(s: str) -> S3Perm:
    return S3Perm.from_cycle_string(s)


def check_s3_table() -> tuple[bool, str]:
    """Composition table fidelity, subgroup census, and pair generation."""
    products = [
        ("(12)", "(123)", "(23)"),
        ("(123)", "(12)", "(13)"),
        ("(13)", "(123)", "(12)"),
        ("(123)", "(13)", "(23)"),
        ("(23)", "(123)", "(13)"),
        ("(123)", "(23)", "(12)"),
        ("(12)", "(13)", "(132)"),
        ("(13)", "(12)", "(123)"),
        ("(12)", "(23)", "(123)"),
        ("(23)", "(12)", "(132)"),
        ("(23)", "(13)", "(123)"),
        ("(13)", "(23)", "(132)"),
    ]
    for a, b, expected in products:
        got = compose(_perm(a), _perm(b))
        if got.cycle_string() != expected:
            return False, f"{a}{b} gave {got.cycle_string()}, expected {expected}"
    # the subgroups by exhaustive search: the identity with each subset of
    # the other five elements, kept when closed under composition
    others = [p for p in ALL_PERMS if not p.is_identity()]
    subsets = (frozenset({IDENTITY, *xs}) for r in range(6) for xs in itertools.combinations(others, r))
    found = sorted((Subgroup(s) for s in subsets if {compose(p, q) for p in s for q in s} <= s),
                   key=lambda h: (h.order, h.label))
    if len(found) != 6:
        return False, f"expected 6 subgroups, got {len(found)}"
    if tuple(h.order for h in found) != (1, 2, 2, 2, 3, 6):
        return False, f"unexpected subgroup orders {[h.order for h in found]}"
    subgroups = enumerate_subgroups()
    if list(subgroups) != found:
        return False, f"subgroup lattice {list(subgroups)} differs from the subset search's {found}"
    nontrivial = [h for h in subgroups if h.order > 1]
    for h1, h2 in itertools.combinations(nontrivial, 2):
        gen = subgroup_generated(h1.elements | h2.elements)
        if gen.order != 6:
            return False, f"{h1.label} with {h2.label} generated order {gen.order}"
    return True, "12 products, 6 subgroups, all distinct nontrivial pairs generate S3"


def check_edge_kill() -> tuple[bool, str]:
    """Four-switch words recolor exactly one edge, by the commutator."""
    pairs = [(f, g) for f in ALL_PERMS for g in ALL_PERMS if not commutes(f, g)]
    if len(pairs) != 18:
        return False, f"expected 18 non-commuting pairs, got {len(pairs)}"
    # each edge's 18 kill words and their commutators, built once per side size
    kills = {
        size: [(x, y, [(edge_kill_word(x, y, f, gp), commutator(f, gp)) for f, gp in pairs])
               for x in range(size) for y in range(size)]
        for size in (2, 3)
    }
    graphs = [(f"K22 id {cid}", id_to_coloring(2, 2, cid)) for cid in range(81)]
    graphs += [(f"K33 seed {424200 + t}", random_graph(3, 3, seed=424200 + t)) for t in range(1000)]
    applications = 0
    for label, g in graphs:
        for x, y, words in kills[g.m]:
            head, row, tail = g.colors[:x], bytearray(g.colors[x]), g.colors[x + 1:]
            for word, gamma in words:
                row[y] = gamma(g.colors[x][y])
                if apply_word(g, word).colors != (*head, bytes(row), *tail):
                    return False, f"failure at {label}, edge ({x},{y})"
                applications += 1
    return True, f"{applications} word applications, all local"


def check_monochromatize() -> tuple[bool, str]:
    """Every coloring reaches the constant coloring within the length bound."""
    for s in range(500):
        g = random_graph(4, 4, seed=77000 + s)
        word = monochromatize(g, 1)
        out = apply_word(g, word)
        if out != constant_graph(4, 4, 1):
            return False, f"seed {77000 + s}: result not constant"
        off = sum(1 for i, j in g.edges() if g.colors[i][j] != 1)
        if len(word) > 8 * off:
            return False, f"seed {77000 + s}: word length {len(word)} > {8 * off}"
    return True, "500 colorings of K_{4,4} monochromatized within bound"


def _burnside_count(m: int, n: int, colors: int = 3) -> int:
    """Independent orbit count for the vertex-permutation-only group on
    ``colors``-colorings: average of colors^(edge cycles) over all
    side-preserving vertex permutation pairs."""
    total = 0
    pairs = 0
    for pl in itertools.permutations(range(m)):
        for pr in itertools.permutations(range(n)):
            seen = set()
            cycles = 0
            for e in itertools.product(range(m), range(n)):
                if e in seen:
                    continue
                cycles += 1
                cur = e
                while cur not in seen:
                    seen.add(cur)
                    cur = (pl[cur[0]], pr[cur[1]])
            total += colors**cycles
            pairs += 1
    if total % pairs:
        raise ArithmeticError("Burnside sum is not divisible by the group order")
    return total // pairs


def check_orbit_engine() -> tuple[bool, str]:
    """Orbit counts against a cycle-counting oracle and structural anchors."""
    aut = orbit_partition(GroupSpec(TRIVIAL_SUBGROUP, TRIVIAL_SUBGROUP), 2, 2)
    oracle = _burnside_count(2, 2)
    if oracle != 27:
        return False, f"cycle-count oracle gave {oracle}, expected 27"
    if aut.orbit_count != oracle:
        return False, f"Aut orbits {aut.orbit_count} != oracle {oracle}"
    for m, n in ((2, 2), (2, 3)):
        full = orbit_partition(GroupSpec(FULL_SUBGROUP, FULL_SUBGROUP), m, n)
        if full.orbit_count != 1:
            return False, f"full group on K_{{{m},{n}}} has {full.orbit_count} orbits"
    # one edge's (12) recoloring, closed under conjugation by the vertex
    # permutations, recolors every edge, so the orbits are the colorings by
    # "color 3 or not" up to vertex permutations
    flip = single_edge_action(2, 2, 0, 0, _perm("(12)"))
    flips = partition_from_actions(vertex_perm_actions(2, 2) + [flip], 2, 2).orbit_count
    two_color = _burnside_count(2, 2, colors=2)
    if flips != two_color:
        return False, f"one edge recoloring under Aut gave {flips} orbits, oracle {two_color}"
    empty = partition_from_actions([], 2, 2)
    if empty.orbit_count != 81 or not np.array_equal(empty.labels, np.arange(81)):
        return False, "no-generator partition is not all singletons"
    return True, "Aut=27 (oracle match), full group transitive, identity-only trivial"


def check_h12_closure() -> tuple[bool, str]:
    """Two distinct nontrivial proper subgroups drive the same left-switch
    closure as the full subgroup."""
    proper = [h for h in enumerate_subgroups() if h.order in (2, 3)]
    for m, n in ((2, 2), (3, 2)):
        left = {h: orbit_partition(GroupSpec(h, TRIVIAL_SUBGROUP), m, n) for h in proper + [FULL_SUBGROUP]}
        for h1, h2 in itertools.combinations(proper, 2):
            if not partitions_equal(join(left[h1], left[h2]), left[FULL_SUBGROUP]):
                return False, f"{h1.label}+{h2.label} != S3 closure at ({m},{n})"
    return True, "all 6 subgroup pairs saturate the full left-switch closure at (2,2) and (3,2)"


def check_redu_saturation() -> tuple[bool, str]:
    """Commutator edge recolorings (edge-kill words realize them) add nothing
    for non-commuting side pairs.  At K_{2,2} this comes down to each mixed
    pair collapsing to one orbit, as the 3-cycle edge recolorings alone do;
    that one orbit must be the join of the pair's one-sided closures (11 and
    11, or 11 and 4 orbits), neither of which is it alone."""
    proper = [h for h in enumerate_subgroups() if h.order in (2, 3)]
    checked = 0
    for h1, h2 in itertools.combinations(proper, 2):
        gamma = commutator(*noncommuting_witness(h1, h2))
        base = orbit_partition(GroupSpec(h1, h2), 2, 2)
        edges = partition_from_actions([single_edge_action(2, 2, *e, gamma) for e in np.ndindex(2, 2)], 2, 2)
        if not partitions_equal(base, join(base, edges)):
            return False, f"saturation failed for ({h1.label}, {h2.label})"
        one_sided = [orbit_partition(GroupSpec(*hs), 2, 2) for hs in ((h1, TRIVIAL_SUBGROUP), (TRIVIAL_SUBGROUP, h2))]
        if any(partitions_equal(base, p) for p in one_sided) or not partitions_equal(base, join(*one_sided)):
            return False, f"({h1.label}, {h2.label}) is not the join of its one-sided closures"
        checked += 1
    if checked != 6:
        return False, f"expected 6 non-commuting pairs, found {checked}"
    return True, "all 6 non-commuting subgroup pairs saturated at K_{2,2}"


def check_collapse_trichotomy() -> tuple[bool, str]:
    """Homogeneous but non-permutation colorings always collapse two colors."""
    graphs = [id_to_coloring(2, 2, cid) for cid in range(81)]
    tested = 0
    for c1 in graphs:
        for c2 in graphs:
            if not is_homogeneous(c1, c2):
                continue
            if pointwise_color_permutation(c1, c2) is not None:
                continue
            witness = collapse_witness(c1, c2)
            if witness is None:
                pair = ", ".join(str(graph_to_json(c)["colors"]) for c in (c1, c2))
                return False, f"no collapse for pair ({pair})"
            i, j, k = witness
            flat1, flat2 = b"".join(c1.colors), b"".join(c2.colors)
            if i == j or i not in flat2 or j not in flat2:
                return False, f"bad collapse witness {witness}"
            if any(a != k for a, b in zip(flat1, flat2) if b in (i, j)):
                return False, f"collapse witness {witness} does not verify"
            tested += 1
    return True, f"all 81x81 pairs consistent ({tested} collapse cases verified)"


def check_sfsp_formula() -> tuple[bool, str]:
    """Bound ratio limits and Monte Carlo failure estimates against the bound."""
    for k, target in ((1, 26.0 / 27.0), (2, 728.0 / 729.0)):
        report = bound_ratio_check(k, 10_000)
        err = abs(report.ratios[-1] - target)
        if err >= 1e-3:
            return False, f"k={k} final ratio off by {err:.2e}"
    estimates = [
        estimate_failure_prob(n, 1, 2000, seed)
        for n, seed in ((16, 101), (20, 102), (24, 103))
    ]
    for small, large in zip(estimates, estimates[1:]):
        slack = 2.0 * (small.half_width + large.half_width)
        if large.failure_rate > small.failure_rate + slack:
            return False, (
                f"estimate rose from {small.failure_rate} (n={small.n}) "
                f"to {large.failure_rate} (n={large.n})"
            )
    for est in estimates:
        bound = sfsp_bound(est.k, est.n)
        if est.failure_rate > bound.clamped:
            return False, f"estimate {est.failure_rate} above bound {bound.clamped} at n={est.n}"
    rates = ", ".join(f"n={e.n}: {e.failure_rate:.3f}" for e in estimates)
    return True, f"ratio limits within 1e-3; estimates ({rates}) below clamped bounds"


def check_candidate_census() -> tuple[bool, str]:
    """Sixteen candidates, no mixed non-commuting pair, separation at (3,3)."""
    candidates = enumerate_candidate_groups()
    if len(candidates) != 16:
        return False, f"expected 16 candidates, got {len(candidates)}"
    names = [c.name for c in candidates]
    for required in ("Aut", "S_l^(123)", "S_lr^(123)", "S_l^S3", "Sym_lr"):
        if required not in names:
            return False, f"missing candidate {required}"
    for cand in candidates:
        hl, hr = cand.spec.h_left, cand.spec.h_right
        if hl.order > 1 and hr.order > 1 and hl != hr:
            return False, f"mixed pair slipped in: {cand.name}"
    parts = {}
    collisions = distinguish_candidates(3, 3, parts=parts)["collisions"]
    if collisions:
        return False, f"{len(collisions)} collision(s) at (3,3): {collisions}"
    aut = parts["Aut"]
    for cand in candidates:
        if cand.name == "Aut":
            continue
        p = parts[cand.name]
        if not refines(aut, p) or partitions_equal(aut, p) or refines(p, aut):
            return False, f"Aut does not strictly refine {cand.name}"
    return True, "16 candidates; 0 collision(s) at (3,3): []; Aut strictly refines all others"


def _coloring_id(g) -> int:
    """The base-3 id that ``id_to_coloring`` decodes, first edge most significant."""
    return sum((c - 1) * 3**p for p, c in enumerate(reversed(b"".join(g.colors))))


def check_swap_duality() -> tuple[bool, str]:
    """Side-swapped graphs are isomorphic, and adjoining the swap generator
    merges exactly transpose-paired orbits for side-symmetric candidates; the
    oracle's transpose comes from ``swap_sides``, not the engine's swap."""
    for s in range(200):
        g = random_graph(4, 4, seed=31000 + s)
        witness = is_isomorphic(g, swap_sides(g), allow_swap=True)
        if witness is None or not verify_iso_witness(g, swap_sides(g), witness):
            return False, f"seed {31000 + s}: no verified swap isomorphism"
    t_table = np.array([_coloring_id(swap_sides(id_to_coloring(2, 2, cid))) for cid in range(81)])
    symmetric = [
        c for c in enumerate_candidate_groups() if c.spec.h_left == c.spec.h_right
    ]
    for cand in symmetric:
        base = orbit_partition(cand.spec, 2, 2)
        spec_swap = GroupSpec(cand.spec.h_left, cand.spec.h_right, allow_swap=True)
        swapped = orbit_partition(spec_swap, 2, 2)
        # the swap normalizes the candidate, so it maps each orbit A onto one
        # orbit; the pair {A, swap(A)} takes the lesser id
        _, dense = np.unique(np.minimum(base.labels, base.labels[t_table]), return_inverse=True)
        if not np.array_equal(dense, swapped.labels):
            return False, f"{cand.name}: swap orbits differ from transpose merge"
    return True, f"200 swap isomorphisms verified; transpose merge exact for {len(symmetric)} candidates"


CHECKS: list[tuple[str, object]] = [
    ("s3-table-fidelity", check_s3_table),
    ("edge-kill-locality", check_edge_kill),
    ("monochromatization", check_monochromatize),
    ("orbit-engine", check_orbit_engine),
    ("h12-closure", check_h12_closure),
    ("redu-saturation", check_redu_saturation),
    ("collapse-trichotomy", check_collapse_trichotomy),
    ("sfsp-formula", check_sfsp_formula),
    ("candidate-census", check_candidate_census),
    ("swap-duality", check_swap_duality),
]


def run_check(name: str) -> CheckResult:
    for check_name, fn in CHECKS:
        if check_name == name:
            start = time.perf_counter()
            passed, detail = fn()
            return CheckResult(name, passed, detail, time.perf_counter() - start)
    raise ValueError(f"unknown check {name!r}")


def run_all(names=None) -> list[CheckResult]:
    wanted = [n for n, _ in CHECKS] if names is None else list(names)
    return [run_check(name) for name in wanted]
