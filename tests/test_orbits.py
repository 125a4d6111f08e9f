import builtins
import dataclasses
import functools
import gc
import itertools
import re
import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from switchlab import orbits, verify
from switchlab.graphs import new_graph
from switchlab.orbits import (
    BudgetExceededError,
    EdgePerm,
    GroupSpec,
    OrbitPartition,
    distinguish_candidates,
    enumerate_candidate_groups,
    candidate_by_name,
    generators_for,
    id_to_coloring,
    join,
    orbit_partition,
    partition_from_actions,
    partitions_equal,
    Recoloring,
    refines,
    single_edge_action,
    switch_actions,
    transpose_action,
    vertex_perm_actions,
)
from switchlab.s3 import (
    ALL_PERMS,
    FULL_SUBGROUP,
    TRIVIAL_SUBGROUP,
    commutator,
    enumerate_subgroups,
    noncommuting_witness,
    S3Perm,
)

from conftest import graphs


def c(s):
    return S3Perm.from_cycle_string(s)


BY_LABEL = {h.label: h for h in enumerate_subgroups()}


def coloring_id(g):
    # base-3 row-major id in [0, 3^(m*n)), first edge most significant: the
    # numbering id_to_coloring decodes
    value = 0
    for row in g.colors:
        for color in row:
            value = value * 3 + color - 1
    return value


def test_coloring_id_examples():
    assert id_to_coloring(2, 2, 0) == new_graph(2, 2, [[1, 1], [1, 1]])
    assert id_to_coloring(2, 2, 1) == new_graph(2, 2, [[1, 1], [1, 2]])
    for cid in range(81):
        assert coloring_id(id_to_coloring(2, 2, cid)) == cid
    with pytest.raises(ValueError):
        id_to_coloring(2, 2, 81)


@given(graphs(max_m=3, max_n=3))
def test_coloring_id_round_trip(g):
    assert id_to_coloring(g.m, g.n, coloring_id(g)) == g


def test_generator_counts():
    assert len(generators_for(GroupSpec(TRIVIAL_SUBGROUP, TRIVIAL_SUBGROUP), 2, 2)) == 2
    spec = GroupSpec(BY_LABEL["(12)"], TRIVIAL_SUBGROUP)
    assert len(generators_for(spec, 2, 2)) == 4
    with pytest.raises(ValueError):
        generators_for(GroupSpec(TRIVIAL_SUBGROUP, TRIVIAL_SUBGROUP, allow_swap=True), 2, 3)


def test_generators_are_bijections_of_finite_order():
    spec = GroupSpec(BY_LABEL["(123)"], BY_LABEL["(123)"], allow_swap=True)
    count = 3**4
    for action in generators_for(spec, 2, 2):
        table = oracle_table(action.name, 2, 2)
        assert sorted(table.tolist()) == list(range(count))
        power = np.arange(count)
        for order in range(1, 7):
            power = table[power]
            if np.array_equal(power, np.arange(count)):
                break
        else:
            pytest.fail(f"{action.name} has order above 6")


def test_generator_action_matches_switch_semantics():
    # the tabulated action of a left switch equals the recoloring operator
    from switchlab.switches import SwitchWord, apply_word, left_switch

    actions = switch_actions(True, (c("(123)"),), 2, 2)
    action = actions[0]
    assert action.name == "switchL(0,(123))"
    word = SwitchWord((left_switch(0, c("(123)")),))
    for cid in range(81):
        g = id_to_coloring(2, 2, cid)
        assert oracle_table(action.name, 2, 2)[cid] == coloring_id(apply_word(g, word))


def test_orbit_partition_anchors():
    aut = orbit_partition(GroupSpec(TRIVIAL_SUBGROUP, TRIVIAL_SUBGROUP), 2, 2)
    assert aut.orbit_count == 27
    full = orbit_partition(GroupSpec(FULL_SUBGROUP, FULL_SUBGROUP), 2, 2)
    assert full.orbit_count == 1
    nogen = partition_from_actions([], 2, 2)
    assert nogen.orbit_count == 81
    assert np.array_equal(nogen.labels, np.arange(81))
    # one round and one pointer jump find that nothing moves
    assert (nogen.actions, nogen.rounds, nogen.jumps) == (0, 1, 1)


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3)])
def test_orbit_partition_counters(m, n):
    for cand in enumerate_candidate_groups(with_swap=m == n):
        actions = generators_for(cand.spec, m, n)
        part = partition_from_actions(actions, m, n)
        assert part.actions == len(actions)
        # a changing round then a final one that changes nothing; each round
        # ends with at least one pointer jump that changes nothing
        assert 2 <= part.rounds <= part.jumps
        # listing every action twice counts them twice and keeps the labels
        again = partition_from_actions(actions * 2, m, n)
        assert np.array_equal(again.labels, part.labels) and again.actions == 2 * len(actions)


def test_orbit_numbering_by_least_member():
    part = orbit_partition(GroupSpec(BY_LABEL["(12)"], TRIVIAL_SUBGROUP), 2, 2)
    first_seen = {}
    for cid in range(81):
        first_seen.setdefault(int(part.labels[cid]), cid)
    labels_in_first_seen_order = sorted(first_seen, key=first_seen.get)
    assert labels_in_first_seen_order == list(range(part.orbit_count))


def test_full_group_transitive_through_mn_9():
    for m, n in ((1, 1), (2, 2), (2, 3), (3, 3), (1, 9)):
        part = orbit_partition(GroupSpec(FULL_SUBGROUP, FULL_SUBGROUP), m, n)
        assert part.orbit_count == 1


def test_partitions_equal_and_refines():
    aut = orbit_partition(GroupSpec(TRIVIAL_SUBGROUP, TRIVIAL_SUBGROUP), 2, 2)
    full = orbit_partition(GroupSpec(FULL_SUBGROUP, FULL_SUBGROUP), 2, 2)
    singles = partition_from_actions([], 2, 2)
    assert partitions_equal(aut, aut)
    assert not partitions_equal(aut, full)
    assert refines(singles, aut) and refines(singles, full)
    assert refines(aut, full) and not refines(full, aut)
    other = orbit_partition(GroupSpec(TRIVIAL_SUBGROUP, TRIVIAL_SUBGROUP), 2, 3)
    with pytest.raises(ValueError):
        partitions_equal(aut, other)
    # equal orbit counts do not make partitions equal: K_{1,1}'s three
    # colorings with a different pair merged (P trivial: each coloring is its
    # own P-orbit)
    ids = np.arange(3, dtype=np.int32)
    a = OrbitPartition(1, 1, np.array([0, 0, 1], dtype=np.int32), ids, 2)
    b = OrbitPartition(1, 1, np.array([0, 1, 1], dtype=np.int32), ids, 2)
    assert not partitions_equal(a, b) and partitions_equal(b, b)
    # a dimension mismatch raises even when the counts agree
    one_orbit = partition_from_actions([], 0, 3)
    assert one_orbit.orbit_count == full.orbit_count == 1
    with pytest.raises(ValueError, match="dimension mismatch"):
        partitions_equal(one_orbit, full)


def test_subgroup_monotonicity():
    # more generators can only coarsen the partition
    specs = [
        GroupSpec(TRIVIAL_SUBGROUP, TRIVIAL_SUBGROUP),
        GroupSpec(BY_LABEL["(12)"], TRIVIAL_SUBGROUP),
        GroupSpec(BY_LABEL["(12)"], BY_LABEL["(12)"]),
        GroupSpec(FULL_SUBGROUP, FULL_SUBGROUP),
    ]
    parts = [orbit_partition(s, 2, 2) for s in specs]
    for finer, coarser in zip(parts, parts[1:]):
        assert refines(finer, coarser)


def test_transpose_duality():
    # at m = n, swapping the two subgroup roles transposes the partition
    t = oracle_table(transpose_action(2, 2).name, 2, 2)
    p_lr = orbit_partition(GroupSpec(BY_LABEL["(12)"], BY_LABEL["(123)"]), 2, 2)
    p_rl = orbit_partition(GroupSpec(BY_LABEL["(123)"], BY_LABEL["(12)"]), 2, 2)
    for a, b in itertools.combinations(range(81), 2):
        same_lr = p_lr.labels[a] == p_lr.labels[b]
        same_rl = p_rl.labels[t[a]] == p_rl.labels[t[b]]
        assert same_lr == same_rl


def test_candidate_census():
    cands = enumerate_candidate_groups()
    assert len(cands) == 16
    names = [cand.name for cand in cands]
    assert names[0] == "Aut" and names[-1] == "Sym_lr"
    assert "S_l^(123)" in names and "S_lr^(123)" in names
    assert "S_l^S3" in names and "S_r^S3" in names
    for cand in cands:
        hl, hr = cand.spec.h_left, cand.spec.h_right
        if hl.order > 1 and hr.order > 1:
            assert hl == hr  # mixed non-commuting pairs are excluded
    with_swap = enumerate_candidate_groups(with_swap=True)
    assert len(with_swap) == 22
    assert sum(1 for cand in with_swap if cand.spec.allow_swap) == 6
    assert candidate_by_name("Aut").spec == GroupSpec(TRIVIAL_SUBGROUP, TRIVIAL_SUBGROUP)
    with pytest.raises(ValueError):
        candidate_by_name("nope")


def test_closure_equals_h12_cases():
    perms22 = vertex_perm_actions(2, 2)
    full_left = perms22 + switch_actions(True, FULL_SUBGROUP.generators(), 2, 2)
    pair_left = perms22 + switch_actions(
        True, BY_LABEL["(12)"].generators() + BY_LABEL["(13)"].generators(), 2, 2
    )

    def closure_equals(gen_a, gen_b):
        pa, pb = partition_from_actions(gen_a, 2, 2), partition_from_actions(gen_b, 2, 2)
        return partitions_equal(pa, pb)

    assert closure_equals(pair_left, full_left)
    single_left = perms22 + switch_actions(True, BY_LABEL["(12)"].generators(), 2, 2)
    assert not closure_equals(single_left, full_left)
    assert closure_equals(single_left, single_left)


def test_redu_saturation():
    result = verify.run_check("redu-saturation")
    assert result.passed and result.detail == "all 6 non-commuting subgroup pairs saturated at K_{2,2}"
    # what the check comes down to: each mixed pair's group has one orbit,
    # and so do the single-edge 3-cycle recolorings alone at K_{2,2}
    proper = [h for h in enumerate_subgroups() if h.order in (2, 3)]
    for (m, n), (h1, h2) in itertools.product([(2, 2), (2, 3), (3, 3)], itertools.combinations(proper, 2)):
        assert orbit_partition(GroupSpec(h1, h2), m, n).orbit_count == 1
    for gamma in (c("(123)"), c("(132)")):
        edges = [single_edge_action(2, 2, i, j, gamma) for i in range(2) for j in range(2)]
        assert partition_from_actions(edges, 2, 2).orbit_count == 1


def test_single_edge_action():
    action = single_edge_action(2, 2, 0, 1, c("(12)"))
    g = new_graph(2, 2, [[1, 1], [1, 1]])
    out = id_to_coloring(2, 2, oracle_table(action.name, 2, 2)[coloring_id(g)])
    assert tuple(map(tuple, out.colors)) == ((1, 2), (1, 1))
    with pytest.raises(ValueError):
        single_edge_action(2, 2, 2, 0, c("(12)"))


def test_distinguish_report():
    report = distinguish_candidates(2, 2)
    assert report["m"] == 2 and report["n"] == 2
    assert len(report["groups"]) == 16
    by_name = {entry["name"]: entry["orbit_count"] for entry in report["groups"]}
    assert by_name["Aut"] == 27
    assert by_name["Sym_lr"] == 1
    # transpose-symmetric candidates share orbit counts but not partitions
    assert by_name["S_l^(12)"] == by_name["S_r^(12)"]
    p_l = orbit_partition(candidate_by_name("S_l^(12)").spec, 2, 2)
    p_r = orbit_partition(candidate_by_name("S_r^(12)").spec, 2, 2)
    assert not partitions_equal(p_l, p_r)
    flat = {name for pair in report["collisions"] for name in pair}
    assert "Aut" not in flat  # Aut collides with nothing


def test_distinguish_refuses_a_non_square_swap_before_any_partition(monkeypatch):
    monkeypatch.setattr(orbits, "orbit_partition", lambda *args: pytest.fail("partition built"))
    for m, n in ((2, 7), (3, 2), (0, 1)):
        with pytest.raises(ValueError, match="^side swap needs square dimensions$"):
            distinguish_candidates(m, n, with_swap=True)


def test_budget_guard():
    with pytest.raises(BudgetExceededError):
        orbit_partition(GroupSpec(TRIVIAL_SUBGROUP, TRIVIAL_SUBGROUP), 4, 4, budget=12)
    with pytest.raises(BudgetExceededError):
        distinguish_candidates(4, 4, budget=12)


def test_action_table_shape_validated():
    built_for_k23 = vertex_perm_actions(2, 3)[0]
    with pytest.raises(ValueError):
        partition_from_actions([built_for_k23], 2, 2)


def _recolored(ids, k, positions, lut):
    """The ids with their base-3 digits at ``positions`` mapped through
    ``lut``: the reference for the engine's recoloring tables."""
    places = 3 ** (k - 1 - np.array(positions, dtype=np.int64))
    moved = ids[:, None] // places % 3
    return ids + (np.array(lut)[moved] - moved) @ places


def moved_ids(action, k):
    """The image of every id of k edges under ``action``: the label cube,
    axis p being edge p, with its axes moved, or the ids recolored."""
    ids = np.arange(3**k)
    if isinstance(action, EdgePerm):
        return ids.reshape((3,) * k).transpose(action.axes).reshape(-1)
    return _recolored(ids, k, action.positions, action.lut)


def test_action_moves_digits_as_documented():
    # a 3-cycle of axes, then a recoloring by a 3-cycle: neither an involution
    rot, shift = EdgePerm("rot", (1, 2, 0)), Recoloring("shift", (0,), (1, 2, 0))
    both = moved_ids(shift, 3)[moved_ids(rot, 3)]
    assert both[9] == 12  # digits (1,0,0) -> (0,1,0) -> recolor axis 0 -> (1,1,0)
    assert sorted(both.tolist()) == list(range(27))
    # a recoloring sorts its positions when it is built
    assert Recoloring("pair", [2, 0], (1, 2, 0)).positions == (0, 2)


# Oracle: the tabulated construction the label-cube moves replaced.  Each
# generator is rebuilt from its name as a (3^(mn), mn) digit matrix, moved
# digit-wise, and re-encoded into an id table.


def _digit_matrix(m, n):
    k = m * n
    places = 3 ** np.arange(k - 1, -1, -1, dtype=np.int64)
    ids = np.arange(3**k, dtype=np.int64)
    digits = ((ids[:, None] // places[None, :]) % 3).astype(np.int8)
    return digits, places


def _encode(digits, places):
    return digits.astype(np.int64) @ places


@functools.lru_cache(maxsize=256)
def oracle_table(name, m, n):
    table = _oracle_table(name, m, n)
    table.flags.writeable = False
    return table


def _oracle_table(name, m, n):
    digits, places = _digit_matrix(m, n)
    kind, args = re.fullmatch(r"(\w+)(?:\((.*)\))?", name).groups()
    posmap = list(range(m * n))
    if kind == "swapL":
        t = int(args.split(",")[0])
        for j in range(n):
            posmap[t * n + j], posmap[(t + 1) * n + j] = (t + 1) * n + j, t * n + j
        return _encode(digits[:, posmap], places)
    if kind == "swapR":
        t = int(args.split(",")[0])
        for i in range(m):
            posmap[i * n + t], posmap[i * n + t + 1] = i * n + t + 1, i * n + t
        return _encode(digits[:, posmap], places)
    if kind == "swapSides":
        posmap = [j * n + i for i in range(m) for j in range(n)]
        return _encode(digits[:, posmap], places)
    if kind == "edge":
        i, j, cycle = args.split(",", 2)
        positions = [int(i) * n + int(j)]
    else:
        v, cycle = args.split(",", 1)
        v = int(v)
        positions = {
            "switchL": [v * n + j for j in range(n)],
            "switchR": [i * n + v for i in range(m)],
        }[kind]
    sigma = c(cycle)
    lut = np.array([sigma(col) - 1 for col in (1, 2, 3)], dtype=np.int8)
    out = digits.copy()
    out[:, positions] = lut[out[:, positions]]
    return _encode(out, places)


def oracle_partition(tables, count):
    labels = np.arange(count, dtype=np.int64)
    while True:
        before = labels
        labels = labels.copy()
        for table in tables:
            np.minimum(labels, labels[table], out=labels)
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped
        if np.array_equal(labels, before):
            return np.unique(labels, return_inverse=True)[1]


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_cube_moves_match_table_oracle(m, n):
    actions = {}
    for cand in enumerate_candidate_groups(with_swap=(m == n)):
        for action in generators_for(cand.spec, m, n):
            actions[action.name] = action
    for i, j, sigma in itertools.product(range(m), range(n), ALL_PERMS):
        action = single_edge_action(m, n, i, j, sigma)
        actions[action.name] = action
    kinds = {re.match(r"\w+", name).group() for name in actions}
    assert kinds == {"swapL", "swapR", "switchL", "switchR", "edge"} | (
        {"swapSides"} if m == n else set()
    )
    for action in actions.values():
        assert np.array_equal(moved_ids(action, m * n), oracle_table(action.name, m, n)), action.name


@pytest.mark.parametrize("m,n", [(2, 2), (3, 3)])
def test_orbit_partition_matches_oracle_fixpoint(m, n):
    for cand in enumerate_candidate_groups(with_swap=True):
        tables = [oracle_table(a.name, m, n) for a in generators_for(cand.spec, m, n)]
        expected = oracle_partition(tables, 3 ** (m * n))
        part = orbit_partition(cand.spec, m, n)
        assert np.array_equal(part.labels, expected), cand.name
        assert part.orbit_count == expected.max() + 1


# Oracle: the full-space propagation that the two-stage engine replaced,
# where every action, permutation or recoloring, moves the labels of all
# 3^(mn) ids until a round changes nothing (oracle_partition over the
# actions' oracle tables, rebuilt from their names).


def _reference_partition(actions, m, n):
    labels = oracle_partition([oracle_table(a.name, m, n) for a in actions], 3 ** (m * n))
    return labels, int(labels.max()) + 1


def assert_matches_reference(actions, m, n, what=""):
    labels, count = _reference_partition(actions, m, n)
    part = partition_from_actions(actions, m, n)
    assert part.labels.dtype == np.int32, what
    assert np.array_equal(part.labels, labels), what
    assert part.orbit_count == count, what


SHAPES_UP_TO_9 = [(0, 0), (0, 3), (3, 0)] + [
    (m, n) for m in range(1, 10) for n in range(1, 10) if m * n <= 9
]


@pytest.mark.parametrize("m,n", SHAPES_UP_TO_9)
def test_every_candidate_matches_reference(m, n):
    for cand in enumerate_candidate_groups(with_swap=m == n):
        assert_matches_reference(generators_for(cand.spec, m, n), m, n, cand.name)


@pytest.mark.parametrize("m,n", [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_redu_saturation_lists_match_reference(m, n):
    # a pair's generators, and them with the commutator's single-edge
    # recolorings, for every subgroup pair that has an edge kill
    pairs = [
        (h1, h2)
        for h1, h2 in itertools.product(enumerate_subgroups(), repeat=2)
        if noncommuting_witness(h1, h2) is not None
    ]
    assert len(pairs) == 21
    for h1, h2 in pairs:
        gamma = commutator(*noncommuting_witness(h1, h2))
        base = generators_for(GroupSpec(h1, h2), m, n)
        extra = [single_edge_action(m, n, i, j, gamma) for i in range(m) for j in range(n)]
        assert_matches_reference(base, m, n, (h1.label, h2.label))
        assert_matches_reference(base + extra, m, n, (h1.label, h2.label, "extended"))


def _action_pool(m, n):
    pool = vertex_perm_actions(m, n) + switch_actions(True, ALL_PERMS, m, n)
    pool += switch_actions(False, ALL_PERMS, m, n)
    pool += [single_edge_action(m, n, i, j, s) for i in range(m) for j in range(n) for s in ALL_PERMS]
    if m == n:
        pool.append(transpose_action(m, n))
    return {a.name: a for a in pool}


_DRAWN_SHAPES = [(0, 2), (2, 0), (1, 1), (1, 4), (4, 1), (2, 2), (2, 3), (3, 2)]


def _drawn_list(m, n):
    # without edges the pool is empty: every move is the identity, none built
    names = sorted(_action_pool(m, n))
    return st.lists(st.sampled_from(names), max_size=8) if names else st.just([])


_DRAWN_LISTS = st.sampled_from(_DRAWN_SHAPES).flatmap(lambda mn: st.tuples(st.just(mn), _drawn_list(*mn)))


@settings(max_examples=200)
@given(_DRAWN_LISTS)
# dropping the conjugation closure still passes every candidate list, but
# not this one: switchR(1,.) conjugated by the swap is a left switch
@example(((2, 2), ["switchR(1,(12))", "swapSides", "switchL(1,(12))", "switchL(0,(12))",
                   "switchR(1,(123))", "switchR(1,(23))"]))
def test_drawn_action_lists_match_reference(drawn):
    (m, n), names = drawn
    pool = _action_pool(m, n)
    actions = [pool[name] for name in names]
    assert_matches_reference(actions, m, n, names)


@given(_DRAWN_LISTS)
def test_drawn_action_lists_equal_cold_and_after_every_move(drawn):
    # cold: every cache cleared; warm: after a list with the same edge
    # permutations and every recoloring of the pool has stored its tables,
    # then twice more (its stored answer), then with its recolorings in
    # reverse order: same P entry and moves, but the counters of that
    # order's cold computation, never those stored for the other order
    (m, n), names = drawn
    pool = _action_pool(m, n)
    actions = [pool[name] for name in names]
    backwards = iter([a for a in actions if isinstance(a, Recoloring)][::-1])
    reordered = [next(backwards) if isinstance(a, Recoloring) else a for a in actions]
    reference = _reference_partition(actions, m, n)[0].astype(np.int32).tobytes()
    _clear_orbit_caches()
    cold_reordered = _outcome(partition_from_actions(reordered, m, n))
    _clear_orbit_caches()
    cold = _outcome(partition_from_actions(actions, m, n))
    assert cold[0] == cold_reordered[0] == reference
    _assert_running_total()
    everything = [a for a in actions if isinstance(a, EdgePerm)]
    everything += [a for a in pool.values() if isinstance(a, Recoloring)]
    partition_from_actions(everything, m, n)
    _assert_running_total()
    for _ in range(2):
        assert _outcome(partition_from_actions(actions, m, n)) == cold
        _assert_running_total()
    assert _outcome(partition_from_actions(reordered, m, n)) == cold_reordered
    _assert_running_total()


#: Admits the largest drawn call, P trivial at K_{2,3} with 8 tables and 6
#: digit rows over all 3^6 ids, 8 conjugate lists and the charge of its
#: 8-action answer beyond its quotient's data, and nothing beside it.
_DRAWN_CAP = 16 * 3**6 + 3**6 * (96 + 4 * 8 + 6) + orbits._STORED_OVERHEAD * (8 + 1) + 400 * 8


@settings(max_examples=60)
@given(st.sampled_from(_DRAWN_SHAPES).flatmap(
    lambda mn: st.tuples(st.just(mn), st.lists(_drawn_list(*mn), min_size=2, max_size=6))))
def test_drawn_action_list_sequences_under_a_tight_cap(drawn):
    # lists run in turn against one store under a cap that evicts: each
    # outcome matches the reference, and the kept bytes plus the call's
    # working set stay within the cap
    (m, n), lists = drawn
    pool = _action_pool(m, n)
    _clear_orbit_caches()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orbits, "ORBIT_MEMORY_CAP", _DRAWN_CAP)
        for names in lists:
            actions = [pool[name] for name in names]
            part = partition_from_actions(actions, m, n)
            assert np.array_equal(part.labels, _reference_partition(actions, m, n)[0]), names
            _assert_running_total()
            _assert_last_call_fits(m * n)


_CENSUS_SHAPES = [(2, 2), (3, 3), (2, 3), (3, 2), (2, 4), (4, 2), (2, 5), (5, 2)]


def _edge_perms_and_recolorings(pool):
    # drawn apart, so that most pairs of lists differ in their edge permutations
    perms = sorted(name for name, a in pool.items() if isinstance(a, EdgePerm))
    moves = sorted(name for name, a in pool.items() if isinstance(a, Recoloring))
    return st.builds(lambda p, r: p + r, st.lists(st.sampled_from(perms), max_size=2),
                     st.lists(st.sampled_from(moves), max_size=3))


def assert_join_matches_concatenation(a, b, m, n):
    joined = join(partition_from_actions(a, m, n), partition_from_actions(b, m, n))
    both = partition_from_actions(a + b, m, n)
    assert np.array_equal(joined.labels, both.labels)
    assert joined.orbit_count == both.orbit_count and joined.actions == both.actions


@pytest.mark.parametrize("m,n", _CENSUS_SHAPES)
@settings(max_examples=8)
@given(data=st.data())
def test_join_equals_concatenated_generators(m, n, data):
    pool = _action_pool(m, n)
    a, b = (data.draw(_edge_perms_and_recolorings(pool)) for _ in "ab")
    assert_join_matches_concatenation([pool[name] for name in a], [pool[name] for name in b], m, n)


def test_candidate_joins_equal_concatenated_generators():
    # the 96 pairs of a swap candidate and a plain one hold different orbit_of
    gens = [generators_for(c.spec, 2, 2) for c in enumerate_candidate_groups(with_swap=True)]
    for a, b in itertools.combinations(gens, 2):
        assert_join_matches_concatenation(a, b, 2, 2)


def test_join_laws():
    # the 22 candidates at K_{2,2} and the no-generator partition; the swap
    # candidates and the no-generator partition each hold another orbit_of
    parts = [orbit_partition(c.spec, 2, 2) for c in enumerate_candidate_groups(with_swap=True)]
    parts.append(partition_from_actions([], 2, 2))
    assert len({id(p.orbit_of) for p in parts}) == 3
    # counters add up: each input's one round and one jump, then the join's
    nothing = join(parts[-1], parts[-1])
    assert (nothing.actions, nothing.rounds, nothing.jumps) == (0, 3, 3)
    for p in parts:
        assert partitions_equal(join(p, p), p)
        assert partitions_equal(join(p, parts[-1]), p) and partitions_equal(join(parts[-1], p), p)
    for p1, p2 in itertools.combinations(parts, 2):
        joined = join(p1, p2)
        assert np.array_equal(joined.labels, join(p2, p1).labels)
        assert refines(p1, joined) and refines(p2, joined)
        # the finest such partition: below every candidate both refine
        for q in parts:
            if refines(p1, q) and refines(p2, q):
                assert refines(joined, q)
    with pytest.raises(ValueError, match="dimension mismatch"):
        join(parts[0], orbit_partition(GroupSpec(TRIVIAL_SUBGROUP, TRIVIAL_SUBGROUP), 2, 3))


def test_any_iterable_of_actions():
    actions = generators_for(GroupSpec(BY_LABEL["(12)"], TRIVIAL_SUBGROUP), 2, 3)
    part = partition_from_actions(actions, 2, 3)
    for again in (partition_from_actions(iter(actions), 2, 3),
                  partition_from_actions((a for a in actions), 2, 3),
                  partition_from_actions(tuple(actions), 2, 3)):
        assert np.array_equal(again.labels, part.labels)
        assert (again.orbit_count, again.actions, again.rounds, again.jumps) == (
            part.orbit_count, part.actions, part.rounds, part.jumps)


def _clear_orbit_caches():
    orbits._STORE.clear()


def _kept():
    """The store's P entries by key, least recently used first."""
    return {key: e for key, e in orbits._STORE.items() if isinstance(e, orbits._Entry)}


def _edge_perms(actions):
    """The axes of the edge permutations among ``actions``: their P's store key."""
    return tuple(a.axes for a in actions if isinstance(a, EdgePerm))


def _slots(a):
    """The slots of a move's axes or positions tuple."""
    return len(a.axes) if isinstance(a, EdgePerm) else len(a.positions)


def _entry_arrays(e):
    """Every array P's entry keeps: orbit ids, least members, digit rows and
    its moves' tables."""
    return (e.orbit_of, e.reps, *e.rows.values(), *(table for table, _ in e.moves.values()))


def _answers():
    """The store's answers by key, least recently used first."""
    return {key: answer for key, answer in orbits._STORE.items() if key[1:2] == ("answer",)}


def _entry_charge(e):
    """The bytes P's entry keeps: its arrays, plus the fixed overhead of each
    move's conjugate list."""
    return sum(a.nbytes for a in _entry_arrays(e)) + orbits._STORED_OVERHEAD * len(e.moves)


def _answer_charge(key, answer):
    """The bytes an answer keeps: its quotient's, 40 per slot of its key's
    edge permutations, the fixed overhead and 400 per action."""
    actions = key[2]
    return answer.quotient.nbytes + 40 * sum(map(len, _edge_perms(actions))) + orbits._STORED_OVERHEAD \
        + 400 * len(actions)


def _assert_running_total():
    # the store's running total is what its P entries and answers keep plus,
    # for each move tuple or generator list it keeps, 40 per slot of each
    # axes or positions tuple
    entries, answers = _kept(), _answers()
    kept = sum(map(_entry_charge, entries.values())) + sum(_answer_charge(*item) for item in answers.items())
    for key, moves in orbits._STORE.items():
        if key not in entries | answers:
            kept += 40 * sum(map(_slots, moves))
    assert orbits._STORE.nbytes == kept <= orbits.ORBIT_MEMORY_CAP


def test_stored_moves_are_charged_and_evicted(monkeypatch):
    # the moves of a 60x60 shape hold about 16.3 MiB, 15.3 of it the vertex
    # swaps' axes: the 360 switches hold 60 positions each.  The store
    # charges them, so under a small cap the next call's miss evicts them
    _clear_orbit_caches()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        vertex_perm_actions(60, 60)
        swaps = tracemalloc.get_traced_memory()[0]
        assert len(switch_actions(True, ALL_PERMS, 60, 60)) == 360
        assert tracemalloc.get_traced_memory()[0] - swaps < 2 * 2**20
        held = tracemalloc.get_traced_memory()[0] - start
        assert 16 * 2**20 < held <= orbits._STORE.nbytes < 1.2 * held
        monkeypatch.setattr(orbits, "ORBIT_MEMORY_CAP", 2**16)
        vertex_perm_actions(2, 2)
        assert list(orbits._STORE) == [(2, 2, "swaps")]
        assert tracemalloc.get_traced_memory()[0] - start < 2**16
        _assert_running_total()
    finally:
        tracemalloc.stop()
        _clear_orbit_caches()


def _assert_last_call_fits(k):
    # the last call's working set (at least 16 bytes per id and 72 per
    # P-orbit), its entry's stored tables and rows and every other kept entry
    # fit the cap together
    *others, last = _kept().values()
    kept = sum(a.nbytes for e in others for a in _entry_arrays(e))
    stored = sum(a.nbytes for a in _entry_arrays(last)[2:])
    assert kept + 16 * 3**k + 72 * last.reps.size + stored <= orbits.ORBIT_MEMORY_CAP


def _spy(monkeypatch, name, module=orbits):
    """The positional arguments of every later call to ``module.name``, in
    order; a builtin that ``orbits`` calls is spied on as a module global."""
    calls, real = [], getattr(module, name) if hasattr(module, name) else getattr(builtins, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, spy, raising=False)
    return calls


@pytest.fixture
def builds(monkeypatch):
    """The key of every P entry the store builds, in order."""
    return _spy(monkeypatch, "_edge_perm_orbits")


def _outcome(part):
    return part.labels.tobytes(), part.orbit_count, part.actions, part.rounds, part.jumps


def test_counters_equal_on_cache_miss_and_hit(builds):
    # at each census shape, every candidate computed with the store cleared
    # equals its store hit, which builds nothing, and equals itself computed
    # after all of its shape's candidates have filled the shared actions and
    # tables
    for m, n in ((2, 2), (3, 3), (2, 3), (3, 2), (2, 5), (5, 2)):
        cands = enumerate_candidate_groups(with_swap=m == n)
        cold = {}
        for cand in cands:
            actions = generators_for(cand.spec, m, n)
            _clear_orbit_caches()
            cold[cand.name] = _outcome(partition_from_actions(actions, m, n))
            built = len(builds)
            assert _outcome(partition_from_actions(actions, m, n)) == cold[cand.name], cand.name
            assert len(builds) == built
        for cand in cands:
            orbit_partition(cand.spec, m, n)
        for cand in cands:
            assert _outcome(orbit_partition(cand.spec, m, n)) == cold[cand.name], cand.name


_CENSUS_WALK = [(m, n, cand.spec) for m, n in _CENSUS_SHAPES for cand in enumerate_candidate_groups(m == n)]


@functools.lru_cache(maxsize=1)
def _cold_census_walk():
    """Each census job's outcome computed with the store cleared."""
    cold = []
    for m, n, spec in _CENSUS_WALK:
        _clear_orbit_caches()
        cold.append(_outcome(orbit_partition(spec, m, n)))
    return tuple(cold)


#: The cap that admits the census's largest call, 3^10 ids at 32 bytes each,
#: and no other entry beside it.
_ONE_ENTRY_CAP = 32 * 3**10


def _largest_moves_charge():
    """The store's charge for every move a census shape generates, at its
    largest over the shapes."""
    charges = []
    for shape in _CENSUS_SHAPES:
        _clear_orbit_caches()
        for m, n, spec in _CENSUS_WALK:
            if (m, n) == shape:
                generators_for(spec, m, n)
        charges.append(orbits._STORE.nbytes)
    return max(charges)


def test_census_walk_misses_only_when_the_edge_permutations_change(monkeypatch, builds):
    # the census order: every candidate of each shape, the swap variants at
    # 2x2 and 3x3, so each P's candidates come in one run.  Under the real
    # cap and under one that fits the 2x5 call and one shape's moves alone,
    # P's entry is built exactly when the edge permutations change and the
    # shape's actions exactly when the shape does, the store keeps the
    # call's entry and its running total, and every outcome equals its cold
    # computation
    cold = _cold_census_walk()
    swaps = _spy(monkeypatch, "_vertex_perms")
    for cap in (orbits.ORBIT_MEMORY_CAP, _ONE_ENTRY_CAP + _largest_moves_charge()):
        monkeypatch.setattr(orbits, "ORBIT_MEMORY_CAP", cap)
        _clear_orbit_caches()
        del builds[:], swaps[:]
        last = (None, None)
        for (m, n, spec), expected in zip(_CENSUS_WALK, cold):
            built, swapped = len(builds), len(swaps)
            actions = generators_for(spec, m, n)
            key = ((m, n), _edge_perms(actions))
            assert len(swaps) == swapped + (key[0] != last[0])
            assert _outcome(partition_from_actions(actions, m, n)) == expected
            assert len(builds) == built + (key != last)
            assert list(_kept())[-1] == (m * n, key[1]) and (m, n, "swaps") in orbits._STORE
            _assert_running_total()
            _assert_last_call_fits(m * n)
            last = key
        assert len(builds) == 10 and len(swaps) == 8


def test_second_census_walk_builds_no_entry(builds):
    # under the real cap the store keeps every census entry, so a second
    # walk builds no P and no shape's moves (the store's keys stay the
    # same), and its outcomes stay cold
    cold = _cold_census_walk()
    _clear_orbit_caches()
    for m, n, spec in _CENSUS_WALK:
        orbit_partition(spec, m, n)
    del builds[:]
    kept = list(orbits._STORE)
    assert len(_kept()) == 10
    for (m, n, spec), expected in zip(_CENSUS_WALK, cold):
        assert _outcome(orbit_partition(spec, m, n)) == expected
    assert builds == [] and sorted(orbits._STORE, key=repr) == sorted(kept, key=repr)


def test_cold_census_walk_charges_the_pinned_bytes():
    # the census walk from an empty store under the real cap leaves P's 10
    # entries with 224 moves, 1,193,432 bytes; the walk's answers, 890,232;
    # and the shapes' moves and generator lists, 263,920.  A change to any
    # charge shows here
    _clear_orbit_caches()
    for m, n, spec in _CENSUS_WALK:
        orbit_partition(spec, m, n)
    entries, answers = _kept(), _answers()
    assert len(entries) == 10 and sum(len(e.moves) for e in entries.values()) == 224
    assert sum(e.nbytes for e in entries.values()) == 1_193_432
    assert len(answers) == len(_CENSUS_WALK) and sum(a.nbytes for a in answers.values()) == 890_232
    rest = sum(v.nbytes for key, v in orbits._STORE.items() if key not in entries | answers)
    assert rest == 263_920 and orbits._STORE.nbytes == 2_347_584
    _assert_running_total()


def test_warm_census_walk_propagates_nothing(monkeypatch):
    # a census walk from an empty store, then the same walk again: the warm
    # pass serves every generator list and answer from the store, so it
    # builds no answer (no _answer), calls neither _propagate, _digit_row nor
    # _conjugates, builds no move (no _vertex_perms, _recolor_action or
    # np.arange, nor do the move builders asked again for stored moves),
    # sorts no action, and its outcomes and counters equal the first pass's
    # and the cold ones.  Every stored quotient is read-only
    cold = list(_cold_census_walk())
    _clear_orbit_caches()
    first = [_outcome(orbit_partition(spec, m, n)) for m, n, spec in _CENSUS_WALK]
    spied = [_spy(monkeypatch, name) for name in ("_answer", "_propagate", "_digit_row", "_conjugates",
                                                  "_vertex_perms", "_recolor_action", "sorted")]
    spied.append(_spy(monkeypatch, "arange", np))
    warm = [_outcome(orbit_partition(spec, m, n)) for m, n, spec in _CENSUS_WALK]
    for m, n in _CENSUS_SHAPES:
        vertex_perm_actions(m, n)
        switch_actions(True, FULL_SUBGROUP.generators(), m, n)
        switch_actions(False, FULL_SUBGROUP.generators(), m, n)
    assert spied == [[]] * 8
    assert warm == first == cold
    answers = _answers()
    assert len(answers) == len(_CENSUS_WALK)
    for answer in answers.values():
        with pytest.raises(ValueError, match="read-only"):
            answer.quotient[0] = 0


def test_a_stored_answer_is_served_under_a_cap_that_refuses_its_miss(monkeypatch, builds):
    # a list's answer stored under the real cap, then asked for again under a
    # cap that fits P's entry but refuses the list's quotient stage: the hit
    # gives the miss's outcome and builds nothing, and a new tuple of moves
    # equal to the list's is still refused
    actions = switch_actions(False, [c("(12)")], 1, 4)
    _clear_orbit_caches()
    expected = _outcome(partition_from_actions(actions, 1, 4))
    assert tuple(actions) in {key[2] for key in _answers()}
    answered = _spy(monkeypatch, "_answer")
    del builds[:]
    monkeypatch.setattr(orbits, "ORBIT_MEMORY_CAP", 32 * 81)
    assert _outcome(partition_from_actions(actions, 1, 4)) == expected
    assert answered == builds == []
    with pytest.raises(BudgetExceededError, match="quotient"):
        partition_from_actions([dataclasses.replace(a) for a in actions], 1, 4)


def test_a_new_quotient_is_charged_once_when_its_call_makes_room(monkeypatch):
    # P trivial at K_{2,2}: after a call that recolors edge (0, 0), a call
    # that recolors edge (1, 1) needs its working set, which holds its new
    # quotient's data, one new table, digit row and conjugate list, and its
    # answer's fixed overhead and one action beside P's entry.  Under exactly
    # that cap the store evicts the first call's answer and keeps its table,
    # row and list; one byte less drops them too
    first, second = (single_edge_action(2, 2, i, i, c("(12)")) for i in (0, 1))
    real = orbits.ORBIT_MEMORY_CAP
    for spare, records in ((0, 2), (-1, 1)):
        monkeypatch.setattr(orbits, "ORBIT_MEMORY_CAP", real)
        _clear_orbit_caches()
        partition_from_actions([first], 2, 2)
        entry = orbits._STORE[4, ()]
        stored, reps = entry.nbytes - entry.orbit_of.nbytes - entry.reps.nbytes, entry.reps.size
        monkeypatch.setattr(orbits, "ORBIT_MEMORY_CAP", stored + 16 * 81 + 96 * reps + (4 + 1) * reps
                            + 2 * orbits._STORED_OVERHEAD + 400 + spare)
        part = partition_from_actions([second], 2, 2)
        assert np.array_equal(part.labels, _reference_partition([second], 2, 2)[0])
        assert list(orbits._STORE) == [(4, "answer", (second,)), (4, ())] and orbits._STORE[4, ()] is entry
        assert (len(entry.moves), len(entry.rows)) == (records,) * 2
        _assert_running_total()


def test_a_build_that_raises_keeps_whole_move_records(monkeypatch):
    # digit rows whose first entry is wrong send id 0 below 0 under a move
    # taking 1 to 0, so a build raises midway.  The census candidates at
    # K_{2,2} in turn, in a fresh store dropped with the mutant: after each
    # call, raised or not, every move P's entries keep has its table and
    # conjugate list, and the running total is what the store keeps
    real = orbits._digit_row

    def wrong_first(reps, k, position):
        row = real(reps, k, position).copy()
        row[0] = (row[0] + 1) % 3
        return row
    monkeypatch.setattr(orbits, "_digit_row", wrong_first)
    monkeypatch.setattr(orbits, "_STORE", orbits._Store())
    raised = set()
    for cand in enumerate_candidate_groups(with_swap=True):
        try:
            orbit_partition(cand.spec, 2, 2)
        except ArithmeticError:
            raised.add(cand.name)
        for e in _kept().values():
            for table, conjugates in e.moves.values():
                assert table.shape == e.reps.shape and isinstance(conjugates, tuple)
        _assert_running_total()
    assert "Sym_lr" in raised and any(e.moves for e in _kept().values())


def test_census_walk_under_a_one_entry_cap_stays_under_it(monkeypatch):
    # two census walks under a cap that fits the 2x5 call alone: the second
    # rebuilds what the first evicted, every outcome equals its cold one, and
    # the traced peak of both walks stays within the cap (no partition is
    # held past its comparison, so evicted orbit ids are freed)
    cold = _cold_census_walk()
    monkeypatch.setattr(orbits, "ORBIT_MEMORY_CAP", _ONE_ENTRY_CAP)
    _clear_orbit_caches()
    tracemalloc.start()
    try:
        for _ in range(2):
            for (m, n, spec), expected in zip(_CENSUS_WALK, cold):
                assert _outcome(orbit_partition(spec, m, n)) == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _ONE_ENTRY_CAP


def _assert_entry_matches_reference(k, perms):
    # every digit row and move P's entry stores, against the reference
    # recoloring of P's least members and the move's images under P's
    # generators
    entry = orbits._STORE[k, perms]
    assert entry.moves and entry.rows
    for p, row in entry.rows.items():
        assert row.dtype == np.uint8 and np.array_equal(row, entry.reps // 3 ** (k - 1 - p) % 3)
    for (positions, lut), (table, conjugates) in entry.moves.items():
        assert np.array_equal(table, entry.orbit_of[_recolored(entry.reps, k, positions, lut)])
        assert len(set(conjugates)) == len(conjugates)
        assert set(conjugates) == {(tuple(sorted(axes[p] for p in positions)), lut) for axes in perms}


def test_stored_tables_equal_the_reference_recoloring(monkeypatch, builds):
    # every census shape and candidate (swap variants at 2x2 and 3x3); then P
    # trivial at K_{2,3}, where P's orbits are all 3^6 ids, with every
    # single-edge recoloring; then that entry evicted by another P, under a
    # cap that fits the trivial-P call alone, and rebuilt
    _clear_orbit_caches()
    for m, n in _CENSUS_SHAPES:
        for cand in enumerate_candidate_groups(m == n):
            actions = generators_for(cand.spec, m, n)
            if any(isinstance(a, Recoloring) for a in actions):
                partition_from_actions(actions, m, n)
                _assert_entry_matches_reference(m * n, _edge_perms(actions))
    edges = [single_edge_action(2, 3, i, j, s) for i in range(2) for j in range(3) for s in ALL_PERMS[1:]]
    ids = 3**6  # working set 16 * ids + 96 * ids, 30 tables, 6 digit rows, 30 conjugate lists, a 30-action answer
    monkeypatch.setattr(orbits, "ORBIT_MEMORY_CAP",
                        16 * ids + ids * (96 + 4 * 30 + 6) + orbits._STORED_OVERHEAD * (30 + 1) + 400 * 30)
    swap = vertex_perm_actions(2, 3)[:1]
    for perms in ([], swap, []):
        partition_from_actions(perms + edges, 2, 3)
        _assert_entry_matches_reference(6, _edge_perms(perms))
        assert list(_kept()) == [(6, _edge_perms(perms))]
        _assert_running_total()
    assert len(builds) == 13 and builds[-3] == builds[-1] == (6, ())
    assert len(orbits._STORE[6, ()].moves) == 30


def test_action_lists_are_fresh_on_every_call():
    spec = candidate_by_name("ol_Sym_lr").spec
    for build in (lambda: generators_for(spec, 2, 2), lambda: vertex_perm_actions(2, 2),
                  lambda: switch_actions(True, FULL_SUBGROUP.generators(), 2, 2)):
        first = build()
        names = [a.name for a in first]
        first.clear()
        assert [a.name for a in build()] == names


def test_equal_new_actions_are_checked_on_first_sight(monkeypatch):
    # a stored answer is keyed by its actions' identities: new moves equal
    # field by field to a stored list are checked once, then served from
    # their own answer, with the stored list's outcome; each new recoloring
    # sorts its positions once, when it is built, and the copies' answer
    # build finds their conjugates stored in P's entry, so it sorts nothing
    _clear_orbit_caches()
    actions = generators_for(candidate_by_name("ol_S_lr^(12)").spec, 2, 2)
    expected = _outcome(partition_from_actions(actions, 2, 2))
    checked, sorts = _spy(monkeypatch, "_answer"), _spy(monkeypatch, "sorted")
    copies = [dataclasses.replace(a) for a in actions]
    assert len(sorts) == 4
    for _ in range(2):
        assert _outcome(partition_from_actions(copies, 2, 2)) == expected
        assert _outcome(partition_from_actions(actions, 2, 2)) == expected
    assert [call[0] for call in checked] == [tuple(copies)] and len(sorts) == 4
    _assert_running_total()


def test_invalid_action_lists_raise_in_order_on_every_call():
    # the budget first, then each action in turn: an edge permutation must
    # permute range(k), a recoloring must recolor distinct positions in
    # range(k), at least one, by a permutation of (0, 1, 2); a list is refused
    # on every call, also when its valid actions were checked before in
    # another list
    valid = generators_for(candidate_by_name("S_lr^(12)").spec, 2, 2)
    partition_from_actions(valid, 2, 2)
    short, flip = vertex_perm_actions(2, 3)[0], (1, 0, 2)
    malformed = [Recoloring("below", (-1,), flip), Recoloring("above", (4,), flip),
                 Recoloring("twice", (0, 0), flip), EdgePerm("repeated", (0, 0, 1, 2)),
                 Recoloring("collapse", (0,), (0, 0, 1)), Recoloring("nowhere", (), flip)]
    mismatch = "^action does not match the coloring space$"
    for _ in range(2):
        for actions, error, message in (
                (valid + [short], ValueError, mismatch),
                *((valid + [bad], ValueError, mismatch) for bad in malformed),
                ([short, *malformed], BudgetExceededError, "exceeds budget")):
            with pytest.raises(error, match=message):
                partition_from_actions(actions, 2, 2, budget=4 if error is ValueError else 3)
    assert _outcome(partition_from_actions(valid, 2, 2)) == _outcome(partition_from_actions(list(valid), 2, 2))
    _assert_running_total()


def test_warm_calls_below_the_budget_are_refused():
    spec = candidate_by_name("Sym_lr").spec
    actions = generators_for(spec, 3, 3)
    partition_from_actions(actions, 3, 3)
    for budget in (8, 0):
        with pytest.raises(BudgetExceededError, match=f"exceeds budget m\\*n <= {budget}$"):
            generators_for(spec, 3, 3, budget)
        with pytest.raises(BudgetExceededError, match=f"exceeds budget m\\*n <= {budget}$"):
            partition_from_actions(actions, 3, 3, budget)
    assert generators_for(spec, 3, 3, 9) == actions
    assert partition_from_actions(actions, 3, 3, 9).orbit_count == 1


def test_fresh_action_lists_stay_under_a_small_cap(monkeypatch):
    # thousands of lists of new single-edge recolorings at K_{1,3} (P
    # trivial, 27 ids), each checked once, under a 64 KiB cap: their 15
    # distinct moves keep P's entry at about 10 KiB, so answers fill the
    # store.  Every answer is charged, so after each call the running total
    # matches what the store keeps and fits the cap, and old answers are
    # evicted.  The charge covers what the kept answers hold, the new
    # actions they keep alive included.  Each collection empties the free
    # lists that keep freed tuples, so that tracemalloc sees them freed
    monkeypatch.setattr(orbits, "ORBIT_MEMORY_CAP", 2**16)
    _clear_orbit_caches()
    gc.collect()
    tracemalloc.start()
    try:
        for i in range(2000):
            moves = [(i + d) % 15 for d in range(1 + i % 3)]
            actions = [single_edge_action(1, 3, 0, move % 3, ALL_PERMS[1 + move // 3]) for move in moves]
            assert partition_from_actions(actions, 1, 3).actions == len(actions)
            _assert_running_total()
        del actions
        answers = _answers()
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        charged = sum(orbits._STORE.pop(key).nbytes for key in answers)
        del answers
        gc.collect()
        freed = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        _clear_orbit_caches()
    assert 2**13 < freed <= charged < orbits.ORBIT_MEMORY_CAP


def test_stored_answers_are_charged_what_they_hold():
    # 600 distinct lists of 1-3 distinct single-edge recolorings at K_{1,3}
    # (P trivial, 27 ids) under the real cap, each built fresh and kept alive
    # by its answer alone.  Once every answer is dropped, their charge covers
    # what tracemalloc sees them free, and exceeds that by at most half.
    # Each collection empties the free lists that keep freed tuples, so that
    # the answers' tuples are allocated and freed where tracemalloc sees them
    moves = [(j, s) for j in range(3) for s in ALL_PERMS[1:]]
    drawn = [picks for r in (1, 2, 3) for picks in itertools.permutations(moves, r)][:600]
    _clear_orbit_caches()
    gc.collect()
    tracemalloc.start()
    try:
        for picks in drawn:
            partition_from_actions([single_edge_action(1, 3, 0, j, s) for j, s in picks], 1, 3)
        _assert_running_total()
        answers = _answers()
        charged, count = sum(answer.nbytes for answer in answers.values()), len(answers)
        del answers
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for key in [key for key in orbits._STORE if key[1:2] == ("answer",)]:
            del orbits._STORE[key]
        gc.collect()
        freed = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        _clear_orbit_caches()
    assert count == 600
    assert freed <= charged <= 1.5 * freed


def test_recoloring_store_stays_under_the_cap(monkeypatch):
    # with P trivial each table (4 bytes) and digit row (1 byte) spans all 3^6
    # ids of K_{2,3}; the cap leaves room for five tables and their moves'
    # conjugate lists, the two rows of the edges they recolor and a 2-action
    # answer's charge beyond its quotient's data next to the working set, so
    # consecutive pairs of 30 distinct moves fill the store, drop it and
    # refill it, and no call is refused
    m, n, reps = 2, 3, 3**6
    working = 16 * reps + reps * (24 * 1 + 72)
    monkeypatch.setattr(orbits, "ORBIT_MEMORY_CAP",
                        working + reps * (4 * 5 + 2) + orbits._STORED_OVERHEAD * (5 + 1) + 400 * 2)
    _clear_orbit_caches()
    moves = [single_edge_action(m, n, i, j, s) for i in range(m) for j in range(n) for s in ALL_PERMS[1:]]
    assert len(moves) == 30
    sizes = []
    for first, second in zip(moves, moves[1:]):
        part = partition_from_actions([first, second], m, n)
        entry = orbits._STORE[m * n, ()]
        sizes.append(len(entry.moves))
        assert working + _entry_charge(entry) - entry.orbit_of.nbytes - entry.reps.nbytes <= orbits.ORBIT_MEMORY_CAP
        assert all(not array.flags.writeable for array in _entry_arrays(entry))
        assert np.array_equal(part.labels, _reference_partition([first, second], m, n)[0])
        _assert_running_total()
    assert max(sizes) == 5 and min(sizes) == 2  # filled to the cap, then dropped


def test_alternating_edge_permutations_keep_one_entry_under_the_cap(monkeypatch):
    # P trivial and P = <swapL(0,1)> in turn at K_{2,3}, under a cap that
    # fits the trivial-P call's working set (its new quotient's data
    # included), two tables, a digit row, two conjugate lists, and its
    # answer's fixed overhead and two actions.  A swap-P pass also keeps its
    # four answers after the trivial-P entry (each its quotient over 378
    # P-orbits, 40 bytes per slot of the swap, the fixed overhead and 400 per
    # action) and its entry's ten conjugate lists (edge (0, 0)'s five moves
    # and their conjugates at edge (1, 0)), so its cap adds them; in a
    # trivial-P pass they would make room for more tables instead, since the
    # answers are evicted first.  A trivial-P call keeps its entry alone,
    # dropping the other P's entry before its own stored tables, and a swap-P
    # call keeps both (its working set is smaller).  After every call the
    # kept bytes plus the call's working set and the tables and rows stored
    # beside it fit the cap
    m, n, ids = 2, 3, 3**6
    cap = 16 * ids + ids * (24 * 1 + 72) + ids * (4 * 2 + 1) + orbits._STORED_OVERHEAD * (2 + 1) + 400 * 2
    swap_pass = 4 * (4 * 378 + 40 * 6 + orbits._STORED_OVERHEAD + 400 * 3) + orbits._STORED_OVERHEAD * 10
    _clear_orbit_caches()
    swap = vertex_perm_actions(m, n)[:1]
    assert swap[0].name == "swapL(0,1)"
    moves = [single_edge_action(m, n, 0, 0, s) for s in ALL_PERMS[1:]]
    for perms in ([], swap, [], swap):
        monkeypatch.setattr(orbits, "ORBIT_MEMORY_CAP", cap + (swap_pass if perms else 0))
        key = (m * n, _edge_perms(perms))
        for first, second in zip(moves, moves[1:]):
            part = partition_from_actions(perms + [first, second], m, n)
            assert np.array_equal(part.labels, _reference_partition(perms + [first, second], m, n)[0])
            kept = _kept()
            assert list(kept)[-1] == key and len(kept) == (2 if perms else 1)
            others = sum(a.nbytes for k, e in kept.items() if k != key for a in _entry_arrays(e))
            entry = kept[key]
            tables = sum(array.nbytes for array in _entry_arrays(entry)[2:])
            assert others + 16 * ids + entry.reps.size * (24 * 1 + 72) + tables <= orbits.ORBIT_MEMORY_CAP
            _assert_running_total()


def _dense_refines(l1, l2):
    """Every l1 class lies in one l2 class: as many distinct (l1, l2) pairs
    as distinct l1 values."""
    return np.unique(l1.astype(np.int64) * (int(l2.max()) + 1) + l2).size == np.unique(l1).size


def _assert_comparisons_match_dense(left, right):
    dense = {id(p): p.labels for p in left + right}
    for p1, p2 in itertools.product(left, right):
        l1, l2 = dense[id(p1)], dense[id(p2)]
        fine, coarse = _dense_refines(l1, l2), _dense_refines(l2, l1)
        assert refines(p1, p2) == fine and refines(p2, p1) == coarse
        assert partitions_equal(p1, p2) == (fine and coarse) == partitions_equal(p2, p1)


@pytest.mark.parametrize("m,n", [(2, 2), (3, 3)])
def test_compact_comparisons_match_dense_labels(m, n):
    # the 16 side-preserving candidates share one orbit_of and compare their
    # quotients; the 6 swap candidates' P differs, so mixed pairs expand
    parts = [orbit_partition(c.spec, m, n) for c in enumerate_candidate_groups(with_swap=True)]
    assert len({id(p.orbit_of) for p in parts}) == 2
    _assert_comparisons_match_dense(parts, parts)


def test_compact_comparisons_across_an_evicted_entry(monkeypatch):
    # under a cap that fits one 3x3 call alone, the swap candidates' P evicts
    # the side-preserving one and back, so every partition after holds orbit
    # ids rebuilt since those before
    monkeypatch.setattr(orbits, "ORBIT_MEMORY_CAP", 32 * 3**9)
    _clear_orbit_caches()
    cands = enumerate_candidate_groups(with_swap=True)
    before = [orbit_partition(c.spec, 3, 3) for c in cands]
    after = [orbit_partition(c.spec, 3, 3) for c in cands]
    assert len({id(p.orbit_of) for p in before}) == len({id(p.orbit_of) for p in after}) == 2
    assert not {id(p.orbit_of) for p in before} & {id(p.orbit_of) for p in after}
    _assert_comparisons_match_dense(before, after)


def test_labels_are_a_fresh_int32_array_on_every_access():
    for name in ("Aut", "S_l^(12)"):  # P's orbits alone, and a quotient stage
        part = orbit_partition(candidate_by_name(name).spec, 2, 2)
        first, second = part.labels, part.labels
        assert first.dtype == second.dtype == np.int32 and first.shape == (81,)
        for other in (second, part.quotient, part.orbit_of):
            assert not np.shares_memory(first, other)
        first[:] = 7
        assert np.array_equal(part.labels, second)
        assert np.array_equal(orbit_partition(candidate_by_name(name).spec, 2, 2).labels, second)


def test_cached_edge_permutation_orbits_are_read_only():
    perms = vertex_perm_actions(2, 2)
    partition_from_actions(perms, 2, 2)
    entry = orbits._STORE[4, _edge_perms(perms)]
    for array in (entry.orbit_of, entry.reps):
        with pytest.raises(ValueError):
            array[0] = 1
    # a partition's labels are its own, even when P alone makes the orbits
    part = partition_from_actions(perms, 2, 2)
    part.labels[:] = 7
    assert partition_from_actions(perms, 2, 2).labels[0] == 0


def test_quotient_over_the_memory_cap_is_refused(monkeypatch):
    # 32 bytes per id pass the cap check up front, and the S_4 answer's
    # charge beyond its quotient's data beside them (three swaps of four
    # axes); S_4 leaves 15 orbits of the 81 colorings of K_{1,4}, but without
    # it all 81 stay apart
    monkeypatch.setattr(orbits, "ORBIT_MEMORY_CAP", 32 * 81 + 40 * 3 * 4 + orbits._STORED_OVERHEAD + 400 * 3)
    assert partition_from_actions(vertex_perm_actions(1, 4), 1, 4).orbit_count == 15
    for actions in ([], switch_actions(False, [c("(12)")], 1, 4)):
        with pytest.raises(BudgetExceededError, match="quotient"):
            partition_from_actions(actions, 1, 4)


def test_working_set_stays_under_the_cap_multiplier():
    # ORBIT_MEMORY_CAP admits 3^(mn) ids at 32 bytes each; that must cover
    # one call's peak with the store's entry for the other P still held while
    # the next one propagates (the side swap makes ol_Sym_lr's P differ from
    # Sym_lr's and Aut's)
    ids = 3**9
    gens = [generators_for(candidate_by_name(name).spec, 3, 3) for name in ("ol_Sym_lr", "Sym_lr", "Aut")]
    _clear_orbit_caches()
    tracemalloc.start()
    try:
        for actions in gens:
            partition_from_actions(actions, 3, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * ids


@pytest.mark.parametrize("m,n", [(2, 5), (3, 4)])
def test_edge_permutation_orbits_peak_at_24_bytes_per_id(m, n):
    # P's propagation and numbering over 3^(mn) ids: three int32 label arrays
    # and the intp copy ``take`` makes of an int32 index (chunked above
    # 2^16 ids), with the entry's int32 orbit ids among them
    ids = 3 ** (m * n)
    perms = _edge_perms(vertex_perm_actions(m, n))
    _clear_orbit_caches()
    tracemalloc.start()
    try:
        orbits._edge_perm_orbits(m * n, perms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * ids
