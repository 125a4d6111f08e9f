import itertools
import re
import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from switchlab import orbits
from switchlab.graphs import new_graph
from switchlab.orbits import (
    Action,
    BudgetExceededError,
    GroupSpec,
    OrbitPartition,
    distinguish_candidates,
    enumerate_candidate_groups,
    candidate_by_name,
    generators_for,
    id_to_coloring,
    orbit_partition,
    partition_from_actions,
    partitions_equal,
    redu_saturation_check,
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
        table = action.table
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
        assert action.table[cid] == coloring_id(apply_word(g, word))


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
    t = transpose_action(2, 2).table
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
    assert redu_saturation_check(BY_LABEL["(12)"], BY_LABEL["(123)"], 2, 2)
    assert redu_saturation_check(BY_LABEL["(13)"], BY_LABEL["(23)"], 2, 2)
    with pytest.raises(ValueError):
        redu_saturation_check(BY_LABEL["(12)"], BY_LABEL["(12)"], 2, 2)


def test_single_edge_action():
    action = single_edge_action(2, 2, 0, 1, c("(12)"))
    g = new_graph(2, 2, [[1, 1], [1, 1]])
    out = id_to_coloring(2, 2, action.table[coloring_id(g)])
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


def test_action_moves_digits_as_documented():
    # a 3-cycle of axes plus a recoloring: neither an involution nor one kind
    action = Action("rot", (1, 2, 0), (0,), (1, 2, 0))
    assert action.table[9] == 12  # digits (1,0,0) -> (0,1,0) -> recolor axis 0 -> (1,1,0)
    assert sorted(action.table.tolist()) == list(range(27))


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


def oracle_table(name, m, n):
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
    rng = np.random.default_rng(m * 10 + n)
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
    count = 3 ** (m * n)
    for action in actions.values():
        expected = oracle_table(action.name, m, n)
        assert np.array_equal(action.table, expected), action.name
        x = rng.integers(0, 1 << 40, size=count)
        assert np.array_equal(action.pull(x), x[expected]), action.name


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
# actions' own tables).


def _reference_partition(actions, m, n):
    labels = oracle_partition([a.table for a in actions], 3 ** (m * n))
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
    # the base and extended lists redu_saturation_check compares, for every
    # subgroup pair that has an edge kill
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
_DRAWN_LISTS = st.sampled_from(_DRAWN_SHAPES).flatmap(
    lambda mn: st.tuples(st.just(mn), st.lists(st.sampled_from(sorted(_action_pool(*mn))), max_size=8))
)


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
    # permutations and every recoloring of the pool has stored its tables
    (m, n), names = drawn
    pool = _action_pool(m, n)
    actions = [pool[name] for name in names]
    _clear_orbit_caches()
    cold = _outcome(partition_from_actions(actions, m, n))
    everything = [a for a in actions if not a.recolor] + [a for a in pool.values() if a.recolor]
    partition_from_actions(everything, m, n)
    assert _outcome(partition_from_actions(actions, m, n)) == cold


def test_any_iterable_of_actions():
    actions = generators_for(GroupSpec(BY_LABEL["(12)"], TRIVIAL_SUBGROUP), 2, 3)
    part = partition_from_actions(actions, 2, 3)
    for again in (partition_from_actions(iter(actions), 2, 3),
                  partition_from_actions((a for a in actions), 2, 3),
                  partition_from_actions(tuple(actions), 2, 3)):
        assert np.array_equal(again.labels, part.labels)
        assert (again.orbit_count, again.actions, again.rounds, again.jumps) == (
            part.orbit_count, part.actions, part.rounds, part.jumps)


def test_action_that_permutes_and_recolors_is_refused():
    rot = Action("rot", (1, 2, 0), (0,), (1, 2, 0))
    assert sorted(rot.table.tolist()) == list(range(27))  # still a valid move
    with pytest.raises(ValueError, match=r"action rot both permutes and recolors"):
        partition_from_actions(vertex_perm_actions(1, 3) + [rot], 1, 3)
    with pytest.raises(ValueError, match=r"action rot both permutes and recolors"):
        partition_from_actions(iter([rot]), 1, 3)


def _clear_orbit_caches():
    for cache in (orbits._edge_perm_orbits, orbits._vertex_perms, orbits._switch_store):
        cache.cache_clear()


def _outcome(part):
    return part.labels.tobytes(), part.orbit_count, part.actions, part.rounds, part.jumps


def test_counters_equal_on_cache_miss_and_hit():
    # at each census shape, every candidate computed with every cache cleared
    # equals its cache hit, and equals itself computed after all of its
    # shape's candidates have filled the shared actions and tables
    assert orbits._edge_perm_orbits.cache_info().maxsize == 2
    for m, n in ((2, 2), (3, 3), (2, 3), (3, 2), (2, 5), (5, 2)):
        cands = enumerate_candidate_groups(with_swap=m == n)
        cold = {}
        for cand in cands:
            actions = generators_for(cand.spec, m, n)
            _clear_orbit_caches()
            cold[cand.name] = _outcome(partition_from_actions(actions, m, n))
            hits = orbits._edge_perm_orbits.cache_info().hits
            assert _outcome(partition_from_actions(actions, m, n)) == cold[cand.name], cand.name
            assert orbits._edge_perm_orbits.cache_info().hits == hits + 1
        for cand in cands:
            orbit_partition(cand.spec, m, n)
        for cand in cands:
            assert _outcome(orbit_partition(cand.spec, m, n)) == cold[cand.name], cand.name


def test_action_lists_are_fresh_on_every_call():
    spec = candidate_by_name("ol_Sym_lr").spec
    for build in (lambda: generators_for(spec, 2, 2), lambda: vertex_perm_actions(2, 2),
                  lambda: switch_actions(True, FULL_SUBGROUP.generators(), 2, 2)):
        first = build()
        names = [a.name for a in first]
        first.clear()
        assert [a.name for a in build()] == names


def test_recoloring_store_stays_under_the_cap(monkeypatch):
    # with P trivial each table spans all 3^6 ids of K_{2,3}; the cap leaves
    # room for five tables next to the working set, so consecutive pairs of 30
    # distinct moves fill the store, drop it and refill it, and no call is refused
    m, n, reps = 2, 3, 3**6
    working = 16 * reps + reps * (24 * 1 + 72)
    monkeypatch.setattr(orbits, "ORBIT_MEMORY_CAP", working + 4 * reps * 5)
    _clear_orbit_caches()
    moves = [single_edge_action(m, n, i, j, s) for i in range(m) for j in range(n) for s in ALL_PERMS[1:]]
    assert len(moves) == 30
    sizes = []
    for first, second in zip(moves, moves[1:]):
        part = partition_from_actions([first, second], m, n)
        stored = orbits._edge_perm_orbits(m * n, ())[-1]
        sizes.append(len(stored))
        assert working + 4 * reps * len(stored) <= orbits.ORBIT_MEMORY_CAP
        assert all(not table.flags.writeable for table in stored.values())
        assert np.array_equal(part.labels, _reference_partition([first, second], m, n)[0])
    assert max(sizes) == 5 and min(sizes) == 2  # filled to the cap, then dropped


def test_both_entries_tables_share_one_allowance(monkeypatch):
    # P trivial, then P = <swapL(0,1)>, then P trivial again, at K_{2,3} under
    # a cap that leaves the trivial-P call room for five tables: after every
    # call, its working set plus the tables both entries store fit the cap.
    # Each entry bounded apart held 14,580 + 15,120 bytes of tables, twice
    # what the trivial-P call may hold, and the third run went over.
    m, n, ids = 2, 3, 3**6
    monkeypatch.setattr(orbits, "ORBIT_MEMORY_CAP", 16 * ids + ids * (24 * 1 + 72) + 4 * ids * 5)
    _clear_orbit_caches()
    swap = vertex_perm_actions(m, n)[:1]
    assert swap[0].name == "swapL(0,1)"
    moves = [single_edge_action(m, n, 0, 0, s) for s in ALL_PERMS[1:]]
    for perms in ([], swap, []):
        for first, second in zip(moves, moves[1:]):
            part = partition_from_actions(perms + [first, second], m, n)
            assert np.array_equal(part.labels, _reference_partition(perms + [first, second], m, n)[0])
            reps = orbits._edge_perm_orbits(m * n, tuple(a.axes for a in perms))[1].size
            stored = sum(table.nbytes for key in ((), (swap[0].axes,))
                         for table in orbits._edge_perm_orbits(m * n, key)[-1].values())
            assert 16 * ids + reps * (24 * 1 + 72) + stored <= orbits.ORBIT_MEMORY_CAP


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


def test_compact_comparisons_across_an_evicted_entry():
    cands = enumerate_candidate_groups(with_swap=True)
    before = [orbit_partition(c.spec, 3, 3) for c in cands]
    for m, n in ((2, 3), (3, 2)):  # two other shapes evict both 3x3 entries
        orbit_partition(cands[0].spec, m, n)
    after = [orbit_partition(c.spec, 3, 3) for c in cands]
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
    for array in orbits._edge_perm_orbits(4, tuple(a.axes for a in perms))[:2]:
        with pytest.raises(ValueError):
            array[0] = 1
    # a partition's labels are its own, even when P alone makes the orbits
    part = partition_from_actions(perms, 2, 2)
    part.labels[:] = 7
    assert partition_from_actions(perms, 2, 2).labels[0] == 0


def test_quotient_over_the_memory_cap_is_refused(monkeypatch):
    # 32 bytes per id pass the cap check up front; S_4 leaves 15 orbits of
    # the 81 colorings of K_{1,4}, but without it all 81 stay apart
    monkeypatch.setattr(orbits, "ORBIT_MEMORY_CAP", 32 * 81)
    assert partition_from_actions(vertex_perm_actions(1, 4), 1, 4).orbit_count == 15
    for actions in ([], switch_actions(False, [c("(12)")], 1, 4)):
        with pytest.raises(BudgetExceededError, match="quotient"):
            partition_from_actions(actions, 1, 4)


def test_working_set_stays_under_the_cap_multiplier():
    # ORBIT_MEMORY_CAP admits 3^(mn) ids at 32 bytes each; that must cover
    # one call's peak with the cache's other entry held (the side swap makes
    # ol_Sym_lr's P differ from Sym_lr's and Aut's)
    ids = 3**9
    gens = [generators_for(candidate_by_name(name).spec, 3, 3) for name in ("ol_Sym_lr", "Sym_lr", "Aut")]
    orbits._edge_perm_orbits.cache_clear()
    tracemalloc.start()
    try:
        for actions in gens:
            partition_from_actions(actions, 3, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * ids
