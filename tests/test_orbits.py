import itertools
import re

import numpy as np
import pytest
from hypothesis import given

from switchlab.graphs import new_graph
from switchlab.orbits import (
    Action,
    BudgetExceededError,
    GroupSpec,
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
    enumerate_subgroups,
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
        generators_for(GroupSpec(TRIVIAL_SUBGROUP, TRIVIAL_SUBGROUP, True, True), 2, 3)


def test_generators_are_bijections_of_finite_order():
    spec = GroupSpec(BY_LABEL["(123)"], BY_LABEL["(123)"], True, True)
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
    p_lr = orbit_partition(GroupSpec(BY_LABEL["(12)"], BY_LABEL["(123)"], True), 2, 2)
    p_rl = orbit_partition(GroupSpec(BY_LABEL["(123)"], BY_LABEL["(12)"], True), 2, 2)
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
