import functools
import itertools
import math
import random
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from switchlab import randomlab
from switchlab.graphs import ColoredBipartiteGraph, Side, constant_graph, new_graph
from switchlab.randomlab import (
    ExtensionReport,
    SampledCheck,
    ThetaBudgetError,
    ThetaCounterexample,
    bound_ratio_check,
    chain,
    check_theta,
    check_theta_sampled,
    estimate_failure_prob,
    random_graph,
    sfsp_bound,
    verify_counterexample,
)

from conftest import graphs, shifted_cubic_graph


def edge_color(seed, i, j):
    # the scalar oracle for random_graph's uint64 pass: one edge's color
    # from (seed, i, j) alone, with the finalizer on Python ints
    mix, mask = randomlab._mix, randomlab._MASK
    h = mix(mix((seed & mask) ^ (i * randomlab._MULT_I & mask)) ^ (j * randomlab._MULT_J & mask))
    return 1 + h % 3


def test_random_graph_deterministic():
    assert random_graph(2, 2, 0) == random_graph(2, 2, 0)
    assert random_graph(3, 4, 5) != random_graph(3, 4, 6)
    empty = random_graph(0, 5, 3)
    assert (empty.m, empty.n) == (0, 5)


def test_random_graph_frequencies():
    g = random_graph(50, 50, 1)
    freq = Counter(color for row in g.colors for color in row)
    for color in (1, 2, 3):
        assert abs(freq[color] / 2500 - 1 / 3) < 0.05


def test_edge_color_is_counter_based():
    # the color of an edge never depends on the graph it is read from
    assert random_graph(6, 6, 42).colors[2][3] == edge_color(42, 2, 3)
    assert edge_color(42, 2, 3) == edge_color(42, 2, 3)
    assert edge_color(42, 2, 3) in (1, 2, 3)


def test_chain_shape():
    graphs_ = chain(7, 6)
    assert [(g.m, g.n) for g in graphs_] == [
        (1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (3, 3),
    ]
    with pytest.raises(ValueError):
        chain(7, 0)


def test_chain_prefix_stability():
    graphs_ = chain(3, 12)
    for small, big in zip(graphs_, graphs_[1:]):
        assert tuple(row[:small.n] for row in big.colors[:small.m]) == small.colors
    longer = chain(3, 17)
    assert longer[:12] == graphs_


def test_check_theta_monochromatic_fails():
    report = check_theta(constant_graph(3, 3, 1), 1)
    assert not report.holds
    assert report.counterexample is not None
    assert verify_counterexample(constant_graph(3, 3, 1), 1, report.counterexample)
    # some single left vertex wanting a missing color already fails
    sizes = [len(s) for s in report.counterexample.sets]
    assert sum(sizes) == 1


def test_check_theta_empty_side():
    report = check_theta(random_graph(0, 5, 3), 1)
    assert not report.holds
    assert report.counterexample.side is Side.RIGHT
    report = check_theta(random_graph(5, 0, 3), 1)
    assert not report.holds
    assert report.counterexample.side is Side.LEFT


def test_check_theta_budget():
    with pytest.raises(ThetaBudgetError):
        check_theta(random_graph(40, 40, 0), 2)


@given(graphs(min_m=1, min_n=1, max_m=4, max_n=4))
def test_check_theta_monotone_in_k(g):
    # order k implies order k-1: a failure at k-1 extends to one at k
    r1 = check_theta(g, 1)
    r2 = check_theta(g, 2)
    if r2.holds:
        assert r1.holds


def test_counterexamples_verify():
    for seed in range(30):
        g = random_graph(4, 5, seed)
        report = check_theta(g, 1)
        if not report.holds:
            assert verify_counterexample(g, 1, report.counterexample)


def test_verify_counterexample_rejects_junk():
    g = constant_graph(2, 2, 1)
    bad = ThetaCounterexample(Side.LEFT, ((0,), (0,), ()))
    assert not verify_counterexample(g, 1, bad)  # sets overlap
    ok_sets = ThetaCounterexample(Side.LEFT, ((0,), (1,), ()))
    assert verify_counterexample(g, 1, ok_sets)  # no witness with colors 1, 2
    witnessed = ThetaCounterexample(Side.LEFT, ((0,), (), ()))
    assert not verify_counterexample(g, 1, witnessed)  # color 1 is served
    negative = ThetaCounterexample(Side.LEFT, ((-1,), (0,), ()))
    assert not verify_counterexample(g, 1, negative)  # no vertex -1
    beyond = ThetaCounterexample(Side.RIGHT, ((), (2,), ()))
    assert not verify_counterexample(g, 1, beyond)  # no right vertex 2


def test_exact_checker_accepts_structured_graph():
    g = shifted_cubic_graph(97)
    report = check_theta(g, 1, budget=2_000_000)
    assert report.holds
    assert report.counterexample is None
    # sampled checking is sound: a holding graph shows no violations
    sampled = check_theta_sampled(g, 1, 2000, seed=5)
    assert sampled.violations == 0


def test_no_small_square_graph_meets_extension_k1():
    # counting oracle: a witness column with color counts (n1, n2, n3) serves
    # n1*n2*n3 ordered triples, at most 8 for 6 rows; 6 columns cover at most
    # 48 of the 120 ordered triples, so no 6x6 graph can hold
    best_per_column = max(
        n1 * n2 * (6 - n1 - n2) for n1 in range(7) for n2 in range(7 - n1)
    )
    assert best_per_column == 8
    assert 6 * best_per_column < 6 * 5 * 4
    for seed in range(300):
        assert not check_theta(random_graph(6, 6, seed), 1).holds


def _exact_violation_fraction(g, k):
    # independent oracle: direct enumeration with nested loops, no masks
    total = 0
    failing = 0
    for side in (Side.LEFT, Side.RIGHT):
        size = g.side_size(side)
        witnesses = g.side_size(side.other())
        universe = range(size)
        for s1, s2, s3 in itertools.product(range(k + 1), repeat=3):
            if s1 + s2 + s3 > size:
                continue
            for x1 in itertools.combinations(universe, s1):
                rest1 = [v for v in universe if v not in x1]
                for x2 in itertools.combinations(rest1, s2):
                    rest2 = [v for v in rest1 if v not in x2]
                    for x3 in itertools.combinations(rest2, s3):
                        total += 1
                        ok = False
                        for w in range(witnesses):
                            good = True
                            for color, xs in ((1, x1), (2, x2), (3, x3)):
                                for x in xs:
                                    edge = (
                                        g.colors[x][w]
                                        if side is Side.LEFT
                                        else g.colors[w][x]
                                    )
                                    if edge != color:
                                        good = False
                                        break
                                if not good:
                                    break
                            if good:
                                ok = True
                                break
                        failing += not ok
    return failing / total


def test_sampled_converges_to_exact_fraction():
    g = random_graph(4, 4, 2024)
    exact = _exact_violation_fraction(g, 1)
    sampled = check_theta_sampled(g, 1, 100_000, seed=9)
    assert abs(sampled.violation_rate - exact) < 0.01


def test_sampled_finds_monochromatic_violations():
    g = constant_graph(10, 10, 1)
    sampled = check_theta_sampled(g, 1, 100, seed=2)
    assert sampled.violation_rate > 0


def test_sampled_determinism_and_validation():
    g = random_graph(5, 5, 1)
    a = check_theta_sampled(g, 1, 500, seed=4)
    b = check_theta_sampled(g, 1, 500, seed=4)
    assert a == b
    with pytest.raises(ValueError):
        check_theta_sampled(g, 1, 0, seed=4)
    with pytest.raises(ValueError):
        check_theta_sampled(g, 0, 10, seed=4)


# Reference extension check: Python-int witness masks and one nested loop
# per set, the implementation the packed scan replaced.


def _reference_masks(g, side):
    """Per color c and set-side vertex x, the bitmask of witnesses w on the
    other side with edge color c toward x."""
    size, witnesses = g.side_size(side), g.side_size(side.other())
    masks = [[0] * size for _ in range(4)]
    for x in range(size):
        for w in range(witnesses):
            color = g.colors[x][w] if side is Side.LEFT else g.colors[w][x]
            masks[color][x] |= 1 << w
    return masks


def _reference_size_triples(k):
    return sorted(itertools.product(range(k + 1), repeat=3), key=lambda t: (sum(t), t))


def _reference_check_side(g, side, k):
    size = g.side_size(side)
    masks = _reference_masks(g, side)
    full = (1 << g.side_size(side.other())) - 1
    checked = 0
    for s1, s2, s3 in _reference_size_triples(k):
        if s1 + s2 + s3 > size:
            continue
        for x1 in itertools.combinations(range(size), s1):
            m1 = full
            for x in x1:
                m1 &= masks[1][x]
            rest1 = [v for v in range(size) if v not in x1]
            for x2 in itertools.combinations(rest1, s2):
                m2 = m1
                for x in x2:
                    m2 &= masks[2][x]
                rest2 = [v for v in rest1 if v not in x2]
                for x3 in itertools.combinations(rest2, s3):
                    m3 = m2
                    for x in x3:
                        m3 &= masks[3][x]
                    checked += 1
                    if m3 == 0:
                        return ThetaCounterexample(side, (x1, x2, x3)), checked
    return None, checked


def _reference_check_theta(g, k):
    cex, checked_left = _reference_check_side(g, Side.LEFT, k)
    if cex is not None:
        return ExtensionReport(k, False, cex, checked_left, 0)
    cex, checked_right = _reference_check_side(g, Side.RIGHT, k)
    return ExtensionReport(k, cex is None, cex, checked_left, checked_right)


def _reference_sampled(g, k, trials, seed):
    """One Python-int AND per trial over the same draws."""
    masks = {side: _reference_masks(g, side) for side in (Side.LEFT, Side.RIGHT)}
    cells = []
    for side in (Side.LEFT, Side.RIGHT):
        size = g.side_size(side)
        for s1, s2, s3 in _reference_size_triples(k):
            if s1 + s2 + s3 <= size:
                count = math.comb(size, s1) * math.comb(size - s1, s2) * math.comb(size - s1 - s2, s3)
                cells.append((side, (s1, s2, s3), count))
    total = sum(count for _, _, count in cells)
    rng = random.Random(seed)
    violations = 0
    for _ in range(trials):
        r = rng.randrange(total)
        for side, sizes, count in cells:
            if r < count:
                break
            r -= count
        pool = list(range(g.side_size(side)))
        joint = (1 << g.side_size(side.other())) - 1
        for color, s in zip((1, 2, 3), sizes):
            picked = sorted(rng.sample(pool, s))
            for x in picked:
                joint &= masks[side][color][x]
            pool = [v for v in pool if v not in picked]
        violations += joint == 0
    return SampledCheck(k, trials, violations)


def test_witness_planes_match_reference_masks():
    for m, n, seed in ((0, 3, 1), (3, 0, 1), (5, 64, 2), (70, 130, 3)):
        g = random_graph(m, n, seed)
        colors = np.frombuffer(b"".join(g.colors), np.uint8).reshape(g.m, g.n)
        for side in (Side.LEFT, Side.RIGHT):
            planes = randomlab._witness_planes(colors if side is Side.LEFT else colors.T)
            masks = _reference_masks(g, side)
            size, witnesses = g.side_size(side), g.side_size(side.other())
            assert planes.shape == (3, size + 1, witnesses) and planes.dtype == np.float32
            assert set(np.unique(planes).tolist()) <= {0.0, 1.0}
            as_int = lambda row: sum(1 << int(w) for w in np.flatnonzero(row))
            for c in (1, 2, 3):
                assert [as_int(planes[c - 1, x]) for x in range(size)] == masks[c]
                assert as_int(planes[c - 1, size]) == (1 << witnesses) - 1  # sentinel


@given(graphs(max_m=6, max_n=6), st.integers(1, 3))
@example(new_graph(1, 3, [[1, 2, 3]]), 2)  # left holds, right fails
@example(new_graph(0, 0, []), 1)
@example(random_graph(4, 0, 5), 3)
@example(random_graph(2, 9, 4), 3)
def test_check_theta_matches_reference(g, k):
    assert check_theta(g, k, budget=10**6) == _reference_check_theta(g, k)


def test_check_theta_k1_matches_reference_deep_failures():
    # failures in every k=1 cell with a nonempty set, down to (1, 1, 1)
    # thousands of configurations into the scan
    cubic = shifted_cubic_graph(97)
    cases = [
        random_graph(40, 40, 0),
        random_graph(56, 56, 16),
        random_graph(56, 56, 28),
        random_graph(70, 70, 17),
        random_graph(70, 70, 25),
        random_graph(45, 67, 3),
        new_graph(97, 97, [[1] + list(row[1:]) for row in cubic.colors]),
    ]
    for g in cases:
        report = check_theta(g, 1, budget=10**6)
        assert not report.holds
        assert report == _reference_check_theta(g, 1)
    assert {tuple(map(len, check_theta(g, 1, 10**6).counterexample.sets)) for g in cases} >= {
        (0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1),
    }


def _mostly_two_colors(m, n, seed):
    """A random graph with three in four color-3 edges recolored 1: most
    configurations with a third set fail, and which ones depends on exactly
    which vertices were drawn."""
    rows = random_graph(m, n, seed).colors
    return new_graph(m, n, [[1 if c == 3 and (i + j) % 4 else c for j, c in enumerate(row)]
                            for i, row in enumerate(rows)])


# Up to 30 vertices a side: sample's pool branch (at most 21 left) and its
# set branch both run, and a set of more than five raises the pool's limit.
_WIDE_GRAPHS = st.one_of(
    graphs(max_m=6, max_n=6),
    st.builds(random_graph, st.integers(0, 30), st.integers(0, 30), st.integers(0, 2**32)),
    st.builds(_mostly_two_colors, st.integers(0, 30), st.integers(0, 30), st.integers(0, 2**32)),
)


@given(_WIDE_GRAPHS, st.integers(1, 7), st.integers(0, 2**32))
@example(_mostly_two_colors(30, 30, 4), 7, 1)
@example(_mostly_two_colors(25, 3, 2), 2, 5)
def test_sampled_matches_reference(g, k, seed):
    assert check_theta_sampled(g, k, 60, seed) == _reference_sampled(g, k, 60, seed)


def test_sampled_draws_see_many_violations():
    # 30 vertices a side, where violations and passes both number dozens
    # in 2000 draws: a draw that takes a wrong vertex changes the count
    cases = (
        (random_graph(30, 30, 3), 1),
        (_mostly_two_colors(30, 30, 3), 1),
        (random_graph(30, 30, 3), 2),
        (shifted_cubic_graph(37), 2),
    )
    for g, k in cases:
        sampled = check_theta_sampled(g, k, 2000, 9)
        assert 0.05 < sampled.violation_rate < 0.97
        assert sampled == _reference_sampled(g, k, 2000, 9)
        assert sampled.blocks >= 2  # both sides are drawn


def test_sampled_matches_reference_across_blocks(monkeypatch):
    # a tiny block size splits the trials into many ragged blocks
    monkeypatch.setattr(randomlab, "_BLOCK_WORDS", 20)
    for g, k in ((random_graph(9, 70, 1), 2), (random_graph(12, 12, 6), 1), (random_graph(0, 5, 2), 3)):
        for seed in (0, 11):
            assert check_theta_sampled(g, k, 301, seed) == _reference_sampled(g, k, 301, seed)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_sampled_matches_reference_thin_shapes(k):
    # empty sides, one vertex a side, and orders past a side's size: the
    # all-empty cell (0, 0, 0) is drawn, also on a side with no witnesses
    for g in (random_graph(0, 5, 1), random_graph(4, 0, 2), random_graph(0, 0, 3),
              random_graph(1, 1, 4), random_graph(2, 1, 5), constant_graph(2, 3, 2)):
        for seed in (0, 7):
            assert check_theta_sampled(g, k, 200, seed) == _reference_sampled(g, k, 200, seed)


def test_sampled_block_holds_several_cells_of_both_sides(monkeypatch):
    # 20 draws a block: each block holds draws of several cells of both
    # sides, and laying them out in one pass counts every draw once
    for g, k in ((random_graph(12, 12, 6), 1), (_mostly_two_colors(12, 12, 3), 2),
                 (random_graph(9, 9, 5), 3)):
        width = min(k, max(g.m, g.n))
        monkeypatch.setattr(randomlab, "_BLOCK_WORDS", 10 * 3 * width * max(g.m, g.n))
        for seed in (0, 11):
            sampled = check_theta_sampled(g, k, 300, seed)
            assert sampled == _reference_sampled(g, k, 300, seed)
            assert sampled.blocks == 2 * 300 // 20


def test_sampled_temporaries_within_block_words(monkeypatch):
    # a block's layout, map and gather are sized by _BLOCK_WORDS, not by the
    # trials: the peak of 20,000 draws stays within a few blocks' words
    monkeypatch.setattr(randomlab, "_BLOCK_WORDS", 2**12)
    g = random_graph(30, 30, 1)
    check_theta_sampled(g, 3, 10, 1)
    tracemalloc.start()
    try:
        check_theta_sampled(g, 3, 20_000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * randomlab._BLOCK_WORDS


def _few_color1_edges(q, row, keep):
    """The cubic-residue graph on q with all but the first ``keep`` color-1
    edges of left vertex ``row`` recolored 2: configurations with ``row`` as
    the first set fail, the others mostly still hold."""
    colors = [list(r) for r in shifted_cubic_graph(q).colors]
    ones = [w for w, c in enumerate(colors[row]) if c == 1]
    for w in ones[keep:]:
        colors[row][w] = 2
    return new_graph(q, q, colors)


def _unserved(g, sets, victim):
    """``g`` with edge (victim, w) recolored for every witness w serving the
    left-side configuration ``sets``, of which ``victim`` is a member: that
    configuration fails, and any other loses at most those witnesses."""
    colors = [list(row) for row in g.colors]
    for w in range(g.n):
        if all(colors[x][w] == c for c, xs in zip((1, 2, 3), sets) for x in xs):
            colors[victim][w] = colors[victim][w] % 3 + 1
    return new_graph(g.m, g.n, colors)


def _blocked_scan_cases():
    # (graph, k, expected counterexample sizes, property of the sets)
    first, last = lambda x1, x2: x1 == (0,), lambda x1, x2: x1 == (96,)
    # every k = 2 configuration of total size 3 holds on the left of `base`;
    # the failures put there have the empty set in the middle or last place,
    # past the first row block: 150 words hold 1 row of (1, 0, 2) and 15 of
    # (2, 0, 1) and (2, 1, 0), 1000 words 10 and 100
    base = random_graph(20, 400, 1)
    return [
        (_few_color1_edges(97, 0, 2), 1, (1, 0, 1), first),
        (_few_color1_edges(97, 0, 17), 1, (1, 1, 1), first),
        (_few_color1_edges(97, 96, 5), 1, (1, 0, 1), last),
        (_few_color1_edges(97, 96, 8), 1, (1, 1, 0), lambda x1, x2: x2 < x1 == (96,)),
        (_few_color1_edges(97, 96, 11), 1, (1, 1, 1), lambda x1, x2: x2 < x1 == (96,)),
        (random_graph(5, 8, 11), 2, (1, 0, 0), first),
        (shifted_cubic_graph(31), 2, (0, 1, 2), lambda x1, x2: True),
        (shifted_cubic_graph(31), 3, (0, 0, 3), lambda x1, x2: True),
        (_unserved(base, ((13,), (), (4, 17)), 17), 2, (1, 0, 2), lambda x1, x2: x1 == (13,)),
        (_unserved(base, ((7, 12), (), (3,)), 3), 2, (2, 0, 1), lambda x1, x2: x1 == (7, 12)),
        (_unserved(base, ((9, 14), (2,), ()), 2), 2, (2, 1, 0), lambda x1, x2: (x1, x2) == ((9, 14), (2,))),
    ]


@pytest.mark.parametrize("block_words", [150, 1000])
def test_blocked_scan_matches_reference(monkeypatch, block_words):
    # 150 words splits every (x1, x2) row's x3 masks into tiles; 1000 splits
    # the x2 rows of one x1 into blocks and batches x1 where x2 is short
    monkeypatch.setattr(randomlab, "_BLOCK_WORDS", block_words)
    for g, k, sizes, shape in _blocked_scan_cases():
        report = check_theta(g, k, budget=10**20)
        assert report == _reference_check_theta(g, k)
        x1, x2, _ = report.counterexample.sets
        assert tuple(map(len, report.counterexample.sets)) == sizes and shape(x1, x2)
    holds = check_theta(shifted_cubic_graph(97), 1, budget=10**7)
    space = randomlab._config_count(97, 1)
    assert (holds.holds, holds.checked_left, holds.checked_right) == (True, space, space)
    # transposed, this graph holds on the left and fails on the right after
    # a full left scan; the right scan is the untransposed left scan
    g = _few_color1_edges(109, 108, 11)
    left = _reference_check_theta(g, 1)
    flipped = new_graph(109, 109, [list(col) for col in zip(*g.colors)])
    report = check_theta(flipped, 1, budget=10**7)
    assert report.counterexample == ThetaCounterexample(Side.RIGHT, left.counterexample.sets)
    assert (report.checked_left, report.checked_right) == (
        randomlab._config_count(109, 1), left.checked_left,
    )


def _first_set_blocks(n1, most):
    """(first, last) first set of each block: widths 1, 2, 4, ... up to most."""
    blocks, lo, width = [], 0, 1
    while lo < n1:
        blocks.append((lo, min(lo + width, n1) - 1))
        lo += width
        width = min(2 * width, most)
    return blocks


@pytest.mark.parametrize("block_words", [randomlab._BLOCK_WORDS, 17822])
def test_batched_first_sets_fail_mid_block(monkeypatch, block_words):
    # the default block words batch up to 13 first sets of cell (1, 1, 1)
    # at 97 vertices (11 at 109), and 17822 up to 3; first set 10 fails
    # there and sits inside a block, neither its first nor its last
    monkeypatch.setattr(randomlab, "_BLOCK_WORDS", block_words)
    most = 2 * block_words // 97 // 97
    (lo, hi), = [b for b in _first_set_blocks(97, most) if b[0] <= 10 <= b[1]]
    assert lo < 10 < hi
    for keep in (14, 17, 20):
        g = _few_color1_edges(97, 10, keep)
        report = check_theta(g, 1, budget=10**7)
        assert report == _reference_check_theta(g, 1)
        assert report.exit_cell == (1, 1, 1) and report.counterexample.sets[0] == (10,)
    # on 109 vertices, transposed: the right side fails after a full left scan
    most = 2 * block_words // 109 // 109
    (lo, hi), = [b for b in _first_set_blocks(109, most) if b[0] <= 10 <= b[1]]
    assert lo < 10 < hi
    g = _few_color1_edges(109, 10, 17)
    flipped = new_graph(109, 109, [list(col) for col in zip(*g.colors)])
    report = check_theta(flipped, 1, budget=10**7)
    assert report == _reference_check_theta(flipped, 1)
    assert report.counterexample.side is Side.RIGHT and report.counterexample.sets[0] == (10,)


def test_set_planes_built_one_member_at_a_time():
    # 9880 size-3 sets over 200 witnesses are 7.5 MiB of float32 planes; a
    # gather of all three members at once would add 22.6 MiB
    g = random_graph(40, 200, 2)
    tracemalloc.start()
    try:
        report = check_theta(g, 3, budget=10**20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.exit_cell == (0, 0, 3)
    assert peak <= 20 * 2**20


def test_size_triples_is_one_immutable_table_per_k():
    for k in range(32):
        table = randomlab._size_triples(k)
        assert table == tuple(_reference_size_triples(k))
        assert table is randomlab._size_triples(k)
        assert all(type(cell) is tuple for cell in table)
        with pytest.raises(TypeError):
            table[0] = (0, 0, 0)
        with pytest.raises(AttributeError):
            table.append((k + 1, 0, 0))


def test_config_count_is_the_multinomial_sum():
    for size in range(13):
        for k in range(1, 5):
            expected = sum(
                math.factorial(size)
                // (math.factorial(s1) * math.factorial(s2) * math.factorial(s3)
                    * math.factorial(size - s1 - s2 - s3))
                for s1, s2, s3 in itertools.product(range(k + 1), repeat=3)
                if s1 + s2 + s3 <= size
            )
            assert randomlab._config_count(size, k) == expected
            ends = randomlab._cell_ends(size, min(k, size))
            assert len(ends) == (min(k, size) + 1) ** 3 and ends[-1] == expected
            assert list(ends) == sorted(ends)
    assert randomlab._cell_ends.cache_info().maxsize == 8


@given(graphs(max_m=6, max_n=6))
@example(random_graph(0, 5, 1))
@example(random_graph(5, 0, 1))
def test_small_set_planes_match_the_product(g):
    # the empty set's plane is the sentinel row (a view), a vertex's plane
    # its row (a contiguous copy); both equal _set_planes' product
    colors = np.frombuffer(b"".join(g.colors), np.uint8).reshape(g.m, g.n)
    for rows in (colors, colors.T):
        planes = randomlab._witness_planes(rows)
        size = rows.shape[0]
        for sets in (np.empty((1, 0), np.intp), np.arange(size, dtype=np.intp)[:, None]):
            for color in range(3):
                fast = randomlab._size_planes(planes[color], sets)
                assert fast.dtype == np.float32
                assert np.array_equal(fast, randomlab._set_planes(planes[color], sets))
                if sets.shape[1]:
                    assert fast.flags.c_contiguous
                else:
                    assert fast.base is planes


def test_mix_works_in_place_on_arrays_and_on_ints():
    values = [0, 1, 5, 2**63 + 5, 2**64 - 1]
    array = np.array(values, dtype=np.uint64)
    mixed = randomlab._mix(array)
    assert mixed is array
    assert mixed.tolist() == [randomlab._mix(v) for v in values]
    assert randomlab._mix(0) == 0xE220A8397B1DCDAF  # SplitMix64's first output for state 0


@given(graphs(max_m=7, max_n=7), st.integers(1, 3), st.sampled_from([1, 2, 5, 40]))
@example(new_graph(1, 3, [[1, 2, 3]]), 2, 1)
@example(random_graph(4, 0, 5), 3, 1)
def test_blocked_scan_matches_reference_small(g, k, block_words):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(randomlab, "_BLOCK_WORDS", block_words)
        assert check_theta(g, k, budget=10**6) == _reference_check_theta(g, k)


@pytest.mark.parametrize("block_words", [3, 150, 1000, 5000])
def test_scan_temporaries_within_block_words(monkeypatch, block_words):
    # every GEMM the scan runs goes through _served; its float32 product
    # must fit in block_words 8-byte words
    spans = []
    served = randomlab._served

    def spy(lhs, rhs):
        spans.append(4 * lhs.shape[1] * rhs.shape[1])
        return served(lhs, rhs)

    monkeypatch.setattr(randomlab, "_served", spy)
    monkeypatch.setattr(randomlab, "_BLOCK_WORDS", block_words)
    reports = [
        check_theta(_few_color1_edges(97, 0, 17), 1, budget=10**7),
        check_theta(random_graph(9, 130, 4), 3, budget=10**20),
        check_theta(shifted_cubic_graph(31), 2, budget=10**12),
    ]
    assert len(spans) == sum(r.kernel_calls for r in reports)
    assert 0 < max(spans) <= 8 * block_words


def test_gemm_over_no_witnesses_serves_nothing(monkeypatch):
    # zero witnesses: a product of zero-height operands is all zero
    served = randomlab._served(np.zeros((0, 3), np.float32), np.zeros((0, 2), np.float32))
    assert served.shape == (3, 2) and not served.any()
    # a first set without color-1 witnesses fails at (s1, 0, 0) first, so
    # only a scan of cell (1, 1, 1) alone runs a GEMM over an empty W(x1);
    # the oracle scans the same single cell
    only = lambda k: [(1, 1, 1)]
    monkeypatch.setattr(randomlab, "_size_triples", only)
    # counts cached from the one-cell table must not outlive this test
    fresh = functools.lru_cache(randomlab._cell_ends.__wrapped__)
    monkeypatch.setattr(randomlab, "_cell_ends", fresh)
    monkeypatch.setitem(globals(), "_reference_size_triples", only)
    colors = [list(row) for row in shifted_cubic_graph(97).colors]
    colors[5] = [2 if c == 1 else c for c in colors[5]]
    g = new_graph(97, 97, colors)
    for block_words in (randomlab._BLOCK_WORDS, 150):
        monkeypatch.setattr(randomlab, "_BLOCK_WORDS", block_words)
        report = check_theta(g, 1, budget=10**7)
        assert report == _reference_check_theta(g, 1)
        assert report.counterexample.sets == ((5,), (0,), (1,))
        assert report.checked_left == 5 * 96 * 95 + 1


@pytest.mark.parametrize("m, n", [(4, 0), (0, 4), (1, 1), (1, 5), (1, 64), (1, 130), (130, 1)])
def test_check_theta_thin_graphs_match_reference(m, n):
    # an empty side has no witnesses, so every GEMM of the other side is
    # over zero witnesses; one vertex on a side allows only its k=1 cells
    for seed in (1, 2):
        g = random_graph(m, n, seed)
        for k in (1, 2, 3):
            report = check_theta(g, k, budget=10**20)
            assert report == _reference_check_theta(g, k)
            cex = report.counterexample
            assert report.exit_cell == (None if cex is None else tuple(map(len, cex.sets)))


def test_extension_report_counters():
    g = shifted_cubic_graph(97)
    holds = check_theta(g, 1, budget=10**7)
    assert holds.exit_cell is None
    # cell (1, 1, 1) runs one GEMM per first set, in blocks of up to
    # room // 97 first sets; every other cell one GEMM per block
    most = 2 * randomlab._BLOCK_WORDS // 97 // 97
    batched = _first_set_blocks(97, most)
    assert most == 13 and len(batched) == 11
    assert holds.kernel_calls - holds.blocks == 2 * (97 - len(batched))
    assert holds.blocks < 2 * 97 < holds.kernel_calls
    # per side, each of the 7 cells with an empty set is one block and one
    # GEMM, its empty set being the outer set
    assert (holds.blocks, holds.kernel_calls) == (2 * (7 + 11), 2 * (7 + 97)) == (36, 208)
    fails = check_theta(random_graph(40, 40, 3), 1)
    assert fails.exit_cell == (0, 1, 1) == tuple(map(len, fails.counterexample.sets))
    assert 0 < fails.blocks <= fails.kernel_calls < holds.blocks
    assert fails.blocks == fails.kernel_calls == 5  # one per cell up to (0, 1, 1)
    # the counters stay out of equality
    assert fails == ExtensionReport(1, False, fails.counterexample, 142, 0)


def test_first_set_gemms_run_over_its_color1_witnesses(monkeypatch):
    # in a cell with no empty set each GEMM contracts over exactly the first
    # set's color-1 witnesses, one GEMM per first set in scan order even
    # where a block holds several; elsewhere over every witness (97 here)
    operands = []
    served = randomlab._served

    def spy(lhs, rhs):
        operands.append((lhs, rhs))
        return served(lhs, rhs)

    monkeypatch.setattr(randomlab, "_served", spy)
    g = shifted_cubic_graph(97)
    check_theta(g, 1, budget=10**7)
    own = [(lhs, rhs) for lhs, rhs in operands if lhs.shape[0] < 97]
    assert len(own) == 2 * 97
    # elsewhere: the 7 cells with an empty set on each side, one GEMM each
    others = [(lhs, rhs) for lhs, rhs in operands if lhs.shape[0] >= 97]
    assert len(others) == 14 and all(len(lhs) == len(rhs) == 97 for lhs, rhs in others)
    rows = np.frombuffer(b"".join(g.colors), np.uint8).reshape(g.m, g.n)
    scan = [(x1, rows) for x1 in range(97)] + [(x1, rows.T) for x1 in range(97)]
    for (lhs, rhs), (x1, colors) in zip(own, scan):
        w = np.flatnonzero(colors[x1] == 1)
        # the color-2 planes of every second set and the color-3 planes of
        # every third set on x1's witnesses, and no other (no padding) row
        assert np.array_equal(lhs, (colors[:, w] == 2).T)
        assert np.array_equal(rhs, (colors[:, w] == 3).T)


def test_random_graph_matches_edge_color():
    for seed in (0, 7, 2**63 + 5, -3, 2**64 - 1, -2**70):
        for m, n in ((0, 5), (5, 0), (1, 1), (3, 4), (17, 40), (128, 128)):
            g = random_graph(m, n, seed)
            assert (g.m, g.n) == (m, n)
            assert tuple(map(tuple, g.colors)) == tuple(
                tuple(edge_color(seed, i, j) for j in range(n)) for i in range(m)
            )


def test_random_graph_cell_cap():
    cap = randomlab.RANDOM_GRAPH_CELL_CAP
    for m, n in ((200_000, 200_000), (cap + 1, 1), (cap + 1, 0), (0, cap + 1)):
        with pytest.raises(ValueError, match="cap"):
            random_graph(m, n, 1)
    with pytest.raises(ValueError, match="nonnegative"):
        random_graph(-1, 10**12, 1)  # a negative side is reported as before
    randomlab._check_cells([(2048, 2048)])  # the cap itself is allowed
    with pytest.raises(ValueError, match="cap"):
        chain(1, 100_000_000)
    # the chain's last step, 1200 x 1200, is within the cap; its sum is not
    with pytest.raises(ValueError, match="cap"):
        chain(1, 2400)
    with pytest.raises(ValueError, match="cap"):
        estimate_failure_prob(10**9, 1, 1, seed=1)


def test_extension_checks_refuse_graphs_past_the_cell_cap(monkeypatch):
    # an empty side counts as one cell a vertex of the other side, so this
    # graph is past the cap and refused before planes sized by its n are built
    g = ColoredBipartiteGraph(0, randomlab.RANDOM_GRAPH_CELL_CAP + 1, ())
    for call in (lambda: check_theta(g, 1, budget=10**30), lambda: check_theta_sampled(g, 1, 10, 1)):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="cap"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
    monkeypatch.setattr(randomlab, "RANDOM_GRAPH_CELL_CAP", 12)
    sized = lambda m, n: new_graph(m, n, [[1 + (i + j) % 3 for j in range(n)] for i in range(m)])
    for g in (sized(0, 12), sized(12, 0), sized(3, 4)):  # the cap itself is accepted
        assert check_theta(g, 1) == _reference_check_theta(g, 1)
        assert check_theta_sampled(g, 1, 10, 1) == _reference_sampled(g, 1, 10, 1)
    for g in (sized(0, 13), sized(13, 1), sized(3, 5)):
        for call in (lambda: check_theta(g, 1), lambda: check_theta_sampled(g, 1, 10, 1)):
            with pytest.raises(ValueError, match="cap"):
                call()


def test_order_beyond_side_sizes_changes_only_k():
    # no set outgrows its side, so k = 10**9 scans and draws exactly what
    # k = max(m, n) does, without enumerating size triples up to k
    for g in (random_graph(3, 4, 1), random_graph(0, 2, 1), constant_graph(2, 2, 1)):
        big, small = check_theta(g, 10**9), check_theta(g, max(g.m, g.n, 1))
        assert (big.holds, big.counterexample, big.checked_left, big.checked_right) == (
            small.holds, small.counterexample, small.checked_left, small.checked_right,
        )
        sampled = check_theta_sampled(g, 10**9, 200, 3)
        assert sampled.violations == check_theta_sampled(g, max(g.m, g.n, 1), 200, 3).violations


def test_order_screen_boundary():
    # (min(k, side) + 1)^3 set-size cells on the larger side: at the cap the
    # cells are enumerated as before, one past it the order is refused
    cap = randomlab.SIZE_CELL_CAP
    top = round(cap ** (1 / 3)) - 1
    assert (top + 1) ** 3 <= cap < (top + 2) ** 3
    g = random_graph(top + 1, top, 1)
    with pytest.raises(ThetaBudgetError):
        check_theta(g, top)
    assert check_theta_sampled(g, top, 5, 1).trials == 5
    assert estimate_failure_prob(2 * top + 1, top, 1, 1).mode == "sampled"
    # a side of `top` vertices stays at the cap whatever k is
    thin = random_graph(top, 2, 1)
    assert check_theta_sampled(thin, 10**9, 5, 1).trials == 5
    for call in (
        lambda: check_theta(g, top + 1),
        lambda: check_theta_sampled(g, top + 1, 5, 1),
        lambda: estimate_failure_prob(2 * top + 1, top + 1, 1, 1),
    ):
        with pytest.raises(ValueError, match="set-size cells, above the cap"):
            call()


def test_order_below_one_refused_before_any_graph(monkeypatch):
    # the same screen refuses k < 1 in all three entry points, and
    # estimate_failure_prob no longer builds a graph first
    monkeypatch.setattr(randomlab, "random_graph", lambda *args: pytest.fail("graph built"))
    g = constant_graph(2, 2, 1)
    for call in (
        lambda: check_theta(g, 0),
        lambda: check_theta_sampled(g, -1, 0, 1),
        lambda: estimate_failure_prob(4096, 0, 1, 1),
    ):
        with pytest.raises(ValueError, match="^extension order k must be at least 1$"):
            call()


def test_oversized_order_refused_at_once():
    # before the screen these enumerated 151^3 (or 1001^3) size cells first
    g = random_graph(150, 150, 1)
    start = time.perf_counter()
    for call in (
        lambda: check_theta(g, 150),
        lambda: check_theta_sampled(g, 150, 10, 1),
        lambda: estimate_failure_prob(2000, 1000, 1, 1),
    ):
        with pytest.raises(ValueError, match="cap"):
            call()
    assert time.perf_counter() - start < 1.0


def test_sampled_matches_reference_larger_graphs():
    for g, k, seed in (
        (random_graph(40, 40, 3), 1, 3),
        (random_graph(13, 13, 55), 2, 8),
        (random_graph(9, 130, 4), 3, 1),
        (shifted_cubic_graph(97), 1, 5),
    ):
        assert check_theta_sampled(g, k, 1000, seed) == _reference_sampled(g, k, 1000, seed)


def test_sfsp_bound_values():
    assert sfsp_bound(1, 8).value == pytest.approx(2 * 4 * 3 * 2 * 26 / 27)
    assert sfsp_bound(1, 8).clamped == 1.0
    assert sfsp_bound(1, 9).value == pytest.approx(2 * 5 * 4 * 3 * 26 / 27)
    vacuous = sfsp_bound(1, 4)
    assert math.isinf(vacuous.value) and vacuous.clamped == 1.0
    assert math.isinf(sfsp_bound(2, 10).value)  # even case needs m >= 3k
    odd_edge = sfsp_bound(2, 11)  # odd case borrows one vertex: finite, > 1
    assert math.isfinite(odd_edge.value) and odd_edge.clamped == 1.0
    # beyond the float range the bound is redone in logs, where q^(m-3k)
    # can win over binomials too large for a float
    for k, n in ((7, 2 * 10**45), (1, 10**103), (1, 10**400), (300, 10**700)):
        tiny = sfsp_bound(k, n)
        assert tiny.value == tiny.clamped == 0.0
    # k >= 400 with q^(m-3k) near 1 is past the float range; this is decided
    # without forming the k-fold binomials, which take minutes at k = 10**6
    for k, n in ((400, 2400), (10**6, 10**8), (10**30, 10**400), (10**400, 10**401)):
        assert math.isinf(sfsp_bound(k, n).value)
    with pytest.raises(ValueError):
        sfsp_bound(0, 8)


def test_sfsp_bound_zero_screen_matches_full_evaluation(monkeypatch):
    # Find, per k, the side size where sfsp_bound starts answering 0.0
    # without forming the binomials; around it the answer must equal the
    # full evaluation's, which runs with the screen switched off.
    calls = []
    real_comb = math.comb
    monkeypatch.setattr(math, "comb", lambda a, b: calls.append(a) or real_comb(a, b))

    def screened(k, n):
        calls.clear()
        sfsp_bound(k, n)
        return not calls

    for k in (1, 2, 5, 7, 12, 30):  # the bisection gets slow past k = 30
        lo = hi = 3 * k
        while not screened(k, 2 * hi):
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if screened(k, 2 * mid) else (mid, hi)
        ns = [2 * hi + d for d in range(-8, 9)]
        ns += [2 * hi * num // 1000 for num in (900, 990, 999, 1001, 1010, 1100)]
        with_screen = [sfsp_bound(k, n) for n in ns]
        assert screened(k, 2 * hi) and not screened(k, 2 * hi - 2)
        monkeypatch.setattr(randomlab, "_LOG_ZERO", -math.inf)
        assert [sfsp_bound(k, n) for n in ns] == with_screen
        monkeypatch.setattr(randomlab, "_LOG_ZERO", math.log(math.ulp(0.0)) - 1.0)


@given(st.integers(1, 3), st.integers(0, 60))
def test_sfsp_bound_nonnegative(k, n):
    bound = sfsp_bound(k, n)
    assert bound.value >= 0
    assert 0 <= bound.clamped <= 1
    assert bound.clamped == min(1.0, bound.value)


def test_bound_ratio_limits():
    r1 = bound_ratio_check(1, 10_000)
    assert r1.limit == pytest.approx(26 / 27)
    assert abs(r1.ratios[-1] - 26 / 27) < 1e-3
    r2 = bound_ratio_check(2, 10_000)
    assert r2.limit == pytest.approx(728 / 729)
    assert abs(r2.ratios[-1] - 728 / 729) < 1e-3
    with pytest.raises(ValueError):
        bound_ratio_check(1, 3)


def test_bound_ratio_monotone_descent():
    report = bound_ratio_check(1, 200)
    # ratios decrease toward the limit from above once past the first terms
    tail = report.ratios[5:]
    assert all(a >= b for a, b in zip(tail, tail[1:]))
    assert all(r > report.limit for r in tail)


def test_estimate_failure_prob_small_n():
    est = estimate_failure_prob(4, 1, 1000, seed=0)
    assert est.failure_rate == 1.0
    assert est.half_width == 0.0
    assert est.mode == "exact"
    # rows of two entries cannot witness three colors, so failure is forced
    assert est.failures == 1000


def test_estimate_failure_prob_deterministic():
    a = estimate_failure_prob(10, 1, 50, seed=7)
    b = estimate_failure_prob(10, 1, 50, seed=7)
    assert a == b
    assert a.trials == 50


def test_estimate_failure_prob_sampled_mode():
    est = estimate_failure_prob(120, 2, 3, seed=1)
    assert est.mode == "sampled"
    assert est.failure_rate == 1.0


def test_chain_extension_statistical():
    # once the order-1 property holds along a chain it keeps holding in all
    # later tested prefixes; at desk sizes the antecedent never fires, which
    # itself is asserted (these sizes are far below the coverage threshold)
    held = [check_theta(g, 1).holds for g in chain(11, 20)]
    first_true = held.index(True) if True in held else len(held)
    assert all(held[first_true:])
    assert first_true == len(held)
