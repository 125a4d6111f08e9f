import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from switchlab import randomlab
from switchlab.graphs import Side, constant_graph, induced_subgraph, new_graph
from switchlab.randomlab import (
    ExtensionReport,
    SampledCheck,
    ThetaBudgetError,
    ThetaCounterexample,
    bound_ratio_check,
    chain,
    check_theta,
    check_theta_sampled,
    edge_color,
    estimate_failure_prob,
    random_graph,
    sfsp_bound,
    verify_counterexample,
)

from conftest import graphs, shifted_cubic_graph


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
        assert induced_subgraph(big, range(small.m), range(small.n)) == small
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


def test_witness_bits_match_reference_masks():
    for m, n, seed in ((0, 3, 1), (3, 0, 1), (5, 64, 2), (70, 130, 3)):
        g = random_graph(m, n, seed)
        for side in (Side.LEFT, Side.RIGHT):
            bits = randomlab._witness_bits(g, side)
            masks = _reference_masks(g, side)
            size, witnesses = g.side_size(side), g.side_size(side.other())
            assert bits.shape == (3, size + 1, max(1, -(-witnesses // 64)))
            as_int = lambda row: int.from_bytes(row.tobytes(), "little")
            for c in (1, 2, 3):
                assert [as_int(bits[c - 1, x]) for x in range(size)] == masks[c]
                assert as_int(bits[c - 1, size]) == (1 << witnesses) - 1  # sentinel


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


@given(graphs(max_m=6, max_n=6), st.integers(1, 3), st.integers(0, 2**32))
def test_sampled_matches_reference(g, k, seed):
    assert check_theta_sampled(g, k, 60, seed) == _reference_sampled(g, k, 60, seed)


def test_sampled_matches_reference_across_blocks(monkeypatch):
    # a tiny block size splits the trials into many ragged blocks
    monkeypatch.setattr(randomlab, "_SAMPLED_BLOCK_WORDS", 20)
    for g, k in ((random_graph(9, 70, 1), 2), (random_graph(12, 12, 6), 1), (random_graph(0, 5, 2), 3)):
        for seed in (0, 11):
            assert check_theta_sampled(g, k, 301, seed) == _reference_sampled(g, k, 301, seed)


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
    for k, n in ((7, 2 * 10**45), (1, 10**103)):
        tiny = sfsp_bound(k, n)
        assert tiny.value == tiny.clamped == 0.0
    with pytest.raises(ValueError):
        sfsp_bound(0, 8)


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
    est = estimate_failure_prob(120, 2, 3, seed=1, sampled_trials=50)
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
