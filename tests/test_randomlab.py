import itertools
import math
from collections import Counter

import pytest
from hypothesis import given
import hypothesis.strategies as st

from switchlab.graphs import Side, constant_graph, induced_subgraph, new_graph
from switchlab.randomlab import (
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

from conftest import graphs


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


def _shifted_cubic_graph(q: int):
    """K_{q,q} colored by the cubic-residue class of i+j mod q; for q = 97
    every ordered triple pattern is realized on both sides."""
    cubes = {pow(x, 3, q) for x in range(1, q)}
    seed_noncube = next(x for x in range(2, q) if x not in cubes)
    label = {0: 1}
    for a in cubes:
        label[a] = 1
        label[seed_noncube * a % q] = 2
        label[seed_noncube * seed_noncube % q * a % q] = 3
    return new_graph(q, q, [[label[(i + j) % q] for j in range(q)] for i in range(q)])


def test_exact_checker_accepts_structured_graph():
    g = _shifted_cubic_graph(97)
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
