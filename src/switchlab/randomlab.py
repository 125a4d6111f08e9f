"""Seeded random graphs, extension-property checking, and failure bounds.

Randomness is counter-based: the color of edge (i, j) under a seed is a pure
function of the triple (seed, i, j) through the SplitMix64 finalizer, so a
graph never changes when it is extended and chains grow stably.  The mod-3
reduction bias is on the order of 2^-64.

The extension property of order k asks, for every three pairwise disjoint
vertex sets of size at most k on one side, for a single vertex on the other
side joined to the first set by color 1, the second by color 2 and the third
by color 3, and symmetrically for the other side.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from .graphs import ColoredBipartiteGraph, Side, new_graph

__all__ = [
    "DEFAULT_THETA_BUDGET",
    "ThetaBudgetError",
    "ThetaCounterexample",
    "ExtensionReport",
    "SampledCheck",
    "BoundEval",
    "BoundRatioReport",
    "FailureEstimate",
    "edge_color",
    "random_graph",
    "chain",
    "check_theta",
    "verify_counterexample",
    "check_theta_sampled",
    "sfsp_bound",
    "bound_ratio_check",
    "estimate_failure_prob",
]

_MASK = (1 << 64) - 1
_MULT_I = 0xA24BAED4963EE407
_MULT_J = 0x9FB21C651E98DF25

#: Cap on the number of set triples enumerated per side in exact mode.
DEFAULT_THETA_BUDGET = 200_000


class ThetaBudgetError(Exception):
    """Exact enumeration would exceed the configured budget; sample instead."""


def _mix(x: int) -> int:
    """SplitMix64 finalizer."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def edge_color(seed: int, i: int, j: int) -> int:
    """Color of edge (i, j): uniform on {1, 2, 3}, independent across edges."""
    h = _mix(_mix((seed & _MASK) ^ (i * _MULT_I & _MASK)) ^ (j * _MULT_J & _MASK))
    return 1 + h % 3


def random_graph(m: int, n: int, seed: int) -> ColoredBipartiteGraph:
    rows = [[edge_color(seed, i, j) for j in range(n)] for i in range(m)]
    return new_graph(m, n, rows)


def _side_sizes(total: int) -> tuple[int, int]:
    """Side-balanced split: odd totals put the extra vertex on the left."""
    return (total + 1) // 2, total // 2


def chain(seed: int, count: int) -> list[ColoredBipartiteGraph]:
    """Increasing chain of induced subgraphs, one vertex added per step.

    Step i has i vertices total; odd steps add a left vertex, even steps a
    right vertex.  Prefixes are stable when ``count`` grows.
    """
    if count < 1:
        raise ValueError("chain length must be at least 1")
    return [random_graph(*_side_sizes(i), seed) for i in range(1, count + 1)]


@dataclass(frozen=True)
class ThetaCounterexample:
    """Three disjoint sets on ``side`` with no witness on the other side."""

    side: Side
    sets: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class ExtensionReport:
    k: int
    holds: bool
    counterexample: ThetaCounterexample | None
    checked_left: int
    checked_right: int


def _config_count(size: int, k: int) -> int:
    total = 0
    for s1, s2, s3 in itertools.product(range(k + 1), repeat=3):
        if s1 + s2 + s3 > size:
            continue
        total += (
            math.comb(size, s1)
            * math.comb(size - s1, s2)
            * math.comb(size - s1 - s2, s3)
        )
    return total


def _witness_masks(g: ColoredBipartiteGraph, side: Side):
    """Per set-side vertex x and color c, the bitmask of witnesses w on the
    other side with edge color c toward x."""
    if side is Side.LEFT:
        size, witnesses = g.m, g.n
        color = lambda x, w: g.colors[x][w]
    else:
        size, witnesses = g.n, g.m
        color = lambda x, w: g.colors[w][x]
    masks = [[0] * size for _ in range(4)]
    for x in range(size):
        for w in range(witnesses):
            masks[color(x, w)][x] |= 1 << w
    return size, witnesses, masks


def _size_triples(k: int):
    triples = list(itertools.product(range(k + 1), repeat=3))
    triples.sort(key=lambda t: (sum(t), t))
    return triples


def _pack_masks(masks, size: int, witnesses: int) -> np.ndarray:
    words = max(1, (witnesses + 63) // 64)
    packed = np.zeros((3, size, words), dtype=np.uint64)
    for c in (1, 2, 3):
        for x in range(size):
            v = masks[c][x]
            for w in range(words):
                packed[c - 1, x, w] = (v >> (64 * w)) & _MASK
    return packed


def _check_side(g: ColoredBipartiteGraph, side: Side, k: int):
    """First failing configuration on ``side`` in deterministic order
    (total size, then sizes, then lexicographic sets), plus the count of
    configurations evaluated."""
    size, witnesses, masks = _witness_masks(g, side)
    full = (1 << witnesses) - 1
    checked = 0
    packed = _pack_masks(masks, size, witnesses) if k == 1 and size >= 3 else None
    for s1, s2, s3 in _size_triples(k):
        if s1 + s2 + s3 > size:
            continue
        if (s1, s2, s3) == (1, 1, 1) and packed is not None:
            result = _scan_unit_triples(packed, size, checked)
            checked = result[1]
            if result[0] is not None:
                return ThetaCounterexample(side, result[0]), checked
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


def _scan_unit_triples(packed: np.ndarray, size: int, checked: int):
    """Vectorized scan of all ordered triples of distinct singletons."""
    ok1, ok2, ok3 = packed[0], packed[1], packed[2]
    per_pair = size - 2
    for x1 in range(size):
        for x2 in range(size):
            if x2 == x1:
                continue
            joint = ok1[x1] & ok2[x2]
            some = np.bitwise_and(ok3, joint[None, :]).any(axis=1)
            some[x1] = True
            some[x2] = True
            if not some.all():
                x3 = int(np.flatnonzero(~some)[0])
                rank = x3 - (x1 < x3) - (x2 < x3)
                checked += rank + 1
                return ((x1,), (x2,), (x3,)), checked
            checked += per_pair
    return None, checked


def check_theta(
    g: ColoredBipartiteGraph, k: int, budget: int = DEFAULT_THETA_BUDGET
) -> ExtensionReport:
    """Exact extension-property check; the left side's sets are scanned first,
    so counterexamples are deterministic."""
    if k < 1:
        raise ValueError("extension order k must be at least 1")
    for size in (g.m, g.n):
        count = _config_count(size, k)
        if count > budget:
            raise ThetaBudgetError(
                f"{count} set triples exceed budget {budget}; use sampled mode"
            )
    cex, checked_left = _check_side(g, Side.LEFT, k)
    if cex is not None:
        return ExtensionReport(k, False, cex, checked_left, 0)
    cex, checked_right = _check_side(g, Side.RIGHT, k)
    return ExtensionReport(k, cex is None, cex, checked_left, checked_right)


def verify_counterexample(g: ColoredBipartiteGraph, k: int, cex: ThetaCounterexample) -> bool:
    """Direct scan confirming that no witness serves the reported sets."""
    x1, x2, x3 = cex.sets
    sets = (set(x1), set(x2), set(x3))
    if any(len(s) > k for s in sets):
        return False
    if sets[0] & sets[1] or sets[0] & sets[2] or sets[1] & sets[2]:
        return False
    size = g.side_size(cex.side)
    if any(v >= size for s in sets for v in s):
        return False
    witnesses = g.side_size(cex.side.other())
    for w in range(witnesses):
        ok = True
        for c, member_set in zip((1, 2, 3), sets):
            for x in member_set:
                color = g.colors[x][w] if cex.side is Side.LEFT else g.colors[w][x]
                if color != c:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return False
    return True


@dataclass(frozen=True)
class SampledCheck:
    k: int
    trials: int
    violations: int

    @property
    def violation_rate(self) -> float:
        return self.violations / self.trials


def check_theta_sampled(g: ColoredBipartiteGraph, k: int, trials: int, seed: int) -> SampledCheck:
    """Monte Carlo surrogate: configurations drawn uniformly from the same
    space the exact check enumerates (both sides, sizes up to k)."""
    if k < 1:
        raise ValueError("extension order k must be at least 1")
    if trials < 1:
        raise ValueError("need at least one trial")
    cells = []
    mask_cache = {}
    for side in (Side.LEFT, Side.RIGHT):
        size = g.side_size(side)
        mask_cache[side] = _witness_masks(g, side)
        for s1, s2, s3 in _size_triples(k):
            if s1 + s2 + s3 > size:
                continue
            count = (
                math.comb(size, s1)
                * math.comb(size - s1, s2)
                * math.comb(size - s1 - s2, s3)
            )
            if count:
                cells.append((side, (s1, s2, s3), count))
    total = sum(c for _, _, c in cells)
    if total == 0:
        raise ValueError("no configurations exist for this graph")
    rng = random.Random(seed)
    violations = 0
    for _ in range(trials):
        r = rng.randrange(total)
        for side, sizes, count in cells:
            if r < count:
                break
            r -= count
        size, _, masks = mask_cache[side]
        pool = list(range(size))
        chosen = []
        for s in sizes:
            picked = sorted(rng.sample(pool, s))
            chosen.append(picked)
            pool = [v for v in pool if v not in picked]
        joint = (1 << g.side_size(side.other())) - 1
        for c, picked in zip((1, 2, 3), chosen):
            for x in picked:
                joint &= masks[c][x]
        if joint == 0:
            violations += 1
    return SampledCheck(k, trials, violations)


@dataclass(frozen=True)
class BoundEval:
    """Evaluated failure-probability bound; ``value`` may exceed 1 and is
    +inf when the formula's binomials leave their range (total size below
    6k) or the bound exceeds the float range, in which case only the clamped
    trivial bound 1 remains."""

    k: int
    n: int
    value: float
    clamped: float


def sfsp_bound(k: int, n: int) -> BoundEval:
    """Bound on the probability that a side-balanced random graph with n
    vertices fails the order-k extension property.

    For n = 2m the bound is ``2 C(m,k) C(m-k,k) C(m-2k,k) q^(m-3k)`` with
    q = 1 - (1/3)^(3k); for n = 2m+1 the binomials use m+1 instead of m.
    """
    if k < 1:
        raise ValueError("extension order k must be at least 1")
    if n < 0:
        raise ValueError("graph size must be nonnegative")
    q = 1.0 - (1.0 / 3.0) ** (3 * k)
    m = n // 2
    top = m if n % 2 == 0 else m + 1
    if top < 3 * k:
        return BoundEval(k, n, math.inf, 1.0)
    binomials = (math.comb(top, k), math.comb(top - k, k), math.comb(top - 2 * k, k))
    try:
        value = 2.0 * binomials[0] * binomials[1] * binomials[2] * q ** (m - 3 * k)
    except OverflowError:  # a binomial beyond the float range
        value = math.inf
    if not math.isfinite(value):
        # The float product left its range; redo it in logs, where the
        # binomials stay exact integers and q^(m-3k) cannot underflow.
        log_q = math.log1p(-((1.0 / 3.0) ** (3 * k)))
        log_value = math.log(2.0) + sum(map(math.log, binomials)) + (m - 3 * k) * log_q
        try:
            value = math.exp(log_value)
        except OverflowError:
            value = math.inf
    return BoundEval(k, n, value, min(1.0, value))


@dataclass(frozen=True)
class BoundRatioReport:
    k: int
    m_max: int
    limit: float
    ratios: tuple[float, ...]


def bound_ratio_check(k: int, m_max: int) -> BoundRatioReport:
    """Consecutive ratios of the even/odd bound envelope
    C_m = C(m+1,k) C(m+1-k,k) C(m+1-2k,k) q^(m-3k), for m = 3k .. m_max-1.

    The ratios approach q = 1 - (1/3)^(3k) < 1, which is what makes the
    bound series summable.  Binomial quotients are taken exactly, so no
    overflow or underflow occurs at large m.
    """
    if k < 1:
        raise ValueError("extension order k must be at least 1")
    if m_max <= 3 * k:
        raise ValueError("m_max must exceed 3k")
    q = 1.0 - (1.0 / 3.0) ** (3 * k)
    ratios = []
    for m in range(3 * k, m_max):
        num = (
            math.comb(m + 2, k)
            * math.comb(m + 2 - k, k)
            * math.comb(m + 2 - 2 * k, k)
        )
        den = (
            math.comb(m + 1, k)
            * math.comb(m + 1 - k, k)
            * math.comb(m + 1 - 2 * k, k)
        )
        ratios.append(q * num / den)
    return BoundRatioReport(k, m_max, q, tuple(ratios))


@dataclass(frozen=True)
class FailureEstimate:
    n: int
    k: int
    trials: int
    failures: int
    failure_rate: float
    half_width: float
    mode: str


def estimate_failure_prob(
    n: int,
    k: int,
    graph_trials: int,
    seed: int,
    theta_budget: int = DEFAULT_THETA_BUDGET,
    sampled_trials: int = 1000,
) -> FailureEstimate:
    """Fraction of independently drawn side-balanced graphs of total size n
    failing the order-k extension property, with a 95% binomial half-width.

    Each trial derives its own counter-based seed, so aggregates do not
    depend on evaluation order.  When exact checking would blow the budget,
    trials fall back to sampled checking and the result is flagged
    ``"sampled"``.
    """
    if graph_trials < 1:
        raise ValueError("need at least one trial")
    m_left, m_right = _side_sizes(n)
    exact = all(
        _config_count(size, k) <= theta_budget for size in (m_left, m_right)
    )
    failures = 0
    for t in range(graph_trials):
        trial_seed = _mix((seed & _MASK) ^ _mix(t + 1))
        g = random_graph(m_left, m_right, trial_seed)
        if exact:
            failed = not check_theta(g, k, theta_budget).holds
        else:
            sampled = check_theta_sampled(g, k, sampled_trials, _mix(trial_seed))
            failed = sampled.violations > 0
        failures += failed
    rate = failures / graph_trials
    half_width = 1.96 * math.sqrt(rate * (1.0 - rate) / graph_trials)
    return FailureEstimate(
        n, k, graph_trials, failures, rate, half_width, "exact" if exact else "sampled"
    )
