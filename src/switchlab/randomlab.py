"""Seeded random graphs, extension-property checking, and failure bounds.

Randomness is counter-based: the color of edge (i, j) under a seed is a pure
function of the triple (seed, i, j) through the SplitMix64 finalizer, so a
graph never changes when it is extended and chains grow stably.  The mod-3
reduction bias is on the order of 2^-64.

The extension property of order k asks, for every three pairwise disjoint
vertex sets of size at most k on one side, for a single vertex on the other
side joined to the first set by color 1, the second by color 2 and the third
by color 3, and symmetrically for the other side.  Both checks read one
array of packed witness masks per side: the exact check scans every
configuration in a fixed order, one array operation per first set, and the
sampled check ANDs the masks of blocks of drawn ones.
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

#: Cap on the cells of the random graphs one call builds (an empty side
#: counts as one, so its rows or columns count too).
RANDOM_GRAPH_CELL_CAP = 1 << 22

#: Words of a temporary the extension checks build at once (512 KiB; an
#: 8 MiB block was no faster and raised peak memory by 15 MiB).
_BLOCK_WORDS = 1 << 16


class ThetaBudgetError(Exception):
    """Exact enumeration would exceed the configured budget; sample instead."""


def _mix(x):
    """SplitMix64 finalizer, on a Python int or elementwise on a uint64 array
    (where the masks are no-ops and the arithmetic wraps)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def edge_color(seed: int, i: int, j: int) -> int:
    """Color of edge (i, j): uniform on {1, 2, 3}, independent across edges."""
    h = _mix(_mix((seed & _MASK) ^ (i * _MULT_I & _MASK)) ^ (j * _MULT_J & _MASK))
    return 1 + h % 3


def _check_cells(sizes) -> None:
    """Refuse graphs with negative sides, or more cells in total than
    ``RANDOM_GRAPH_CELL_CAP``, before anything is allocated."""
    cells = 0
    for m, n in sizes:
        if m < 0 or n < 0:
            raise ValueError("side cardinalities must be nonnegative")
        cells += max(m, 1) * max(n, 1)
        if cells > RANDOM_GRAPH_CELL_CAP:
            raise ValueError(
                f"random graphs of more than {RANDOM_GRAPH_CELL_CAP} cells exceed the cap"
            )


def random_graph(m: int, n: int, seed: int) -> ColoredBipartiteGraph:
    """The graph whose edge (i, j) has color ``edge_color(seed, i, j)``,
    computed for all edges in one uint64 pass."""
    _check_cells([(m, n)])
    with np.errstate(over="ignore"):
        rows = np.arange(m, dtype=np.uint64) * np.uint64(_MULT_I)
        cols = np.arange(n, dtype=np.uint64) * np.uint64(_MULT_J)
        h = _mix(_mix(np.uint64(seed & _MASK) ^ rows)[:, None] ^ cols)
    return new_graph(m, n, (h % 3 + 1).tolist())


def _side_sizes(total: int) -> tuple[int, int]:
    """Side-balanced split: odd totals put the extra vertex on the left."""
    return (total + 1) // 2, total // 2


def chain(seed: int, count: int) -> list[ColoredBipartiteGraph]:
    """Increasing chain of induced subgraphs, one vertex added per step.

    Step i has i vertices total; odd steps add a left vertex, even steps a
    right vertex.  Prefixes are stable when ``count`` grows.  The cell cap
    counts the whole chain; the sum stops at the first step past the cap.
    """
    if count < 1:
        raise ValueError("chain length must be at least 1")
    _check_cells(_side_sizes(i) for i in range(1, count + 1))
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


def _size_triples(k: int):
    return sorted(itertools.product(range(k + 1), repeat=3), key=lambda t: (sum(t), t))


def _cell_count(size: int, sizes) -> int:
    """Ordered triples of pairwise disjoint sets with the given sizes."""
    s1, s2, s3 = sizes
    if s1 + s2 + s3 > size:
        return 0
    return math.comb(size, s1) * math.comb(size - s1, s2) * math.comb(size - s1 - s2, s3)


def _config_count(size: int, k: int) -> int:
    return sum(_cell_count(size, sizes) for sizes in _size_triples(min(k, size)))


def _color_array(g: ColoredBipartiteGraph) -> np.ndarray:
    """The colors as an (m, n) uint8 array; its transpose serves the right side."""
    return np.array(g.colors, dtype=np.uint8).reshape(g.m, g.n)


def _witness_bits(colors: np.ndarray) -> np.ndarray:
    """Witness masks for sets of rows of ``colors`` (one row per set-side
    vertex, one column per witness), packed into uint64 words of shape
    (3, size + 1, words): bit w of row [c - 1, x] is set when the edge between
    x and witness w has color c.  Row ``size`` is a sentinel that every
    witness serves in every color; padding bits are clear."""
    size, witnesses = colors.shape
    words = max(1, -(-witnesses // 64))
    padded = np.zeros((size + 1, 64 * words), dtype=np.uint8)
    padded[:size, :witnesses] = colors
    planes = padded == np.arange(1, 4, dtype=np.uint8)[:, None, None]
    planes[:, size, :witnesses] = True
    return np.packbits(planes, axis=2, bitorder="little").view(np.uint64)


def _meets(masks: np.ndarray, others: np.ndarray) -> np.ndarray:
    """(len(masks), len(others)) bools: whether the two masks share a witness."""
    return (masks[:, None] & others[None]).any(axis=2)


def _check_side(colors: np.ndarray, side: Side, k: int):
    """First failing configuration on ``side`` (whose vertices are the rows
    of ``colors``) in deterministic order (total size, then sizes, then
    lexicographic sets), plus the count of configurations evaluated.

    A set's mask is the AND of its members' masks in its color.  A third set
    meeting x1 or x2 is never served, since no edge has two colors, so every
    third set disjoint from x1 and x2 is served exactly when the served
    count reaches C(size - s1 - s2, s3).  One array operation serves every
    (x2, x3) pair of a block of first sets.  Blocks start at one first set
    and double, so an early failure costs little and a full scan few
    operations.  A block's AND spans at most ``_BLOCK_WORDS`` words (or one
    mask, if that is wider), which splits the second sets, and the third
    when one row alone is too wide, once a single first set outgrows it."""
    bits = _witness_bits(colors)
    size, words = bits.shape[1] - 1, bits.shape[2]
    sets, ands, members = [], [], []
    for s in range(min(k, size) + 1):
        # the sentinel member makes the empty set's AND every witness
        with_sentinel = np.array(
            [x + (size,) for x in itertools.combinations(range(size), s)], dtype=np.intp
        )
        combos = with_sentinel[:, :s]
        member = np.zeros((len(combos), size), dtype=bool)
        member[np.arange(len(combos))[:, None], combos] = True
        sets.append(combos)
        ands.append(np.bitwise_and.reduce(bits[:, with_sentinel], axis=2))
        members.append(member)
    checked = 0
    for s1, s2, s3 in _size_triples(min(k, size)):
        if s1 + s2 + s3 > size:
            continue
        free = math.comb(size - s1 - s2, s3)
        ok3 = ands[s3][2]
        n1, n2, n3 = len(sets[s1]), len(sets[s2]), len(ok3)
        # (x1, x2) rows per block; a row holds n3 masks and s1 clash bools
        pairs = max(1, _BLOCK_WORDS // (n3 * words + s1))
        step2, most1 = min(n2, pairs), max(1, pairs // n2)
        cols = max(1, _BLOCK_WORDS // (pairs * words))
        lo1, width = 0, 1
        while lo1 < n1:
            block1 = slice(lo1, lo1 + width)
            for lo2 in range(0, n2, step2):
                block2 = slice(lo2, lo2 + step2)
                m12 = (ands[s1][0][block1, None] & ands[s2][1][None, block2]).reshape(-1, words)
                served = np.concatenate(
                    [_meets(m12, ok3[c:c + cols]) for c in range(0, n3, cols)], axis=1
                )
                clash = members[s2][block2][:, sets[s1][block1]].any(axis=2)
                disjoint = ~clash.T.reshape(-1)
                failing = disjoint & (np.count_nonzero(served, axis=1) != free)
                if not failing.any():
                    checked += free * int(np.count_nonzero(disjoint))
                    continue
                j = int(failing.argmax())
                checked += free * int(np.count_nonzero(disjoint[:j]))
                i1, i2 = divmod(j, clash.shape[0])
                x1, x2 = sets[s1][lo1 + i1], sets[s2][lo2 + i2]
                clear = ~members[s3][:, np.r_[x1, x2]].any(axis=1)
                c = int((clear & ~served[j]).argmax())
                checked += int(np.count_nonzero(served[j, :c])) + 1
                found = tuple(tuple(x.tolist()) for x in (x1, x2, sets[s3][c]))
                return ThetaCounterexample(side, found), checked
            lo1 += width
            width = min(2 * width, most1)
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
    colors = _color_array(g)
    cex, checked_left = _check_side(colors, Side.LEFT, k)
    if cex is not None:
        return ExtensionReport(k, False, cex, checked_left, 0)
    cex, checked_right = _check_side(colors.T, Side.RIGHT, k)
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
    if any(not 0 <= v < size for s in sets for v in s):
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
    space the exact check enumerates (both sides, sizes up to k).

    Each drawn set is padded to a common width with the sentinel row of
    ``_witness_bits``; a block of draws is then one gather-and-AND per side."""
    if k < 1:
        raise ValueError("extension order k must be at least 1")
    if trials < 1:
        raise ValueError("need at least one trial")
    colors = _color_array(g)
    bits = {Side.LEFT: _witness_bits(colors), Side.RIGHT: _witness_bits(colors.T)}
    cells = []
    for side in bits:
        for sizes in _size_triples(min(k, g.side_size(side))):
            count = _cell_count(g.side_size(side), sizes)
            if count:
                cells.append((side, sizes, count))
    total = sum(count for _, _, count in cells)
    # a set has at most min(k, side size) members; bound the words per block
    width = max(1, min(k, max(g.m, g.n)))
    block = max(1, _BLOCK_WORDS // (3 * width * max(b.shape[2] for b in bits.values())))
    rng = random.Random(seed)
    violations = 0
    for start in range(0, trials, block):
        picks = {side: [] for side in bits}
        for _ in range(min(block, trials - start)):
            r = rng.randrange(total)
            for side, sizes, count in cells:
                if r < count:
                    break
                r -= count
            size = g.side_size(side)
            pool = list(range(size))
            row = []
            for s in sizes:
                picked = rng.sample(pool, s)
                row += picked + [size] * (width - s)
                pool = [v for v in pool if v not in picked]
            picks[side].append(row)
        for side, rows in picks.items():
            if rows:
                members = np.array(rows, dtype=np.intp).reshape(len(rows), 3, width)
                gathered = bits[side][np.arange(3)[:, None], members]
                joint = np.bitwise_and.reduce(gathered, axis=(1, 2))
                violations += len(rows) - int(np.count_nonzero(joint.any(axis=1)))
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


#: exp(x) is 0.0 below log(ulp(0.0) / 2) = -745.13; one nat lower covers rounding
_LOG_ZERO = math.log(math.ulp(0.0)) - 1.0


def _exp(x: float) -> float:
    """exp, or +inf past the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


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
    m = n // 2
    top = m if n % 2 == 0 else m + 1
    if top < 3 * k:
        return BoundEval(k, n, math.inf, 1.0)
    # C(a, k) >= (a/k)^k, so the binomials exceed 6^k; for k >= 400 the bound
    # is past e^716 (so +inf) unless q^(m-3k) < 1/e, which needs
    # (m - 3k + 1) e >= 3^(3k).  Skip the k-fold big-int binomials then.
    if k >= 400 and (math.log(m - 3 * k + 1) + 1) / (3 * math.log(3.0)) < k:
        return BoundEval(k, n, math.inf, 1.0)
    log_q = math.log1p(-((1.0 / 3.0) ** (3 * k)))
    try:
        tail = (m - 3 * k) * log_q
    except OverflowError:  # m - 3k beyond the float range: the product in logs too
        log_rate = math.log(-log_q) if log_q else -3 * k * math.log(3.0)
        tail = -_exp(math.log(m - 3 * k) + log_rate)
    # C(a, k) <= top^k bounds the value by 2 top^(3k) q^(m-3k): when that is
    # below _LOG_ZERO both evaluations give 0.0, so skip the k-fold binomials.
    if math.log(2.0) + 3 * k * math.log(top) + tail < _LOG_ZERO:
        return BoundEval(k, n, 0.0, 0.0)
    q = 1.0 - (1.0 / 3.0) ** (3 * k)
    binomials = (math.comb(top, k), math.comb(top - k, k), math.comb(top - 2 * k, k))
    try:
        value = 2.0 * binomials[0] * binomials[1] * binomials[2] * q ** (m - 3 * k)
    except OverflowError:  # a binomial or m - 3k beyond the float range
        value = math.inf
    if not math.isfinite(value):
        # the float product left its range: redo it in logs
        value = _exp(math.log(2.0) + sum(map(math.log, binomials)) + tail)
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
    ratios = tuple(
        q * _cell_count(m + 2, (k, k, k)) / _cell_count(m + 1, (k, k, k))
        for m in range(3 * k, m_max)
    )
    return BoundRatioReport(k, m_max, q, ratios)


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
    _check_cells([(m_left, m_right)])
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
