"""Seeded random graphs, extension-property checking, and failure bounds.

Randomness is counter-based: the color of edge (i, j) under a seed is a pure
function of the triple (seed, i, j) through the SplitMix64 finalizer, so a
graph never changes when it is extended and chains grow stably.  The mod-3
reduction bias is on the order of 2^-64.

The extension property of order k asks, for every three pairwise disjoint
vertex sets of size at most k on one side, for a single vertex on the other
side joined to the first set by color 1, the second by color 2 and the third
by color 3, and symmetrically for the other side.  Both checks read one
array of 0/1 witness planes per side.  The exact check scans every
configuration in a fixed order, one block of first sets at a time: float32
GEMMs fill the block's served matrix (one per first set, over that set's
color-1 witnesses, where no set is empty) and one pass of bookkeeping
decides it.  The sampled check draws configurations as indices into the
vertices not yet taken, without building a pool, and takes the minimum of
the planes of blocks of drawn ones.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass, field

import numpy as np

from .graphs import ColoredBipartiteGraph, Side

__all__ = [
    "DEFAULT_THETA_BUDGET",
    "ThetaBudgetError",
    "ThetaCounterexample",
    "ExtensionReport",
    "SampledCheck",
    "BoundEval",
    "BoundRatioReport",
    "FailureEstimate",
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

#: Cap on the set-size cells (min(k, side) + 1)^3 of the larger side; a
#: larger order k is refused before any cell is enumerated.
SIZE_CELL_CAP = 1 << 15

#: 8-byte words of float32 entries in one GEMM product of the exact scan, or
#: one block of gathered planes of the sampled check (512 KiB).
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


def _check_order(k: int, size: int) -> None:
    """Refuse an order k below 1, or one whose set-size cells on a side of
    ``size`` vertices exceed ``SIZE_CELL_CAP``, before any graph is built or
    any cell is enumerated or counted."""
    if k < 1:
        raise ValueError("extension order k must be at least 1")
    cells = (min(k, size) + 1) ** 3
    if cells > SIZE_CELL_CAP:
        raise ValueError(
            f"order k={k} on a side of {size} vertices gives {cells} set-size cells, "
            f"above the cap {SIZE_CELL_CAP}"
        )


def random_graph(m: int, n: int, seed: int) -> ColoredBipartiteGraph:
    """The graph whose edge (i, j) has color 1 + h mod 3 with
    h = mix(mix(seed ^ i * _MULT_I) ^ j * _MULT_J) in 64-bit arithmetic:
    uniform on {1, 2, 3} and independent across edges, computed for all
    edges in one uint64 pass."""
    _check_cells([(m, n)])
    with np.errstate(over="ignore"):
        rows = np.arange(m, dtype=np.uint64) * np.uint64(_MULT_I)
        cols = np.arange(n, dtype=np.uint64) * np.uint64(_MULT_J)
        h = _mix(_mix(np.uint64(seed & _MASK) ^ rows)[:, None] ^ cols)
    flat = (h % 3 + 1).astype(np.uint8).tobytes()
    return ColoredBipartiteGraph(m, n, tuple(flat[i * n:(i + 1) * n] for i in range(m)))


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
    # counters outside equality: both sides' scan blocks and GEMMs, and the cell it stopped in
    blocks: int = field(default=0, compare=False)
    kernel_calls: int = field(default=0, compare=False)
    exit_cell: tuple[int, int, int] | None = field(default=None, compare=False)


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


def _witness_planes(colors: np.ndarray) -> np.ndarray:
    """Float32 0/1 planes of shape (3, size + 1, witnesses) for the rows of
    ``colors`` (set-side vertices; columns are witnesses): [c - 1, x, w] is 1
    when edge (x, w) has color c.  Row ``size`` is a sentinel served by every
    witness in every color."""
    planes = np.ones((3, colors.shape[0] + 1, colors.shape[1]), dtype=np.float32)
    planes[:, :-1] = colors == np.arange(1, 4, dtype=np.uint8)[:, None, None]
    return planes


def _served(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """(lhs columns, rhs columns) bools: whether the two sets share a witness.
    Operands hold one 0/1 row per witness, so the GEMM sums nonnegative terms
    and ``> 0`` is exact in any summation order and on any BLAS threads."""
    return lhs.T @ rhs > 0


def _set_planes(planes: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """(witnesses, len(sets)) product of the member rows of one color's
    ``planes`` (the empty set takes the sentinel row), built a chunk of sets
    at a time by multiplying member gathers of at most ``_BLOCK_WORDS``
    words in place."""
    members = sets.T if sets.shape[1] else np.full((1, 1), len(planes) - 1)
    product = np.empty((planes.shape[1], members.shape[1]), dtype=np.float32)
    chunk = max(1, 2 * _BLOCK_WORDS // max(1, planes.shape[1]))
    for lo in range(0, members.shape[1], chunk):
        part = planes[members[0, lo:lo + chunk]]
        for member in members[1:, lo:lo + chunk]:
            part *= planes[member]
        product[:, lo:lo + chunk] = part.T
    return product


def _check_side(colors: np.ndarray, side: Side, k: int, work: list[int]):
    """First failing configuration on ``side`` (whose vertices are the rows
    of ``colors``) in deterministic order (total size, then sizes, then
    lexicographic sets) and the count of configurations evaluated; the
    blocks and GEMMs that evaluated them are added to ``work``.

    A set's plane is the product of its members' planes in its color.  A
    third set meeting x1 or x2 is never served, since no edge has two colors,
    so the (x1, x2) pair passes when its served count is C(size - s1 - s2, s3).
    A block of first sets and second sets is checked at once: GEMMs
    (``_served``) over witnesses W, whose (x1, x2) rows are color-1 times
    color-2 planes and x3 columns color-3 planes, fill the block's served
    matrix, and one clash mask, one total and one ``argmax`` decide it.
    Where no set is empty, each first set has its own GEMM over its color-1
    witnesses, a 3^s1-th of them; elsewhere W is every witness and the
    block's first sets share one GEMM.  Blocks start at one first set and
    double up to as many whole x2 rows as one product holds, so an early
    failure costs little and a full scan few blocks.  A product holds at
    most ``_BLOCK_WORDS`` words of float32 entries: that splits the x2 rows,
    and the x3 columns when one row alone is too wide."""
    size = colors.shape[0]
    planes = _witness_planes(colors)
    sets, ands = {}, {}  # by size, and by (size, color): built when first needed
    room = 2 * _BLOCK_WORDS  # float32 entries of one GEMM's product
    checked = 0
    for cell in _size_triples(min(k, size)):
        if sum(cell) > size:
            continue
        # with an empty third set the cell's order is the same with colors 2
        # and 3 exchanged; the empty set then takes the rows, so a block of
        # first sets stays one row per first set
        r, c = (2, 1) if cell[2] == 0 else (1, 2)
        s1, s2, s3 = cell[0], cell[r], cell[c]
        free = math.comb(size - s1 - s2, s3)
        for s, color in {(s1, 0), (s2, r), (s3, c)} - set(ands):
            if s not in sets:
                sets[s] = np.array(list(itertools.combinations(range(size), s)), dtype=np.intp)
            ands[s, color] = _set_planes(planes[color], sets[s])
        a1, a2, a3 = ands[s1, 0], ands[s2, r], ands[s3, c]
        n1, n2, n3 = len(sets[s1]), len(sets[s2]), len(sets[s3])
        cols = min(n3, room)
        rows = room // cols
        most1 = max(1, rows // n2)  # several first sets take whole x2 rows
        per_first = min(cell) > 0
        lo1, width = 0, 1
        while lo1 < n1:
            block1 = slice(lo1, lo1 + width)
            x1s = sets[s1][block1]
            if per_first:
                # a first set's plane is 1 on its color-1 witnesses and 0
                # elsewhere: over those its rows are the color-2 planes
                w = np.nonzero(a1[:, block1].T)[1]
                ends = np.count_nonzero(a1[:, block1], axis=0).cumsum().tolist()
                p2, p3 = a2.take(w, axis=0), a3.take(w, axis=0)
                operands = [(p2[a:b], p3[a:b]) for a, b in zip([0] + ends, ends)]
            step2 = min(n2, max(1, rows // width))
            for lo2 in range(0, n2, step2):
                block2 = slice(lo2, lo2 + step2)
                x2s = sets[s2][block2]
                if per_first:
                    gemms = [(lhs[:, block2], rhs) for lhs, rhs in operands]
                else:
                    lhs = a1[:, block1, None] * a2[:, None, block2]
                    gemms = [(lhs.reshape(lhs.shape[0], lhs.shape[1] * lhs.shape[2]), a3)]
                served = np.empty((len(x1s) * len(x2s), n3), dtype=bool)
                for at, (lhs, rhs) in zip(range(0, len(served), len(x2s)), gemms):
                    for lo3 in range(0, n3, cols):
                        tile = slice(lo3, lo3 + cols)
                        served[at:at + lhs.shape[1], tile] = _served(lhs, rhs[:, tile])
                        work[1] += 1
                work[0] += 1
                clash = (x2s[:, None, :, None] == x1s[None, :, None]).any(axis=(2, 3))
                disjoint = ~clash.T.reshape(-1)
                # a disjoint row serves at most `free` third sets and a
                # clashing row none (its x1 and x2 planes share no witness),
                # so one total decides a block that passes
                passed = free * int(np.count_nonzero(disjoint))
                if np.count_nonzero(served) == passed:
                    checked += passed
                    continue
                failing = disjoint & (np.count_nonzero(served, axis=1) != free)
                j = int(failing.argmax())
                checked += free * int(np.count_nonzero(disjoint[:j]))
                i1, i2 = divmod(j, clash.shape[0])
                x1, x2 = x1s[i1], x2s[i2]
                clear = ~(sets[s3][:, :, None] == np.r_[x1, x2]).any(axis=(1, 2))
                col = int((clear & ~served[j]).argmax())
                checked += int(np.count_nonzero(served[j, :col])) + 1
                x3 = sets[s3][col]
                found = (x1, x3, x2) if r == 2 else (x1, x2, x3)
                return ThetaCounterexample(side, tuple(tuple(x.tolist()) for x in found)), checked
            lo1 += width
            width = min(2 * width, most1)
    return None, checked


def check_theta(
    g: ColoredBipartiteGraph, k: int, budget: int = DEFAULT_THETA_BUDGET
) -> ExtensionReport:
    """Exact extension-property check; the left side's sets are scanned first,
    so counterexamples are deterministic."""
    _check_order(k, max(g.m, g.n))
    for size in (g.m, g.n):
        count = _config_count(size, k)
        if count > budget:
            raise ThetaBudgetError(f"{count} set triples exceed budget {budget}; use sampled mode")
    colors, work = np.frombuffer(b"".join(g.colors), np.uint8).reshape(g.m, g.n), [0, 0]
    cex, checked_left = _check_side(colors, Side.LEFT, k, work)
    checked_right = 0
    if cex is None:
        cex, checked_right = _check_side(colors.T, Side.RIGHT, k, work)
    cell = None if cex is None else tuple(map(len, cex.sets))
    return ExtensionReport(k, cex is None, cex, checked_left, checked_right, *work, cell)


def verify_counterexample(g: ColoredBipartiteGraph, k: int, cex: ThetaCounterexample) -> bool:
    """Direct scan confirming that no witness serves the reported sets."""
    x1, x2, x3 = sets = tuple(map(set, cex.sets))
    size = g.side_size(cex.side)
    if any(len(s) > k or not all(0 <= v < size for v in s) for s in sets):
        return False
    if x1 & x2 or x1 & x3 or x2 & x3:
        return False
    rows = g.colors if cex.side is Side.LEFT else tuple(zip(*g.colors))
    return not any(
        all(rows[x][w] == c for c, xs in zip((1, 2, 3), sets) for x in xs)
        for w in range(g.side_size(cex.side.other()))
    )


@dataclass(frozen=True)
class SampledCheck:
    k: int
    trials: int
    violations: int
    # counter outside equality: the gather-and-min blocks of both sides
    blocks: int = field(default=0, compare=False)

    @property
    def violation_rate(self) -> float:
        return self.violations / self.trials


def check_theta_sampled(g: ColoredBipartiteGraph, k: int, trials: int, seed: int) -> SampledCheck:
    """Monte Carlo surrogate: configurations drawn uniformly from the same
    space the exact check enumerates (both sides, sizes up to k).

    A draw takes a cell by bisecting the cumulative cell counts, then each
    nonempty set in turn as indices into the vertices not yet taken:
    ``randrange(n)`` for one vertex and ``sample(range(n), s)`` for more.
    In CPython these consume the random stream exactly as ``sample`` over a
    list of those n vertices does, and pick the same positions, so no pool
    is built; the tests' pool-sampling reference pins that equivalence.
    Each drawn set is padded to a common width with the sentinel row of
    ``_witness_planes``; a block of draws is then one gather-and-min per
    side."""
    _check_order(k, max(g.m, g.n))
    if trials < 1:
        raise ValueError("need at least one trial")
    colors = np.frombuffer(b"".join(g.colors), np.uint8).reshape(g.m, g.n)
    planes = {Side.LEFT: _witness_planes(colors), Side.RIGHT: _witness_planes(colors.T)}
    cells = [(side, g.side_size(side), sizes)
             for side in planes for sizes in _size_triples(min(k, g.side_size(side)))]
    # a cell with no configurations ends where the one before it does, so
    # bisect never lands in it
    ends = list(itertools.accumulate(_cell_count(size, sizes) for _, size, sizes in cells))
    # a set has at most min(k, side size) members; a block's gather holds at
    # most _BLOCK_WORDS words of float32 entries
    width = max(1, min(k, max(g.m, g.n)))
    block = max(1, 2 * _BLOCK_WORDS // (3 * width * max(1, g.m, g.n)))
    rng = random.Random(seed)
    violations = blocks = 0
    for start in range(0, trials, block):
        picks = {side: [] for side in planes}  # each side's draws, one flat list
        for _ in range(min(block, trials - start)):
            side, size, sizes = cells[bisect.bisect_right(ends, rng.randrange(ends[-1]))]
            row, taken = picks[side], []  # taken: this draw's vertices so far, ascending
            for s in sizes:
                if s:  # sampling no vertex draws nothing from the stream
                    left = size - len(taken)
                    picked = [rng.randrange(left)] if s == 1 else rng.sample(range(left), s)
                    for j, i in enumerate(picked):  # the i-th vertex not yet taken
                        for t in taken:
                            if t > i:
                                break
                            i += 1
                        picked[j] = i
                    taken = sorted(taken + picked)
                    row += picked
                row += [size] * (width - s)
        for side, drawn in picks.items():
            if drawn:
                members = np.array(drawn, dtype=np.intp).reshape(-1, 3, width)
                joint = planes[side][np.arange(3)[:, None], members].min(axis=(1, 2))
                violations += len(members) - int(np.count_nonzero(joint.any(axis=1)))
                blocks += 1
    return SampledCheck(k, trials, violations, blocks)


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
    top, m = _side_sizes(n)
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
    # counters outside equality, summed over the graphs' checks: how many
    # ran exact and sampled, their blocks, and the exact checks' GEMMs
    exact_checks: int = field(default=0, compare=False)
    sampled_checks: int = field(default=0, compare=False)
    blocks: int = field(default=0, compare=False)
    kernel_calls: int = field(default=0, compare=False)


def estimate_failure_prob(n: int, k: int, graph_trials: int, seed: int) -> FailureEstimate:
    """Fraction of independently drawn side-balanced graphs of total size n
    failing the order-k extension property, with a 95% binomial half-width.

    Each trial derives its own counter-based seed, so aggregates do not
    depend on evaluation order.  When exact checking would blow
    ``DEFAULT_THETA_BUDGET``, trials fall back to sampled checking of 1000
    draws per graph and the result is flagged ``"sampled"``.
    """
    if graph_trials < 1:
        raise ValueError("need at least one trial")
    m_left, m_right = _side_sizes(n)
    _check_cells([(m_left, m_right)])
    _check_order(k, m_left)
    exact = all(_config_count(size, k) <= DEFAULT_THETA_BUDGET for size in (m_left, m_right))
    failures = blocks = kernel_calls = 0
    for t in range(graph_trials):
        trial_seed = _mix((seed & _MASK) ^ _mix(t + 1))
        g = random_graph(m_left, m_right, trial_seed)
        if exact:
            report = check_theta(g, k)
            failed = not report.holds
            kernel_calls += report.kernel_calls
        else:
            report = check_theta_sampled(g, k, 1000, _mix(trial_seed))
            failed = report.violations > 0
        failures += failed
        blocks += report.blocks
    rate = failures / graph_trials
    half_width = 1.96 * math.sqrt(rate * (1.0 - rate) / graph_trials)
    checks = (graph_trials, 0) if exact else (0, graph_trials)
    return FailureEstimate(
        n, k, graph_trials, failures, rate, half_width, "exact" if exact else "sampled",
        *checks, blocks, kernel_calls,
    )
