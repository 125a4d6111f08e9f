"""Seeded random graphs, extension-property checking, and failure bounds.

Randomness is counter-based: the color of edge (i, j) under a seed is a pure
function of the triple (seed, i, j) through the SplitMix64 finalizer, so a
graph never changes when it is extended and chains grow stably.  The mod-3
reduction bias is on the order of 2^-64.

The extension property of order k asks, for every three pairwise disjoint
vertex sets of size at most k on one side, for a single vertex on the other
side joined to the first set by color 1, the second by color 2 and the third
by color 3, and symmetrically for the other side.  Both checks read one
array of 0/1 witness planes per side, and the table of set-size cells and
each side's cumulative counts, cached per order k.  The exact check scans
every configuration in a fixed order, one block at a time.  Each cell of
set sizes has an outer set, its first empty set or else the first set; one
float32 GEMM per outer set, over that set's witnesses, fills its rows of
the block's served matrix, and one pass of bookkeeping decides the block.
The sampled check draws a block of configurations in two stages: a Python
loop makes only the random calls, recording each draw's cell and its
indices into the vertices not yet taken, without building a pool; then one
numpy pass maps the block's indices to vertices, and the minimum of the
drawn sets' planes decides each draw.
"""

from __future__ import annotations

import bisect
import functools
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

#: Stands for a padding member in the sampled check's taken vertices: above
#: every index less the count of earlier members.
_NOT_TAKEN = np.iinfo(np.intp).max

#: 8-byte words of float32 entries in one GEMM product of the exact scan, or
#: one block of gathered planes of the sampled check (512 KiB).
_BLOCK_WORDS = 1 << 16


class ThetaBudgetError(Exception):
    """Exact enumeration would exceed the configured budget; sample instead."""


def _mix(x):
    """SplitMix64 finalizer, on a Python int or elementwise and in place on a
    uint64 array (where the masks are no-ops and the arithmetic wraps)."""
    x += 0x9E3779B97F4A7C15
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        x &= _MASK
        x ^= x >> shift
        x *= factor
    x &= _MASK
    x ^= x >> 31
    return x


def _check_cells(sizes) -> None:
    """Refuse graphs with negative sides, or more cells in total than
    ``RANDOM_GRAPH_CELL_CAP``, before anything is allocated."""
    cells = 0
    for m, n in sizes:
        if m < 0 or n < 0:
            raise ValueError("side cardinalities must be nonnegative")
        cells += max(m, 1) * max(n, 1)
        if cells > RANDOM_GRAPH_CELL_CAP:
            raise ValueError(f"graphs of more than {RANDOM_GRAPH_CELL_CAP} cells exceed the cap")


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
    h -= h // 3 * 3  # h % 3, by numpy's faster division by a constant
    h += 1
    flat = h.astype(np.uint8).tobytes()
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


@functools.cache  # the size cells of order k <= 31 (_check_order) in scan order
def _size_triples(k: int) -> tuple[tuple[int, int, int], ...]:
    return tuple(sorted(itertools.product(range(k + 1), repeat=3), key=lambda t: (sum(t), t)))


def _cell_count(size: int, sizes) -> int:
    """Ordered triples of pairwise disjoint sets with the given sizes."""
    s1, s2, s3 = sizes
    if s1 + s2 + s3 > size:
        return 0
    return math.comb(size, s1) * math.comb(size - s1, s2) * math.comb(size - s1 - s2, s3)


@functools.lru_cache(maxsize=8)  # cumulative counts of the cells of order k <= size
def _cell_ends(size: int, k: int) -> tuple[int, ...]:
    return tuple(itertools.accumulate(_cell_count(size, sizes) for sizes in _size_triples(k)))


def _config_count(size: int, k: int) -> int:
    return _cell_ends(size, min(k, size))[-1]


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


def _size_planes(planes: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """``_set_planes`` of every set of one size, in order: the sentinel row as a
    view for the empty set, vertex rows as one copy (a transposed view slows GEMMs)."""
    if sets.shape[1] > 1:
        return _set_planes(planes, sets)
    return np.ascontiguousarray(planes[:-1].T) if sets.shape[1] else planes[-1:].T


def _check_side(colors: np.ndarray, side: Side, k: int, work: list[int]):
    """First failing configuration on ``side`` (whose vertices are the rows
    of ``colors``) in deterministic order (total size, then sizes, then
    lexicographic sets) and the count of configurations evaluated; the
    blocks and GEMMs that evaluated them are added to ``work``.

    A set's plane is the product of its members' planes in its color, read
    from the witness planes below two members (``_size_planes``).  Two sets
    that meet are never served together, since no edge has two colors.  Each
    cell has an outer set: its first empty set, which every witness serves
    and no set meets, or else x1.  Of the other two sets the earlier takes
    the rows and the later the columns, so a block's served matrix, rows
    (outer set, row set) by column sets, lists configurations in scan order,
    and a disjoint row passes when it serves every column set disjoint from
    it.  One GEMM per outer set (``_served``), over that set's witnesses,
    fills its rows, and one clash mask (none for an empty outer set), one
    total and one ``argmax`` decide the block.  Blocks start at one outer
    set and double up to as many whole rows as one product holds, so an
    early failure costs little and a full scan few blocks.  A product holds
    at most ``_BLOCK_WORDS`` words of float32 entries: that splits the rows,
    and the columns when one row alone is too wide."""
    size = colors.shape[0]
    planes = _witness_planes(colors)
    # sets by size and planes by (size, color); combinations from two members on
    sets, ands = {0: np.empty((1, 0), np.intp), 1: np.arange(size, dtype=np.intp)[:, None]}, {}
    room = 2 * _BLOCK_WORDS  # float32 entries of one GEMM's product
    checked = 0
    for cell in _size_triples(min(k, size)):
        if sum(cell) > size:
            continue
        o = cell.index(0) if 0 in cell else 0
        r, c = (i for i in range(3) if i != o)
        so, sr, sc = cell[o], cell[r], cell[c]
        free = math.comb(size - so - sr, sc)
        for s, color in {(so, o), (sr, r), (sc, c)} - set(ands):
            if s not in sets:
                sets[s] = np.array(list(itertools.combinations(range(size), s)), dtype=np.intp)
            ands[s, color] = _size_planes(planes[color], sets[s])
        ao, ar, ac = ands[so, o], ands[sr, r], ands[sc, c]
        no, nr, nc = len(sets[so]), len(sets[sr]), len(sets[sc])
        cols = min(nc, room)
        rows = room // cols
        most = max(1, rows // nr)  # several outer sets take whole rows
        lo1, width = 0, 1
        while lo1 < no:
            block1 = slice(lo1, lo1 + width)
            xos = sets[so][block1]
            if so:
                # an outer set's plane is 1 on its witnesses and 0
                # elsewhere: over those its rows are the row sets' planes
                w = np.nonzero(ao[:, block1].T)[1]
                ends = np.count_nonzero(ao[:, block1], axis=0).cumsum().tolist()
                pr, pc = ar.take(w, axis=0), ac.take(w, axis=0)
                operands = [(pr[a:b], pc[a:b]) for a, b in zip([0] + ends, ends)]
            else:  # the empty set: every witness, without a copy
                operands = [(ar, ac)]
            step2 = min(nr, max(1, rows // width))
            for lo2 in range(0, nr, step2):
                block2 = slice(lo2, lo2 + step2)
                xrs = sets[sr][block2]
                served = np.empty((len(xos) * len(xrs), nc), dtype=bool)
                for at, (lhs, rhs) in zip(range(0, len(served), len(xrs)), operands):
                    for lo3 in range(0, nc, cols):
                        tile = slice(lo3, lo3 + cols)
                        served[at:at + len(xrs), tile] = _served(lhs[:, block2], rhs[:, tile])
                        work[1] += 1
                work[0] += 1
                disjoint = (~(xrs[:, None, :, None] == xos[:, None]).any(axis=(2, 3)).T.reshape(-1)
                            if so else np.ones(len(served), dtype=bool))
                # a disjoint row serves at most `free` column sets and a
                # clashing row none (its two planes share no witness), so
                # one total decides a block that passes
                passed = free * int(np.count_nonzero(disjoint))
                if np.count_nonzero(served) == passed:
                    checked += passed
                    continue
                failing = disjoint & (np.count_nonzero(served, axis=1) != free)
                j = int(failing.argmax())
                checked += free * int(np.count_nonzero(disjoint[:j]))
                i1, i2 = divmod(j, len(xrs))
                xo, xr = xos[i1], xrs[i2]
                clear = ~(sets[sc][:, :, None] == np.concatenate((xo, xr))).any(axis=(1, 2))
                col = int((clear & ~served[j]).argmax())
                checked += int(np.count_nonzero(served[j, :col])) + 1
                found = dict(zip((o, r, c), (xo, xr, sets[sc][col])))
                return ThetaCounterexample(side, tuple(tuple(found[i].tolist()) for i in range(3))), checked
            lo1 += width
            width = min(2 * width, most)
    return None, checked


def _screened_colors(g: ColoredBipartiteGraph, k: int) -> np.ndarray:
    """``g``'s colors as an (m, n) uint8 view, once k and the graph's cells
    pass their caps: a refused graph allocates nothing sized by a side."""
    _check_order(k, max(g.m, g.n))
    _check_cells([(g.m, g.n)])
    return np.frombuffer(b"".join(g.colors), np.uint8).reshape(g.m, g.n)


def check_theta(
    g: ColoredBipartiteGraph, k: int, budget: int = DEFAULT_THETA_BUDGET
) -> ExtensionReport:
    """Exact extension-property check; the left side's sets are scanned first,
    so counterexamples are deterministic."""
    colors, work = _screened_colors(g, k), [0, 0]
    for size in (g.m, g.n):
        count = _config_count(size, k)
        if count > budget:
            raise ThetaBudgetError(f"{count} set triples exceed budget {budget}; use sampled mode")
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

    A draw takes a cell by bisecting one side's cached cumulative cell
    counts, then each nonempty set in turn as indices into the vertices not
    yet taken.  The draw loop makes only the random calls:
    ``getrandbits(n.bit_length())`` until the value is below n, which is
    CPython's ``randrange(n)``, for the cell and each one-member set, and
    ``sample(range(n), s)`` for more.  These consume the random stream
    exactly as ``sample`` over a list of those n vertices does, and pick the
    same positions, so no pool is built; the tests' pool-sampling reference
    pins that equivalence.  The loop records each draw's cell and appends
    its indices to one list.  A block's draws are then laid out as (draw,
    set, member) rows padded to a common width, the cells' set sizes marking
    the padding, and one numpy pass maps indices to vertices (sequential
    sampling): the i-th vertex not yet taken is i plus the number of taken
    vertices t_q, ascending with q from 0, with t_q - q <= i.  Padding takes
    the sentinel row of ``_witness_planes``, and one gather-and-min per side
    decides the block's draws."""
    colors = _screened_colors(g, k)
    if trials < 1:
        raise ValueError("need at least one trial")
    planes = {Side.LEFT: _witness_planes(colors), Side.RIGHT: _witness_planes(colors.T)}
    # the left side's cells come first; a cell with no configurations ends
    # where the one before it does, so bisect never lands in it
    left_ends, right_ends = _cell_ends(g.m, min(k, g.m)), _cell_ends(g.n, min(k, g.n))
    cells = _size_triples(min(k, g.m)) + _size_triples(min(k, g.n))
    left_cells, split, total = len(left_ends), left_ends[-1], left_ends[-1] + right_ends[-1]
    total_bits = total.bit_length()
    # each drawn cell's nonempty sets in turn: (vertices not yet taken,
    # members, bits), built on the cell's first draw (k = 31 has 2 * 32^3 cells)
    draws: dict[int, list[tuple[int, int, int]]] = {}
    # a set has at most min(k, side size) members; a block's gather holds at
    # most _BLOCK_WORDS words of float32 entries, and the map's comparisons,
    # at most 2 width^2 bytes a draw, fewer bytes than that
    width = max(1, min(k, max(g.m, g.n)))
    block = max(1, 2 * _BLOCK_WORDS // (3 * width * max(1, g.m, g.n)))
    rng = random.Random(seed)
    getrandbits, sample, bisect_right = rng.getrandbits, rng.sample, bisect.bisect_right
    violations = blocks = 0
    for start in range(0, trials, block):
        drawn, indices = [], []  # each draw's cell; every draw's indices, set by set
        for _ in range(min(block, trials - start)):
            r = getrandbits(total_bits)
            while r >= total:
                r = getrandbits(total_bits)
            cell = (bisect_right(left_ends, r) if r < split
                    else left_cells + bisect_right(right_ends, r - split))
            if cell not in draws:
                size, sizes = g.m if cell < left_cells else g.n, cells[cell]
                lefts = (size, size - sizes[0], size - sizes[0] - sizes[1])
                draws[cell] = [(left, s, left.bit_length()) for left, s in zip(lefts, sizes) if s]
            drawn.append(cell)
            for left, s, bits in draws[cell]:
                if s == 1:
                    r = getrandbits(bits)
                    while r >= left:
                        r = getrandbits(bits)
                    indices.append(r)
                else:
                    indices += sample(range(left), s)
        # (draw, set, member) in the order the loop filed them, padded to width
        cell_ids, inverse = np.unique(drawn, return_inverse=True)
        sizes = np.array([cells[i] for i in cell_ids.tolist()], dtype=np.intp)[inverse]
        pad = np.arange(width) >= sizes[:, :, None]
        picked = np.zeros(pad.shape, dtype=np.intp)
        picked[~pad] = indices
        for c in (1, 2):  # mapped in place, so later sets see vertices
            taken = np.sort(np.where(pad[:, :c], _NOT_TAKEN, picked[:, :c]).reshape(len(drawn), -1))
            taken -= np.arange(taken.shape[1])
            picked[:, c] += np.count_nonzero(taken[:, None] <= picked[:, c, :, None], axis=2)
        on_left = (cell_ids < left_cells)[inverse]
        for side, rows in ((Side.LEFT, on_left), (Side.RIGHT, ~on_left)):
            if rows.any():
                members = np.where(pad[rows], g.side_size(side), picked[rows])
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
