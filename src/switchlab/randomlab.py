"""Seeded random graphs, extension-property checking, and failure bounds.

Randomness is counter-based: the color of edge (i, j) under a seed is a pure
function of the triple (seed, i, j) through the SplitMix64 finalizer, so a
graph never changes when it is extended and chains grow stably.  The mod-3
reduction bias is on the order of 2^-64.

The extension property of order k asks, for every three pairwise disjoint
vertex sets of size at most k on one side, for a single vertex on the other
side joined to the first set by color 1, the second by color 2 and the third
by color 3, and symmetrically for the other side.  Both checks read each
side's witnesses as one array of packed uint64 words (a row per color and
vertex, and a sentinel row per color), and the table of set-size cells and
each side's cumulative counts, cached per k.
The exact check scans every configuration in a fixed order.  One pair
layer decides every cell of at most two members, in one block at desk
sizes: the sentinel row against every vertex (the empty and one-member
sets), then, cell by cell, vertex x of one color against every vertex y of
another (or of the same, y > x); the first failure's count is its cell's
start plus its rank in closed form.  The cells of three members or more
run in blocks of one outer set (a cell's first empty set or else its first
set), then of as many as one block holds; a row's witnesses are the AND of
its outer and row sets' words.  A block of few rows ANDs them with every
column set's words; a larger one ORs Four-Russians tables of the column
sets' bits over its rows' witness bytes (Arlazarov, Dinic, Kronrod &
Faradzev, 1970).  One pass of bookkeeping decides the block.
The sampled check draws a block of configurations in two stages: a Python
loop makes only the random calls, recording each draw's cell and its
indices into the vertices not yet taken, without building a pool; then one
numpy pass maps the block's indices to vertices, and the AND of the drawn
members' witness words decides each draw.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import random
from dataclasses import dataclass, field

import numpy as np

from .graphs import ColoredBipartiteGraph, Side, _unchecked_graph

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

#: uint64 words (512 KiB) in one block of the exact scan's rows or in its
#: served matrix, in one AND of its word product, in one packed product or
#: one of its per-byte gathers, or taken by one block of the sampled check's
#: draws.
_BLOCK_WORDS = 1 << 16

#: Block rows from which the exact scan takes the packed kernel, whose
#: per-byte calls and OR tables cost more than word products below them.
_PACKED_ROWS = 400


class ThetaBudgetError(Exception):
    """Exact enumeration would exceed the configured budget."""


def _mix(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, elementwise and in place on a uint64 array."""
    x += 0x9E3779B97F4A7C15
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        x ^= x >> shift
        x *= factor
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
    rows = np.arange(m, dtype=np.uint64) * np.uint64(_MULT_I)
    cols = np.arange(n, dtype=np.uint64) * np.uint64(_MULT_J)
    h = _mix(_mix(np.uint64(seed % 2**64) ^ rows)[:, None] ^ cols)
    h -= h // 3 * 3  # h % 3, by numpy's faster division by a constant
    h += 1
    flat = h.astype(np.uint8).tobytes()
    return _unchecked_graph(m, n, tuple([flat[i * n:i * n + n] for i in range(m)]))


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
    # counters outside equality, over both sides: blocks (a side's pair layer
    # is one, whose rows outgrow one only on long sides) and kernel products
    # (the sentinel row and each two-member cell are one each, or a tile each)
    blocks: int = field(default=0, compare=False)
    kernel_calls: int = field(default=0, compare=False)


@functools.cache  # the size cells of order k <= 31 (_check_order) in scan order
def _size_triples(k: int) -> tuple[tuple[int, int, int], ...]:
    return tuple(sorted(itertools.product(range(k + 1), repeat=3), key=lambda t: (sum(t), t)))


def _cell_count(size: int, sizes) -> int:
    """Ordered triples of pairwise disjoint sets with the given sizes."""
    s1, s2, s3 = sizes
    if s1 + s2 + s3 > size:
        return 0
    return math.comb(size, s1) * math.comb(size - s1, s2) * math.comb(size - s1 - s2, s3)


@functools.cache  # the cells of at most two members of order k: (index, member colors)
def _layer_cells(k: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    return tuple((i, tuple(color for color in range(3) for _ in range(cell[color])))
                 for i, cell in enumerate(_size_triples(k)) if sum(cell) <= 2)


@functools.cache  # _size_triples(k) as a read-only (cells, 3) array
def _size_array(k: int) -> np.ndarray:
    sizes = np.array(_size_triples(k), dtype=np.intp)
    sizes.flags.writeable = False
    return sizes


@functools.lru_cache(maxsize=8)  # cumulative counts of the cells of order k <= size
def _cell_ends(size: int, k: int) -> tuple[int, ...]:
    return tuple(itertools.accumulate(_cell_count(size, sizes) for sizes in _size_triples(k)))


def _config_count(size: int, k: int) -> int:
    return _cell_ends(size, min(k, size))[-1]


def _witness_words(colors: np.ndarray) -> np.ndarray:
    """uint64 words of witness bits, shape (3, size + 1, words) with at least
    one word, for the rows of ``colors`` (set-side vertices; columns are
    witnesses): bit w of [c - 1, x] is set when edge (x, w) has color c.
    Row ``size`` is a sentinel served by every witness; padding bits are 0.
    Each color's bools are packed straight into the padded bytes."""
    size, witnesses = colors.shape
    packed = np.zeros((3, size + 1, max(1, -(-witnesses // 64)) * 8), dtype=np.uint8)
    nbytes = -(-witnesses // 8)
    packed[:, :-1, :nbytes] = np.packbits(colors == np.arange(1, 4, dtype=np.uint8)[:, None, None],
                                          axis=-1, bitorder="little")
    packed[:, -1, :witnesses // 8] = 255
    if witnesses % 8:
        packed[:, -1, witnesses // 8] = (1 << witnesses % 8) - 1
    return packed.view(np.uint64)


def _set_words(columns: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """(words, len(sets)) witness words of each of ``sets``: the AND of its
    members' columns of one color's word-major witness words (words, size +
    1), one member at a time; the empty set takes the sentinel column."""
    if not sets.shape[1]:
        return columns[:, -1:]
    product = columns.take(sets[:, 0], axis=1)
    for member in sets.T[1:]:
        product &= columns.take(member, axis=1)
    return product


def _word_served(rows: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """(rows, sets) bools: whether a row's witness words (words, rows) and a
    set's (words, sets) share a witness, through one (words, rows, sets)
    AND, ORed over the words.  Word-major operands keep the AND's last axis
    contiguous; with words last it ran 10-15 times slower."""
    return (rows[:, :, None] & sets[:, None]).any(axis=0)


def _or_tables(planes: np.ndarray) -> np.ndarray:
    """Four-Russians tables (witness bytes, 256, words) of 0/1 set bits
    (witnesses, sets): entry v of byte b is the OR, in uint64 words over the
    sets, of the rows of the witnesses 8b + i for the bits i of v.  They take
    4 bytes per witness and set, 32 times the sets' witness words."""
    packed = np.packbits(planes != 0, axis=-1, bitorder="little")  # zero padding bits
    rows = np.zeros((-(-len(packed) // 8) * 8, -(-packed.shape[1] // 8) * 8), np.uint8)
    rows[:len(packed), :packed.shape[1]] = packed
    rows = rows.view(np.uint64).reshape(len(rows) // 8, 2, 4, rows.shape[1] // 8)
    # entry v is the OR of the low nibble's entry v & 15 and the high one's v >> 4
    nibbles = np.zeros((len(rows), 2, 16, rows.shape[3]), np.uint64)
    for i in range(4):
        np.bitwise_or(nibbles[:, :, :1 << i], rows[:, :, i, None], out=nibbles[:, :, 1 << i:2 << i])
    return (nibbles[:, 1, :, None] | nibbles[:, 0, None]).reshape(len(rows), 256, rows.shape[3])


def _packed_served(pairs: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """(rows, words) uint64 bits of the sets served by each column of witness
    bytes ``pairs`` (bytes, rows): the OR over its bytes of one table entry each."""
    served = np.zeros((pairs.shape[1], tables.shape[2]), np.uint64)
    for byte, table in zip(pairs, tables):
        served |= table.take(byte, axis=0)
    return served


def _block_served(pairs: np.ndarray, sets: np.ndarray, table, work: list[int]):
    """A block's served matrix and its total: (rows, sets) bools of the
    word-major rows ``pairs`` against the set words ``sets`` (``_word_served``
    in column tiles), or, given the sets' OR ``table``, (rows, words) bits of
    byte-major rows (``_packed_served``).  Each product is one kernel call
    in ``work``."""
    if table is not None:
        served = _packed_served(pairs, table)
        work[1] += 1
        return served, int(np.bitwise_count(served).sum())
    served, cols = np.empty((pairs.shape[1], sets.shape[1]), dtype=bool), max(1, _BLOCK_WORDS // pairs.size)
    for lo in range(0, sets.shape[1], cols):
        served[:, lo:lo + cols] = _word_served(pairs, sets[:, lo:lo + cols])
        work[1] += 1
    return served, np.count_nonzero(served)


def _row_served(served: np.ndarray, j: int, sets: int) -> np.ndarray:
    """Row j of a served matrix as bools, one per column set."""
    if served.dtype == bool:
        return served[j]
    return np.unpackbits(served[j].view(np.uint8), count=sets, bitorder="little").view(bool)


def _check_side(colors: np.ndarray, side: Side, k: int, work: list[int]):
    """First failing configuration on ``side`` (whose vertices are the rows
    of ``colors``) in deterministic order (total size, then sizes, then
    lexicographic sets) and the count of configurations evaluated; the
    blocks and kernel products that evaluated them are added to ``work``.

    A set's witnesses are the AND of its members' words in its color
    (``_set_words``, word-major).  Two sets that meet are never served
    together, since no edge has two colors.

    The pair layer decides every cell of at most two members, one block
    unless its rows outgrow one.  Its first row is the sentinel, served by
    every witness, against every vertex and the sentinel of each color:
    the sentinel pair is the empty sets' cell and a vertex's entry its
    one-member cell.  Then come the two-member cells' rows, cell after
    cell: vertex x of the first member's color against every vertex y of
    the second's, served[x, y] = (words[c][x] & words[c'][y]) != 0.  The
    diagonal holds no configuration: never served for two colors, always
    for one once its vertices passed their one-member cell.  So a row
    passes when it serves every other vertex, and the first unserved entry
    off the diagonal, in row order, is the cell's first failure, also for
    one color, whose served matrix is symmetric, so that y > x.  Its
    ``checked`` is the cell's start from ``_cell_ends`` plus its rank in the
    cell, in closed form.

    The block scan takes the cells of three members or more.  Each cell
    has an outer set: its first empty set, which every witness serves and
    no set meets, or else x1.  Of the other two sets the earlier takes the
    rows and the later the columns, so a block's served matrix, rows (outer
    set, row set) by column sets, lists configurations in scan order, and a
    disjoint row passes when it serves every column set disjoint from it.
    A row's witnesses are the AND of its outer and row sets'.  One clash
    mask (none for an empty outer set), one total and one ``argmax`` decide
    the block; only a failing packed row is unpacked.  A cell's first block
    holds one outer set and each later one as many whole rows as a block
    holds, so an early failure costs little and a full scan few blocks.

    Below ``_PACKED_ROWS`` rows a block ANDs its rows' words with every
    column set's (``_word_served``, in column tiles); from there on one
    packed product (``_packed_served``) reads byte-major copies of the
    words.  A packed row takes the column sets' words or, if more, the
    witnesses'; a word-product row takes its served bools if more still.
    A block's rows, its served matrix and each AND of a tile hold at most
    ``_BLOCK_WORDS`` words, or one row."""
    size, witnesses = colors.shape
    k = min(k, size)
    cells, ends, layer = _size_triples(k), _cell_ends(size, k), _layer_cells(k)
    words = _witness_words(colors)
    # (words, color, vertex): the colors side by side, so one product reads all three
    columns = np.ascontiguousarray(words.transpose(2, 0, 1))
    nbytes = max(1, -(-witnesses // 8))  # witness bytes, at least one like the words
    # word-major set words, their byte-major copies and OR tables by (set
    # size, color); a vertex's words are its column, the empty set's the
    # sentinel's, and "lone" is every vertex and sentinel, color by color
    ands = {(1, color): columns[:, color, :size] for color in range(3)}
    ands[0, 0], ands["lone"] = columns[:, 0, size:], columns.reshape(len(columns), -1)
    bits, tables = {}, {}

    def rows_per_block(nc: int, want: int) -> tuple[bool, int]:
        """Whether a block of ``want`` rows against ``nc`` column sets is
        packed, and how many rows a block of its kernel holds."""
        per_row = -(-max(nc, witnesses) // 64)
        packed = min(want, _BLOCK_WORDS // per_row) >= _PACKED_ROWS
        return packed, max(1, _BLOCK_WORDS // (per_row if packed else max(per_row, -(-nc // 8))))

    def operands(rows, cols, packed: bool):
        """The row sets' and column sets' words, or for the packed kernel the
        row sets' byte-major copy and the column sets' OR tables."""
        if not packed:
            return ands[rows], ands[cols], None
        for key in {rows, cols} - set(bits):  # (witness bytes, sets)
            bits[key] = np.ascontiguousarray(ands[key].T).view(np.uint8)[:, :nbytes].T.copy()
        if cols not in tables:  # from the column sets' bits, (witnesses, sets)
            tables[cols] = _or_tables(np.unpackbits(bits[cols], axis=0, count=witnesses, bitorder="little"))
        return bits[rows], None, tables[cols]

    # the pair layer: the sentinel row decides the empty and one-member cells
    work[0] += 1
    served, total = _block_served(*operands((0, 0), "lone", rows_per_block(3 * (size + 1), 1)[0]), work)
    if total < 3 * (size + 1):
        # [color, vertex], the sentinel pair at [color, size]
        lone = _row_served(served, 0, 3 * (size + 1)).reshape(3, size + 1)
        for i, members in layer:
            passed = lone[members[0], :size] if members else lone[0, size:]
            if len(members) < 2 and not passed.all():
                found = [(), (), ()]
                y = int(passed.argmin())
                if members:
                    found[members[0]] = (y,)
                return ThetaCounterexample(side, tuple(found)), ends[i] - len(passed) + y + 1
    # then the two-member cells' rows, (cell index, colors), cell after
    # cell, one product per cell in a block
    two = [(i, *members) for i, members in layer if len(members) == 2] if size > 1 else []
    packed, rows = rows_per_block(size, len(two) * size)
    for lo in range(0, len(two) * size, rows):
        work[0] += lo > 0  # the first block began with the sentinel row
        for p in range(lo // size, min(len(two), -(-(lo + rows) // size))):
            i, a, b = two[p]
            x0 = max(lo - p * size, 0)
            row_words, col_words, table = operands((1, a), (1, b), packed)
            served, total = _block_served(row_words[:, x0:lo + rows - p * size], col_words, table, work)
            if total == len(served) * (size - (a != b)):  # all but the diagonal, for two colors
                continue
            if packed:  # the first failing row, unpacked
                j = int((np.bitwise_count(served).sum(axis=1) != size - (a != b)).argmax())
                served, x0 = _row_served(served, j, size)[None], x0 + j
            served.reshape(-1)[x0::size + 1][:len(served)] = True  # the diagonal
            j, y = divmod(int(served.argmin()), size)
            x = x0 + j
            rank = x * (size - 1) + y - (y > x) if a != b else x * (2 * size - x - 1) // 2 + y - x - 1
            found = [(), (), ()]
            found[a] += (x,)
            found[b] += (y,)
            return ThetaCounterexample(side, tuple(found)), ends[i - 1] + rank + 1
    first = len(layer)
    checked = ends[first - 1] if first else 0
    sets = {0: np.empty((1, 0), np.intp), 1: np.arange(size, dtype=np.intp)[:, None]}  # by size

    # the block scan
    for cell in cells[first:]:
        if sum(cell) > size:
            continue
        o = cell.index(0) if 0 in cell else 0
        r, c = (i for i in range(3) if i != o)
        so, sr, sc = cell[o], cell[r], cell[c]
        free = math.comb(size - so - sr, sc)
        for s, color in {(so, o), (sr, r), (sc, c)} - set(ands):
            if s not in sets:
                sets[s] = np.array(list(itertools.combinations(range(size), s)), dtype=np.intp)
            ands[s, color] = _set_words(columns[:, color], sets[s])
        no, nr, nc = len(sets[so]), len(sets[sr]), len(sets[sc])
        lo1, width = 0, 1
        while lo1 < no:
            packed, rows = rows_per_block(nc, width * nr)
            width = min(width, max(1, rows // nr))  # several outer sets take whole rows
            block1 = slice(lo1, lo1 + width)
            xos = sets[so][block1]
            outer, _, _ = operands((so, o), (sc, c), packed)
            row_words, col_words, table = operands((sr, r), (sc, c), packed)
            step2 = min(nr, max(1, rows // width))
            for lo2 in range(0, nr, step2):
                block2 = slice(lo2, lo2 + step2)
                xrs = sets[sr][block2]
                pairs = row_words[:, block2]  # with the outer sets' witnesses, in scan order
                if so:
                    pairs = (outer[:, block1, None] & pairs[:, None]).reshape(len(outer), -1)
                served, total = _block_served(pairs, col_words, table, work)
                work[0] += 1
                disjoint = (~(xrs[:, None, :, None] == xos[:, None]).any(axis=(2, 3)).T.reshape(-1)
                            if so else np.ones(len(served), dtype=bool))
                # a disjoint row serves at most `free` column sets and a
                # clashing row none (its two sets share no witness), so one
                # total decides a block that passes
                passed = free * int(np.count_nonzero(disjoint))
                if total == passed:
                    checked += passed
                    continue
                counts = (np.bitwise_count(served).sum(axis=1) if packed
                          else np.count_nonzero(served, axis=1))
                j = int((disjoint & (counts != free)).argmax())
                checked += free * int(np.count_nonzero(disjoint[:j]))
                row = _row_served(served, j, nc)
                i1, i2 = divmod(j, len(xrs))
                xo, xr = xos[i1], xrs[i2]
                clear = ~(sets[sc][:, :, None] == np.concatenate((xo, xr))).any(axis=(1, 2))
                col = int((clear & ~row).argmax())
                checked += int(np.count_nonzero(row[:col])) + 1
                found = dict(zip((o, r, c), (xo, xr, sets[sc][col])))
                return ThetaCounterexample(side, tuple(tuple(found[i].tolist()) for i in range(3))), checked
            lo1 += width
            width = no
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
    return ExtensionReport(k, cex is None, cex, checked_left, checked_right, *work)


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
    # counter outside equality: the packed-AND blocks of both sides
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
    set, member) rows padded to a common width, the cells' cached set sizes
    marking the padding, and one numpy pass maps indices to vertices
    (sequential sampling): the i-th vertex not yet taken is i plus the number
    of taken vertices t_q, ascending with q from 0, with t_q - q <= i.
    Padding takes the sentinel rows of ``_witness_words``; a draw is served
    when the AND of its 3 width gathered rows is nonzero."""
    colors = _screened_colors(g, k)
    if trials < 1:
        raise ValueError("need at least one trial")
    words = {Side.LEFT: _witness_words(colors), Side.RIGHT: _witness_words(colors.T)}
    # the left side's cells come first; a cell with no configurations ends
    # where the one before it does, so bisect never lands in it
    left_ends, right_ends = _cell_ends(g.m, min(k, g.m)), _cell_ends(g.n, min(k, g.n))
    cells = _size_triples(min(k, g.m)) + _size_triples(min(k, g.n))
    sizes_of = np.concatenate((_size_array(min(k, g.m)), _size_array(min(k, g.n))))
    left_cells, split, total = len(left_ends), left_ends[-1], left_ends[-1] + right_ends[-1]
    total_bits = total.bit_length()
    # each drawn cell's nonempty sets in turn: (vertices not yet taken,
    # members, bits), built on the cell's first draw (k = 31 has 2 * 32^3 cells)
    draws: dict[int, list[tuple[int, int, int]]] = {}
    # a set has at most min(k, side size) members; a block's _BLOCK_WORDS
    # count each draw's 3 width gathered rows of witness words, and its index
    # layout and list entries at about 8 words a member
    width = max(1, min(k, max(g.m, g.n)))
    block = max(1, _BLOCK_WORDS // (3 * width * (-(-max(g.m, g.n) // 64) + 8)))
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
        drawn = np.array(drawn, dtype=np.intp)
        pad = np.arange(width) >= sizes_of[drawn][:, :, None]
        picked = np.zeros(pad.shape, dtype=np.intp)
        picked[~pad] = indices
        for c in (1, 2):  # mapped in place, so later sets see vertices
            taken = np.sort(np.where(pad[:, :c], _NOT_TAKEN, picked[:, :c]).reshape(len(drawn), -1))
            taken -= np.arange(taken.shape[1])
            picked[:, c] += np.count_nonzero(taken[:, None] <= picked[:, c, :, None], axis=2)
        on_left = drawn < left_cells
        for side, rows in ((Side.LEFT, on_left), (Side.RIGHT, ~on_left)):
            if rows.any():
                gathered = words[side][np.arange(3)[:, None], np.where(pad[rows], g.side_size(side), picked[rows])]
                joint = np.bitwise_and.reduce(gathered.reshape(len(gathered), -1, gathered.shape[-1]), axis=1)
                violations += len(gathered) - int(np.count_nonzero(joint.any(axis=1)))
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
    # counters outside equality, summed over the graphs' exact checks: blocks and products
    blocks: int = field(default=0, compare=False)
    kernel_calls: int = field(default=0, compare=False)


def estimate_failure_prob(n: int, k: int, graph_trials: int, seed: int) -> FailureEstimate:
    """Fraction of independently drawn side-balanced graphs of total size n
    failing the order-k extension property, with a 95% binomial half-width.

    Each trial derives its own counter-based seed, so aggregates do not
    depend on evaluation order, and checks its graph exactly.  A size whose
    exact check would enumerate more than ``DEFAULT_THETA_BUDGET`` set
    triples on a side is refused before any graph is drawn.
    """
    if graph_trials < 1:
        raise ValueError("need at least one trial")
    m_left, m_right = _side_sizes(n)
    _check_cells([(m_left, m_right)])
    _check_order(k, m_left)
    count = _config_count(m_left, k)  # the left side is the larger one
    if count > DEFAULT_THETA_BUDGET:
        raise ThetaBudgetError(f"{count} set triples exceed budget {DEFAULT_THETA_BUDGET}")
    failures = blocks = kernel_calls = 0
    for t in range(graph_trials):
        trial_seed = _mix(_mix(np.array([t + 1], dtype=np.uint64)) ^ np.uint64(seed % 2**64))
        report = check_theta(random_graph(m_left, m_right, int(trial_seed[0])), k)
        failures += not report.holds
        blocks += report.blocks
        kernel_calls += report.kernel_calls
    rate = failures / graph_trials
    half_width = 1.96 * math.sqrt(rate * (1.0 - rate) / graph_trials)
    return FailureEstimate(n, k, graph_trials, failures, rate, half_width, blocks, kernel_calls)
