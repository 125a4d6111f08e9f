"""Finite 3-colored complete bipartite graphs and their coloring predicates.

A graph K_{m,n} has m left vertices, n right vertices, and a total coloring
of the m*n cross edges by colors 1, 2, 3.  Same-side pairs carry no edges.
All values are immutable; every operation is a pure function, so everything
here is safe to share across threads.

A graph stores its coloring once, as m ``bytes`` rows of n values 1..3, so
``colors[i][j]`` is the color of edge (left i, right j) as an ``int`` and
``b"".join(colors)`` is the row-major buffer numpy reads.  Rows become lists
only in ``graph_to_json``: ``{"m": int, "n": int, "colors": [[int, ...], ...]}``.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .s3 import ALL_PERMS, S3Perm

__all__ = [
    "COLORS",
    "Side",
    "VertexRef",
    "ColoredBipartiteGraph",
    "IsoWitness",
    "new_graph",
    "constant_graph",
    "swap_sides",
    "is_isomorphic",
    "verify_iso_witness",
    "is_homogeneous",
    "pointwise_color_permutation",
    "collapse_witness",
    "graph_to_json",
    "graph_from_json",
]

COLORS = (1, 2, 3)
_COLOR_BYTES = bytes(COLORS)


class Side(str, Enum):
    LEFT = "L"
    RIGHT = "R"

    def other(self) -> "Side":
        return Side.RIGHT if self is Side.LEFT else Side.LEFT


@dataclass(frozen=True, order=True)
class VertexRef:
    """A vertex addressed by side and dense per-side index."""

    side: Side
    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"negative vertex index: {self.index}")


@dataclass(frozen=True)
class ColoredBipartiteGraph:
    """K_{m,n} with a total 3-coloring of its cross edges.

    ``colors``, any nested sequence of m rows of n colors, is stored as bytes
    rows; every (i, j) carries exactly one color, which is the totality invariant.
    """

    m: int
    n: int
    colors: tuple[bytes, ...]

    def __post_init__(self) -> None:
        if self.m < 0 or self.n < 0:
            raise ValueError("side cardinalities must be nonnegative")
        if len(self.colors) != self.m:
            raise ValueError(f"expected {self.m} rows, got {len(self.colors)}")
        object.__setattr__(self, "colors", _color_rows(self.colors, self.n))

    def side_size(self, side: Side) -> int:
        return self.m if side is Side.LEFT else self.n

    def has_vertex(self, v: VertexRef) -> bool:
        return v.index < self.side_size(v.side)

    def edges(self):
        return itertools.product(range(self.m), range(self.n))


def _color_rows(rows, n: int) -> tuple[bytes, ...]:
    """Validated bytes rows: one length pass and one validating join when every
    row is exactly ``bytes``, a few C-level passes when every row holds n small
    ints, else a scan that names the first bad length or cell or stores each as
    its color."""
    try:
        exact = set(map(type, rows)) <= {bytes}
        if exact or set(map(len, rows)) <= {n}:  # first: bytes(k) of an int row k allocates k bytes
            data = tuple(rows) if exact else tuple(map(bytes, rows))
            if set(map(len, data)) <= {n} and not b"".join(data).translate(None, _COLOR_BYTES):
                return data
    except (TypeError, ValueError):  # a row without a length, or a cell no byte holds
        pass
    for row in rows:
        if len(row) != n:
            raise ValueError(f"expected rows of length {n}, got {len(row)}")
        for c in row:
            if c not in COLORS:
                raise ValueError(f"color out of range: {c!r}")
    return tuple(bytes(COLORS.index(c) + 1 for c in row) for row in rows)


def new_graph(m: int, n: int, colors) -> ColoredBipartiteGraph:
    """Build a graph from any nested sequence of colors, validating shape."""
    return ColoredBipartiteGraph(m, n, tuple(colors))


def constant_graph(m: int, n: int, color: int) -> ColoredBipartiteGraph:
    return new_graph(m, n, [[color] * n for _ in range(m)])


def _columns(rows, n: int) -> tuple[bytes, ...]:
    """The n columns of byte rows, as byte rows."""
    flat = b"".join(rows)
    return tuple(flat[j::n] for j in range(n))


def swap_sides(g: ColoredBipartiteGraph) -> ColoredBipartiteGraph:
    """Exchange the two sides; the coloring transposes.  An involution."""
    return ColoredBipartiteGraph(g.n, g.m, _columns(g.colors, g.n))


@dataclass(frozen=True)
class IsoWitness:
    """A color-preserving bijection pair.

    If ``swapped`` is False, left_map sends g1's left vertices to g2's left
    vertices (right_map likewise) and g2[left_map[i]][right_map[j]] equals
    g1[i][j].  If True, left_map sends g1's left vertices to g2's *right*
    vertices, right_map sends g1's right vertices to g2's left vertices, and
    g2[right_map[j]][left_map[i]] equals g1[i][j].
    """

    left_map: tuple[int, ...]
    right_map: tuple[int, ...]
    swapped: bool = False


def verify_iso_witness(g1: ColoredBipartiteGraph, g2: ColoredBipartiteGraph, w: IsoWitness) -> bool:
    lm, rm = w.left_map, w.right_map
    if w.swapped:  # a side-preserving witness onto the swapped graph
        g2 = swap_sides(g2)
    if sorted(lm) != list(range(g2.m)) or sorted(rm) != list(range(g2.n)):
        return False
    if len(lm) != g1.m or len(rm) != g1.n:
        return False
    return all(g2.colors[lm[i]][rm[j]] == g1.colors[i][j] for i, j in g1.edges())


def _row_profile(row) -> tuple[int, int, int]:
    return (row.count(1), row.count(2), row.count(3))


def _profile_permutations(prof1: list, prof2: list, prefix: tuple = ()):
    """Row maps (row i to row perm[i]) that keep every row profile, in
    lexicographic order.  No other row map extends to an isomorphism: a
    column bijection only permutes the colors within each row."""
    if len(prefix) == len(prof1):
        yield prefix
        return
    for r, p in enumerate(prof2):
        if p == prof1[len(prefix)] and r not in prefix:
            yield from _profile_permutations(prof1, prof2, prefix + (r,))


#: Row maps the isomorphism search may try before it gives up; 8! fits.
ISO_ROW_MAP_CAP = 2**16


def _side_preserving_iso(g1: ColoredBipartiteGraph, g2: ColoredBipartiteGraph) -> IsoWitness | None:
    if (g1.m, g1.n) != (g2.m, g2.n):
        return None
    prof1 = [_row_profile(r) for r in g1.colors]
    prof2 = [_row_profile(r) for r in g2.colors]
    if sorted(prof1) != sorted(prof2):
        return None
    cols1, cols2 = _columns(g1.colors, g1.n), _columns(g2.colors, g2.n)
    if sorted(map(_row_profile, cols1)) != sorted(map(_row_profile, cols2)):
        return None
    # an isomorphism maps equal rows (columns) to equal rows (columns), both ways
    for lines1, lines2 in ((g1.colors, g2.colors), (cols1, cols2)):
        if sorted(Counter(lines1).values()) != sorted(Counter(lines2).values()):
            return None
    for tried, perm in enumerate(_profile_permutations(prof1, prof2)):
        if tried == ISO_ROW_MAP_CAP:
            raise ValueError(f"isomorphism search tried {ISO_ROW_MAP_CAP} row maps without an answer")
        # columns of g1 vs columns of g2 reindexed through the row map; each
        # column of g1 takes the first unused g2 column with its vector
        slots: dict[bytes, list[int]] = {}
        for j, col in enumerate(_columns([g2.colors[p] for p in perm], g1.n)):
            slots.setdefault(col, []).append(j)
        try:
            return IsoWitness(perm, tuple(slots[vec].pop(0) for vec in cols1), swapped=False)
        except (KeyError, IndexError):  # some column of g1 has no partner left
            continue
    return None


def is_isomorphic(
    g1: ColoredBipartiteGraph,
    g2: ColoredBipartiteGraph,
    allow_swap: bool = False,
) -> IsoWitness | None:
    """Search for a color-preserving bijection; None is a normal outcome.

    Side-preserving maps are tried first; with ``allow_swap`` a side-exchanging
    map (an isomorphism onto the swapped graph) is also tried.  Raises
    ``ValueError`` once a search has tried ``ISO_ROW_MAP_CAP`` row maps (up
    to m! when every row has the same color counts) without an answer.
    """
    witness = _side_preserving_iso(g1, g2)
    if witness is not None:
        return witness
    if allow_swap:
        w = _side_preserving_iso(g1, swap_sides(g2))
        if w is not None:
            return IsoWitness(w.left_map, w.right_map, swapped=True)
    return None


def _aligned(c1, c2) -> tuple[bytes, bytes]:
    """The row-major color values of two graphs of equal dimensions."""
    if (c1.m, c1.n) != (c2.m, c2.n):
        raise ValueError(f"domain mismatch: K_{{{c1.m},{c1.n}}} vs K_{{{c2.m},{c2.n}}}")
    return b"".join(c1.colors), b"".join(c2.colors)


def is_homogeneous(c1, c2) -> bool:
    """True iff equal c2-values force equal c1-values (vacuously on empty
    domains)."""
    v1, v2 = _aligned(c1, c2)
    return len(set(zip(v2, v1))) == len(set(v2))


def pointwise_color_permutation(c1, c2) -> S3Perm | None:
    """The first color permutation s in canonical order with c1 = s(c2)
    pointwise, if any (the identity on an empty domain)."""
    v1, v2 = _aligned(c1, c2)
    pairs = set(zip(v2, v1))
    return next((s for s in ALL_PERMS if all(s(b) == a for b, a in pairs)), None)


def collapse_witness(c1, c2) -> tuple[int, int, int] | None:
    """Two distinct colors i, j used by c2 whose edges all carry one color k
    in c1; the failure mode of homogeneous non-permutation colorings."""
    v1, v2 = _aligned(c1, c2)
    used = set(v2)
    for i, j in itertools.combinations(COLORS, 2):
        if i not in used or j not in used:
            continue
        targets = {a for a, b in zip(v1, v2) if b in (i, j)}
        if len(targets) == 1:
            return (i, j, targets.pop())
    return None


def graph_to_json(g: ColoredBipartiteGraph) -> dict:
    return {"m": g.m, "n": g.n, "colors": [list(row) for row in g.colors]}


def graph_from_json(data) -> ColoredBipartiteGraph:
    if not isinstance(data, dict):
        raise ValueError("graph JSON must be an object")
    try:
        m, n, colors = data["m"], data["n"], data["colors"]
    except (KeyError, TypeError):
        raise ValueError('graph JSON needs keys "m", "n", "colors"') from None
    # type(), not isinstance(): JSON true/false load as bool, a subclass of int
    if type(m) is not int or type(n) is not int or not isinstance(colors, list):
        raise ValueError("malformed graph JSON")
    for row in colors:  # each row's cell types listed and counted in C
        if not isinstance(row, list) or list(map(type, row)).count(int) != len(row):
            raise ValueError(f"graph JSON colors must be rows of integers, got {row!r}")
    return new_graph(m, n, colors)
