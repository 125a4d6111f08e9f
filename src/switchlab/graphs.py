"""Finite 3-colored complete bipartite graphs and their coloring predicates.

A graph K_{m,n} has m left vertices, n right vertices, and a total coloring
of the m*n cross edges by colors 1, 2, 3.  Same-side pairs carry no edges.
All values are immutable; every operation is a pure function, so everything
here is safe to share across threads.

JSON format: ``{"m": int, "n": int, "colors": [[int, ...], ...]}`` with
``colors[i][j]`` the color of the edge (left i, right j).
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
    "EdgeColoring",
    "VertexColoring",
    "IsoWitness",
    "new_graph",
    "constant_graph",
    "induced_subgraph",
    "swap_sides",
    "is_isomorphic",
    "verify_iso_witness",
    "link_coloring",
    "witnesses_all_colors",
    "is_homogeneous",
    "pointwise_color_permutation",
    "collapse_witness",
    "graph_to_json",
    "graph_from_json",
]

COLORS = (1, 2, 3)


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

    ``colors`` has m rows of n entries each; every (i, j) carries exactly one
    color by construction, which is the totality invariant.
    """

    m: int
    n: int
    colors: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.m < 0 or self.n < 0:
            raise ValueError("side cardinalities must be nonnegative")
        if len(self.colors) != self.m:
            raise ValueError(f"expected {self.m} rows, got {len(self.colors)}")
        for row in self.colors:
            if len(row) != self.n:
                raise ValueError(f"expected rows of length {self.n}, got {len(row)}")
            for c in row:
                if c not in COLORS:
                    raise ValueError(f"color out of range: {c!r}")

    def color(self, i: int, j: int) -> int:
        if not (0 <= i < self.m and 0 <= j < self.n):
            raise ValueError(f"edge ({i}, {j}) out of range for K_{{{self.m},{self.n}}}")
        return self.colors[i][j]

    def side_size(self, side: Side) -> int:
        return self.m if side is Side.LEFT else self.n

    def has_vertex(self, v: VertexRef) -> bool:
        return v.index < self.side_size(v.side)

    def edges(self):
        return itertools.product(range(self.m), range(self.n))


def new_graph(m: int, n: int, colors) -> ColoredBipartiteGraph:
    """Build a graph from any nested sequence of colors, validating shape."""
    rows = tuple(tuple(row) for row in colors)
    return ColoredBipartiteGraph(m, n, rows)


def constant_graph(m: int, n: int, color: int) -> ColoredBipartiteGraph:
    return new_graph(m, n, [[color] * n for _ in range(m)])


def induced_subgraph(g: ColoredBipartiteGraph, left_indices, right_indices) -> ColoredBipartiteGraph:
    """Restriction to the given vertex sets, renumbered order-preservingly."""
    left = sorted(set(left_indices))
    right = sorted(set(right_indices))
    if left and not (0 <= left[0] and left[-1] < g.m):
        raise ValueError("left index out of range")
    if right and not (0 <= right[0] and right[-1] < g.n):
        raise ValueError("right index out of range")
    rows = tuple(tuple(g.colors[i][j] for j in right) for i in left)
    return ColoredBipartiteGraph(len(left), len(right), rows)


def swap_sides(g: ColoredBipartiteGraph) -> ColoredBipartiteGraph:
    """Exchange the two sides; the coloring transposes.  An involution."""
    rows = tuple(tuple(g.colors[i][j] for i in range(g.m)) for j in range(g.n))
    return ColoredBipartiteGraph(g.n, g.m, rows)


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
    if w.swapped:
        if sorted(lm) != list(range(g2.n)) or sorted(rm) != list(range(g2.m)):
            return False
        if len(lm) != g1.m or len(rm) != g1.n:
            return False
        return all(g2.colors[rm[j]][lm[i]] == g1.colors[i][j] for i, j in g1.edges())
    if sorted(lm) != list(range(g2.m)) or sorted(rm) != list(range(g2.n)):
        return False
    if len(lm) != g1.m or len(rm) != g1.n:
        return False
    return all(g2.colors[lm[i]][rm[j]] == g1.colors[i][j] for i, j in g1.edges())


def _row_profile(row) -> tuple[int, int, int]:
    c = Counter(row)
    return (c[1], c[2], c[3])


def _side_preserving_iso(g1: ColoredBipartiteGraph, g2: ColoredBipartiteGraph) -> IsoWitness | None:
    if (g1.m, g1.n) != (g2.m, g2.n):
        return None
    prof1 = sorted(_row_profile(r) for r in g1.colors)
    prof2 = sorted(_row_profile(r) for r in g2.colors)
    if prof1 != prof2:
        return None
    cols1 = [tuple(g1.colors[i][j] for i in range(g1.m)) for j in range(g1.n)]
    for perm in itertools.permutations(range(g1.m)):
        # columns of g1 vs columns of g2 reindexed through the row map
        cols2 = [tuple(g2.colors[perm[i]][j] for i in range(g1.m)) for j in range(g1.n)]
        by_vec: dict[tuple, list[int]] = {}
        for j, vec in enumerate(cols2):
            by_vec.setdefault(vec, []).append(j)
        rm = [0] * g1.n
        taken: dict[tuple, int] = {}
        ok = True
        for j, vec in enumerate(cols1):
            pos = taken.get(vec, 0)
            slots = by_vec.get(vec, ())
            if pos >= len(slots):
                ok = False
                break
            rm[j] = slots[pos]
            taken[vec] = pos + 1
        if ok:
            return IsoWitness(tuple(perm), tuple(rm), swapped=False)
    return None


def is_isomorphic(
    g1: ColoredBipartiteGraph,
    g2: ColoredBipartiteGraph,
    allow_swap: bool = False,
) -> IsoWitness | None:
    """Search for a color-preserving bijection; None is a normal outcome.

    Side-preserving maps are tried first; with ``allow_swap`` a side-exchanging
    map (an isomorphism onto the swapped graph) is also tried.
    """
    witness = _side_preserving_iso(g1, g2)
    if witness is not None:
        return witness
    if allow_swap:
        w = _side_preserving_iso(g1, swap_sides(g2))
        if w is not None:
            return IsoWitness(w.left_map, w.right_map, swapped=True)
    return None


@dataclass(frozen=True)
class EdgeColoring:
    """Total labeling of all vertex pairs: same-side pairs get the side tag
    ("l" or "r"), cross pairs get their edge color."""

    m: int
    n: int
    cross: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_graph(g: ColoredBipartiteGraph) -> "EdgeColoring":
        return EdgeColoring(g.m, g.n, g.colors)

    def label(self, u: VertexRef, v: VertexRef):
        for w in (u, v):
            limit = self.m if w.side is Side.LEFT else self.n
            if w.index >= limit:
                raise ValueError(f"vertex {w} out of range")
        if u.side == v.side:
            return "l" if u.side is Side.LEFT else "r"
        if u.side is Side.RIGHT:
            u, v = v, u
        return self.cross[u.index][v.index]


@dataclass(frozen=True)
class VertexColoring:
    """Labels on one side's vertices; label i stands for edge color i seen
    through a link vertex on the other side."""

    side: Side
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        for c in self.labels:
            if c not in COLORS:
                raise ValueError(f"label out of range: {c!r}")


def link_coloring(g: ColoredBipartiteGraph, v: VertexRef) -> VertexColoring:
    """Coloring of the opposite side induced by the edges at ``v``."""
    if not g.has_vertex(v):
        raise ValueError(f"vertex {v} not in K_{{{g.m},{g.n}}}")
    if v.side is Side.LEFT:
        return VertexColoring(Side.RIGHT, g.colors[v.index])
    return VertexColoring(Side.LEFT, tuple(g.colors[i][v.index] for i in range(g.m)))


def witnesses_all_colors(g: ColoredBipartiteGraph) -> bool:
    """True iff each of the three colors occurs on some cross edge."""
    seen = set()
    for i, j in g.edges():
        seen.add(g.colors[i][j])
        if len(seen) == 3:
            return True
    return False


def _flat_values(c) -> tuple[tuple, tuple[int, ...]]:
    """Return (domain signature, color value sequence) for a coloring.

    Colorings over the same domain are comparable: two edge colorings (graphs
    or EdgeColoring wrappers) of equal dimensions, or two vertex colorings of
    the same side and length.  Side tags of edge colorings agree by
    construction whenever the dimensions agree, so only color values remain.
    """
    if isinstance(c, ColoredBipartiteGraph):
        return (("edges", c.m, c.n), tuple(v for row in c.colors for v in row))
    if isinstance(c, EdgeColoring):
        return (("edges", c.m, c.n), tuple(v for row in c.cross for v in row))
    if isinstance(c, VertexColoring):
        return (("vertices", c.side, len(c.labels)), c.labels)
    raise TypeError(f"not a coloring: {c!r}")


def _aligned(c1, c2) -> tuple[tuple[int, ...], tuple[int, ...]]:
    sig1, v1 = _flat_values(c1)
    sig2, v2 = _flat_values(c2)
    if sig1 != sig2:
        raise ValueError(f"domain mismatch: {sig1} vs {sig2}")
    return v1, v2


def is_homogeneous(c1, c2) -> bool:
    """True iff equal c2-values force equal c1-values (vacuously on empty
    domains)."""
    v1, v2 = _aligned(c1, c2)
    image: dict[int, int] = {}
    for a, b in zip(v1, v2):
        if image.setdefault(b, a) != a:
            return False
    return True


def pointwise_color_permutation(c1, c2) -> S3Perm | None:
    """A color permutation s with c1 = s(c2) pointwise, if one exists.

    The map induced on the colors c2 actually uses must be consistent and
    injective; it is then extended to a full permutation, choosing the first
    extension in canonical order (the identity on an empty domain).
    """
    v1, v2 = _aligned(c1, c2)
    partial: dict[int, int] = {}
    for a, b in zip(v1, v2):
        if partial.setdefault(b, a) != a:
            return None
    if len(set(partial.values())) != len(partial):
        return None
    for sigma in ALL_PERMS:
        if all(sigma(b) == a for b, a in partial.items()):
            return sigma
    return None


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
    for row in colors:
        if not isinstance(row, list) or any(type(c) is not int for c in row):
            raise ValueError(f"graph JSON colors must be rows of integers, got {row!r}")
    return new_graph(m, n, colors)
