"""Switch operators: recoloring actions on the cross edges of K_{m,n}.

A switch carries a support set of vertices and a color permutation sigma.
An edge is recolored by sigma once per endpoint inside the support, so by
sigma for one endpoint and sigma^2 for two.  Words compose switches first to
last.  Operators never mutate their input graph.  Words may share op
instances, which are immutable; an instance finds its inverse (for one vertex,
the interned switch) and JSON fields once, and ``apply_word`` checks it once
per call.  ``left_switch`` and ``right_switch`` hand out one shared instance
per (vertex, sigma) while it stays in their bounded caches, so the words of
``edge_kill_word`` and ``monochromatize`` repeat instances, not equal copies.

Word JSON format: ``[{"support": [{"side": "L", "i": 0}, ...], "sigma": "(12)"},
...]``, applied first to last; each encoded entry is a fresh dict.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .graphs import ColoredBipartiteGraph, Side, VertexRef
from .s3 import ALL_PERMS, S3Perm, commutator, commutes, inverse

__all__ = [
    "SwitchOp",
    "SwitchWord",
    "left_switch",
    "right_switch",
    "apply_word",
    "inverse_word",
    "edge_kill_word",
    "monochromatize",
    "MONO_F",
    "MONO_G",
    "word_to_json",
    "word_from_json",
]


@dataclass(frozen=True)
class SwitchOp:
    """Recolor every cross edge once per endpoint lying in ``support``."""

    support: frozenset[VertexRef]
    sigma: S3Perm

    @functools.cached_property
    def _inverse(self) -> SwitchOp:
        """The switch that undoes this one; for one vertex, the interned switch."""
        if len(self.support) != 1:
            return SwitchOp(self.support, inverse(self.sigma))
        (v,) = self.support
        return (left_switch if v.side is Side.LEFT else right_switch)(v.index, inverse(self.sigma))

    @functools.cached_property
    def _json(self) -> tuple:
        """(side, i, cycle string) of one vertex, else sorted (side, i) pairs and cycle string."""
        pairs = tuple((v.side.value, v.index) for v in sorted(self.support))
        return (*pairs[0], self.sigma.cycle_string()) if len(pairs) == 1 else (pairs, self.sigma.cycle_string())


@dataclass(frozen=True)
class SwitchWord:
    """An ordered composition of switches, applied first to last."""

    ops: tuple[SwitchOp, ...]

    def __len__(self) -> int:
        return len(self.ops)


#: Vertex switches each of ``left_switch`` and ``right_switch`` keeps; one
#: instance per (vertex, sigma) lets word operators share the work of an op.
_SWITCH_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=_SWITCH_CACHE_SIZE)
def left_switch(index: int, sigma: S3Perm) -> SwitchOp:
    return SwitchOp(frozenset({VertexRef(Side.LEFT, index)}), sigma)


@functools.lru_cache(maxsize=_SWITCH_CACHE_SIZE)
def right_switch(index: int, sigma: S3Perm) -> SwitchOp:
    return SwitchOp(frozenset({VertexRef(Side.RIGHT, index)}), sigma)


#: ``bytes.translate`` tables by image: color byte c becomes sigma(c).
_TABLES = {p.image: bytes((0, *p.image, *range(4, 256))) for p in ALL_PERMS}


def apply_word(g: ColoredBipartiteGraph, word: SwitchWord) -> ColoredBipartiteGraph:
    """Apply the switches first to last on one row-major copy of the colors.

    A switch translates the row slice of each left support vertex and the
    column slice (stride n) of each right one, so an edge with both endpoints
    inside gets sigma twice.  Every support is checked, in word order, before
    any is applied.
    """
    if not word.ops:
        return g
    m, n = g.m, g.n
    plans = {}  # id(op) -> (translate table, slices of its support), once the support is checked
    for op in word.ops:
        if id(op) not in plans:
            slices = []
            for v in op.support:
                if not g.has_vertex(v):
                    raise ValueError(f"support vertex {v} not in K_{{{m},{n}}}")
                i = v.index
                slices.append(slice(i * n, i * n + n) if v.side is Side.LEFT else slice(i, None, n))
            plans[id(op)] = (_TABLES[op.sigma.image], slices)
    flat = bytearray().join(g.colors)
    for op in word.ops:
        table, slices = plans[id(op)]
        for s in slices:
            flat[s] = flat[s].translate(table)
    data = bytes(flat)
    return ColoredBipartiteGraph(m, n, [data[i * n:i * n + n] for i in range(m)])


def inverse_word(word: SwitchWord) -> SwitchWord:
    """Reversed word with inverted permutations; undoes ``word`` on any graph."""
    return SwitchWord(tuple([op._inverse for op in reversed(word.ops)]))


def edge_kill_word(x: int, y: int, f: S3Perm, gp: S3Perm) -> SwitchWord:
    """The four-switch word that recolors exactly edge (x, y).

    Switching left x by f, right y by gp, left x by f^-1 and right y by gp^-1
    cancels everywhere except on (x, y), whose color moves by the commutator
    of (f, gp).  Requires a non-commuting pair, else the word is globally
    trivial.
    """
    if commutes(f, gp):
        raise ValueError("permutations commute; the word would recolor nothing")
    return SwitchWord((left_switch(x, f), right_switch(y, gp),
                       left_switch(x, inverse(f)), right_switch(y, inverse(gp))))


#: Non-commuting pair driving monochromatization; its commutator is a 3-cycle,
#: so one or two edge kills reach any target color.
MONO_F = S3Perm.from_cycle_string("(123)")
MONO_G = S3Perm.from_cycle_string("(12)")


def monochromatize(g: ColoredBipartiteGraph, target: int) -> SwitchWord:
    """A word whose application recolors every edge to ``target``.

    Edges are processed in row-major order; each off-target edge costs at most
    two edge kills (8 switches), since edge kills touch no other edge.
    """
    if target not in (1, 2, 3):
        raise ValueError(f"color out of range: {target!r}")
    if g.n == 0:  # no edges, so no pass over the rows
        return SwitchWord(())
    gamma = commutator(MONO_F, MONO_G)
    f_inv, g_inv = inverse(MONO_F), inverse(MONO_G)
    # the kill word of edge (i, j) is (f_i, g_j, f_i^-1, g_j^-1), as edge_kill_word
    # builds it; a vertex's pair is taken once, when an off-target edge first needs it
    cols: dict[int, tuple[SwitchOp, SwitchOp]] = {}
    ops: list[SwitchOp] = []
    for i, colors in enumerate(g.colors):
        if colors.count(target) == g.n:
            continue
        f, f_back = left_switch(i, MONO_F), left_switch(i, f_inv)
        for j, c in enumerate(colors):
            if c != target:
                if j not in cols:
                    cols[j] = (right_switch(j, MONO_G), right_switch(j, g_inv))
                gp, gp_back = cols[j]
                ops.extend((f, gp, f_back, gp_back) * (1 if gamma(c) == target else 2))
    return SwitchWord(tuple(ops))


def word_to_json(word: SwitchWord) -> list:
    """Fresh dicts for every entry, so a caller may edit one without touching
    the others; each op instance is sorted and formatted once."""
    return [{"support": [{"side": f[0], "i": f[1]}], "sigma": f[2]} if len(f) == 3 else
            {"support": [{"side": side, "i": i} for side, i in f[0]], "sigma": f[1]}
            for f in [op._json for op in word.ops]]


_SIDES = {side.value: side for side in Side}


def word_from_json(data) -> SwitchWord:
    if not isinstance(data, list):
        raise ValueError("word JSON must be a list of switch objects")
    built: dict[tuple, SwitchOp] = {}  # one op per distinct (sigma, support) entry
    ops = []
    for entry in data:
        try:
            raw_support, raw_sigma = entry["support"], entry["sigma"]
        except (KeyError, TypeError):
            raise ValueError('each switch needs keys "support" and "sigma"') from None
        if not isinstance(raw_support, list) or not isinstance(raw_sigma, str):
            raise ValueError(f"malformed switch entry: {entry!r}")
        # a checked one-vertex entry is also kept by (sigma, side, i), so a
        # repeat skips the checks; the exact types keep True off the key of 1
        item = raw_support[0] if len(raw_support) == 1 else None
        one = (raw_sigma, item.get("side"), item.get("i")) if type(item) is dict else None
        if one and type(one[1]) is str and type(one[2]) is int and one in built:
            ops.append(built[one])
            continue
        sigma = S3Perm.from_cycle_string(raw_sigma)
        support = []
        for item in raw_support:
            try:
                side = _SIDES[item["side"]]
                index = item["i"]
            except (KeyError, TypeError):
                raise ValueError(f"malformed support entry: {item!r}") from None
            if type(index) is not int:  # bool is a subclass of int
                raise ValueError(f"malformed support entry: {item!r}")
            if index < 0:
                VertexRef(side, index)  # raises its negative-index error
            support.append((side, index))
        key = (raw_sigma, tuple(support))
        if key not in built:
            built[key] = SwitchOp(frozenset(VertexRef(*v) for v in support), sigma)
        if one:
            built[one] = built[key]
        ops.append(built[key])
    return SwitchWord(tuple(ops))
