"""Switch operators: recoloring actions on the cross edges of K_{m,n}.

A switch carries a support set of vertices and a color permutation sigma.
An edge is recolored by sigma once per endpoint inside the support, so by
sigma for one endpoint and sigma^2 for two.  Words compose switches first to
last.  Operators never mutate their input graph.  Words may share op
instances, which are immutable; each operator builds, checks, inverts or
formats every distinct instance once per call, keyed by ``id`` while the word
holds it.

Word JSON format: ``[{"support": [{"side": "L", "i": 0}, ...], "sigma": "(12)"},
...]``, applied first to last.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import ColoredBipartiteGraph, Side, VertexRef
from .s3 import S3Perm, commutator, commutes, inverse

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


@dataclass(frozen=True)
class SwitchWord:
    """An ordered composition of switches, applied first to last."""

    ops: tuple[SwitchOp, ...]

    def __len__(self) -> int:
        return len(self.ops)


def left_switch(index: int, sigma: S3Perm) -> SwitchOp:
    return SwitchOp(frozenset({VertexRef(Side.LEFT, index)}), sigma)


def right_switch(index: int, sigma: S3Perm) -> SwitchOp:
    return SwitchOp(frozenset({VertexRef(Side.RIGHT, index)}), sigma)


def apply_word(g: ColoredBipartiteGraph, word: SwitchWord) -> ColoredBipartiteGraph:
    """Apply the switches first to last on one working copy of the colors.

    A switch recolors the rows of its left support and the columns of its
    right support in place, so an edge with both endpoints inside gets sigma
    twice.  Every support is checked, in word order, before any is applied.
    """
    if not word.ops:
        return g
    plans = {}  # id(op) -> (lut with lut[c] = sigma(c), support), once the support is checked
    for op in word.ops:
        if id(op) not in plans:
            for v in op.support:
                if not g.has_vertex(v):
                    raise ValueError(f"support vertex {v} not in K_{{{g.m},{g.n}}}")
            plans[id(op)] = ((0, *op.sigma.image), op.support)
    rows = [list(row) for row in g.colors]
    left = Side.LEFT
    for op in word.ops:
        lut, support = plans[id(op)]
        for v in support:
            if v.side is left:
                rows[v.index] = [lut[c] for c in rows[v.index]]
            else:
                k = v.index
                for row in rows:
                    row[k] = lut[row[k]]
    return ColoredBipartiteGraph(g.m, g.n, tuple(map(bytes, rows)))


def inverse_word(word: SwitchWord) -> SwitchWord:
    """Reversed word with inverted permutations; undoes ``word`` on any graph."""
    inverted = {}  # id(op) -> its inverse
    for op in word.ops:
        if id(op) not in inverted:
            inverted[id(op)] = SwitchOp(op.support, inverse(op.sigma))
    return SwitchWord(tuple(inverted[id(op)] for op in reversed(word.ops)))


def edge_kill_word(x: int, y: int, f: S3Perm, gp: S3Perm) -> SwitchWord:
    """The four-switch word that recolors exactly edge (x, y).

    Switching left x by f, right y by gp, left x by f^-1 and right y by gp^-1
    cancels everywhere except on (x, y), whose color moves by the commutator
    of (f, gp).  Requires a non-commuting pair, else the word is globally
    trivial.
    """
    if commutes(f, gp):
        raise ValueError("permutations commute; the word would recolor nothing")
    left, right = frozenset({VertexRef(Side.LEFT, x)}), frozenset({VertexRef(Side.RIGHT, y)})
    return SwitchWord((SwitchOp(left, f), SwitchOp(right, gp),
                       SwitchOp(left, inverse(f)), SwitchOp(right, inverse(gp))))


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
    gamma = commutator(MONO_F, MONO_G)
    # the kill word of edge (i, j) is (f_i, g_j, f_i^-1, g_j^-1), as edge_kill_word builds it
    rows = [(left_switch(i, MONO_F), left_switch(i, inverse(MONO_F))) for i in range(g.m)]
    cols = [(right_switch(j, MONO_G), right_switch(j, inverse(MONO_G))) for j in range(g.n)]
    ops: list[SwitchOp] = []
    for (f, f_back), colors in zip(rows, g.colors):
        for (gp, gp_back), c in zip(cols, colors):
            if c != target:
                ops.extend((f, gp, f_back, gp_back) * (1 if gamma(c) == target else 2))
    return SwitchWord(tuple(ops))


def word_to_json(word: SwitchWord) -> list:
    """Fresh dicts for every entry, so a caller may edit one without touching
    the others; each distinct op is sorted and formatted once."""
    fields = {}  # id(op) -> (support dicts to copy, cycle string)
    for op in word.ops:
        if id(op) not in fields:
            support = [{"side": v.side.value, "i": v.index} for v in sorted(op.support)]
            fields[id(op)] = (support, op.sigma.cycle_string())
    return [
        {"support": [v.copy() for v in support], "sigma": sigma}
        for support, sigma in [fields[id(op)] for op in word.ops]
    ]


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
        ops.append(built[key])
    return SwitchWord(tuple(ops))
