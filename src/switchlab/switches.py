"""Switch operators: recoloring actions on the cross edges of K_{m,n}.

A switch carries a support set of vertices and a color permutation sigma.
An edge is recolored by sigma once per endpoint inside the support, so by
sigma for one endpoint and sigma^2 for two.  Words compose switches first to
last.  Operators never mutate their input graph.

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
    twice.  Each switch's support is checked before it is applied.
    """
    if not word.ops:
        return g
    rows = [list(row) for row in g.colors]
    for op in word.ops:
        for v in op.support:
            if not g.has_vertex(v):
                raise ValueError(f"support vertex {v} not in K_{{{g.m},{g.n}}}")
        lut = (0, *op.sigma.image)  # lut[c] is sigma(c)
        for v in op.support:
            if v.side is Side.LEFT:
                rows[v.index] = [lut[c] for c in rows[v.index]]
            else:
                for row in rows:
                    row[v.index] = lut[row[v.index]]
    return ColoredBipartiteGraph(g.m, g.n, tuple(map(tuple, rows)))


def inverse_word(word: SwitchWord) -> SwitchWord:
    """Reversed word with inverted permutations; undoes ``word`` on any graph."""
    return SwitchWord(
        tuple(SwitchOp(op.support, inverse(op.sigma)) for op in reversed(word.ops))
    )


def edge_kill_word(x: int, y: int, f: S3Perm, gp: S3Perm) -> SwitchWord:
    """The four-switch word that recolors exactly edge (x, y).

    Switching left x by f, right y by gp, left x by f^-1 and right y by gp^-1
    cancels everywhere except on (x, y), whose color moves by the commutator
    of (f, gp).  Requires a non-commuting pair, else the word is globally
    trivial.
    """
    if commutes(f, gp):
        raise ValueError("permutations commute; the word would recolor nothing")
    return SwitchWord(
        (
            left_switch(x, f),
            right_switch(y, gp),
            left_switch(x, inverse(f)),
            right_switch(y, inverse(gp)),
        )
    )


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
    ops: list[SwitchOp] = []
    for i in range(g.m):
        for j in range(g.n):
            c = g.colors[i][j]
            if c == target:
                continue
            hops = 1 if gamma(c) == target else 2
            ops.extend(edge_kill_word(i, j, MONO_F, MONO_G).ops * hops)
    return SwitchWord(tuple(ops))


def word_to_json(word: SwitchWord) -> list:
    return [
        {
            "support": [{"side": v.side.value, "i": v.index} for v in sorted(op.support)],
            "sigma": op.sigma.cycle_string(),
        }
        for op in word.ops
    ]


def word_from_json(data) -> SwitchWord:
    if not isinstance(data, list):
        raise ValueError("word JSON must be a list of switch objects")
    ops = []
    for entry in data:
        try:
            raw_support, raw_sigma = entry["support"], entry["sigma"]
        except (KeyError, TypeError):
            raise ValueError('each switch needs keys "support" and "sigma"') from None
        if not isinstance(raw_support, list) or not isinstance(raw_sigma, str):
            raise ValueError(f"malformed switch entry: {entry!r}")
        sigma = S3Perm.from_cycle_string(raw_sigma)
        support = set()
        for item in raw_support:
            try:
                side = Side(item["side"])
                index = item["i"]
            except (KeyError, TypeError, ValueError):
                raise ValueError(f"malformed support entry: {item!r}") from None
            if type(index) is not int:  # bool is a subclass of int
                raise ValueError(f"malformed support entry: {item!r}")
            support.add(VertexRef(side, index))
        ops.append(SwitchOp(frozenset(support), sigma))
    return SwitchWord(tuple(ops))
