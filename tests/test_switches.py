import itertools

import pytest
from hypothesis import given
import hypothesis.strategies as st

from switchlab.graphs import ColoredBipartiteGraph, Side, VertexRef, constant_graph, new_graph
from switchlab.randomlab import random_graph
from switchlab.s3 import ALL_PERMS, IDENTITY, S3Perm, commutator, commutes, compose
from switchlab.switches import (
    SwitchOp,
    SwitchWord,
    apply_word,
    edge_kill_word,
    inverse_word,
    left_switch,
    monochromatize,
    right_switch,
    word_from_json,
    word_to_json,
)

from conftest import graphs, perms


def c(s):
    return S3Perm.from_cycle_string(s)


def _reference_apply_switch(g, op):
    # the three-branch rebuild that apply_word replaced: every switch builds
    # and validates a whole new grid
    for v in op.support:
        if not g.has_vertex(v):
            raise ValueError(f"support vertex {v} not in K_{{{g.m},{g.n}}}")
    left = {v.index for v in op.support if v.side is Side.LEFT}
    right = {v.index for v in op.support if v.side is Side.RIGHT}
    img = op.sigma.image
    if not right:
        rows = tuple(
            tuple(img[c - 1] for c in row) if i in left else row
            for i, row in enumerate(g.colors)
        )
    elif not left:
        rows = tuple(
            tuple(img[c - 1] if j in right else c for j, c in enumerate(row))
            for row in g.colors
        )
    else:
        tables = ((1, 2, 3), img, compose(op.sigma, op.sigma).image)
        rows = tuple(
            tuple(
                tables[(i in left) + (j in right)][c - 1] for j, c in enumerate(row)
            )
            for i, row in enumerate(g.colors)
        )
    return ColoredBipartiteGraph(g.m, g.n, rows)


def _reference_apply_word(g, word):
    for op in word.ops:
        g = _reference_apply_switch(g, op)
    return g


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@st.composite
def words(draw, g, max_ops=5):
    """Words whose supports mix sides, may hold both endpoints of an edge or
    be empty; sometimes one switch, often not the first, names a vertex
    outside the graph."""
    ops = []
    for _ in range(draw(st.integers(0, max_ops))):
        left = draw(st.sets(st.integers(0, g.m - 1))) if g.m else set()
        right = draw(st.sets(st.integers(0, g.n - 1))) if g.n else set()
        support = {VertexRef(Side.LEFT, i) for i in left}
        support |= {VertexRef(Side.RIGHT, j) for j in right}
        ops.append(SwitchOp(frozenset(support), draw(perms)))
    if ops and draw(st.booleans()):
        side = draw(st.sampled_from([Side.LEFT, Side.RIGHT]))
        limit = g.m if side is Side.LEFT else g.n
        bad = VertexRef(side, draw(st.integers(limit, limit + 2)))
        at = draw(st.integers(0, len(ops) - 1))
        ops[at] = SwitchOp(ops[at].support | {bad}, ops[at].sigma)
    return SwitchWord(tuple(ops))


@given(graphs(max_m=6, max_n=6), st.data())
def test_apply_word_matches_reference(g, data):
    word = data.draw(words(g))
    got = _outcome(apply_word, g, word)
    assert got == _outcome(_reference_apply_word, g, word)
    if isinstance(got, ColoredBipartiteGraph):
        assert all(type(c) is int for row in got.colors for c in row)
        assert type(got.colors) is tuple and all(type(r) is tuple for r in got.colors)
    if word.ops:
        op = word.ops[0]
        one = SwitchWord((op,))
        assert _outcome(apply_word, g, one) == _outcome(_reference_apply_switch, g, op)
    else:
        assert apply_word(g, word) is g


def test_apply_word_reports_the_first_bad_switch():
    g = random_graph(3, 4, 1)
    bad_right = SwitchOp(frozenset({VertexRef(Side.RIGHT, 4)}), c("(12)"))
    bad_left = left_switch(3, c("(13)"))
    word = SwitchWord((left_switch(0, c("(123)")), bad_right, bad_left))
    message = "support vertex VertexRef(side=<Side.RIGHT: 'R'>, index=4) not in K_{3,4}"
    with pytest.raises(ValueError) as exc:
        apply_word(g, word)
    assert str(exc.value) == message
    assert g == random_graph(3, 4, 1)  # the input is never mutated


def _apply_switch(g, op):
    return apply_word(g, SwitchWord((op,)))


def test_apply_switch_basic():
    k11 = new_graph(1, 1, [[1]])
    assert _apply_switch(k11, left_switch(0, c("(12)"))).colors == ((2,),)
    both = SwitchOp(
        frozenset({VertexRef(Side.LEFT, 0), VertexRef(Side.RIGHT, 0)}), c("(123)")
    )
    assert _apply_switch(k11, both).colors == ((3,),)
    g = random_graph(3, 3, 5)
    assert _apply_switch(g, left_switch(1, IDENTITY)) == g
    with pytest.raises(ValueError):
        _apply_switch(k11, left_switch(1, c("(12)")))


@given(graphs(min_m=1, min_n=1), perms, st.data())
def test_apply_switch_per_edge_law(g, sigma, data):
    lset = data.draw(st.sets(st.integers(0, g.m - 1)))
    rset = data.draw(st.sets(st.integers(0, g.n - 1)))
    support = {VertexRef(Side.LEFT, i) for i in lset} | {
        VertexRef(Side.RIGHT, j) for j in rset
    }
    out = _apply_switch(g, SwitchOp(frozenset(support), sigma))
    for i, j in g.edges():
        t = (i in lset) + (j in rset)
        want = g.colors[i][j]
        for _ in range(t):
            want = sigma(want)
        assert out.colors[i][j] == want


def test_apply_word_cancellation():
    g = random_graph(2, 3, 9)
    op = left_switch(0, c("(123)"))
    undo = left_switch(0, c("(132)"))
    assert apply_word(g, SwitchWord((op, undo))) == g
    assert apply_word(g, SwitchWord(())) == g


def test_disjoint_single_vertex_switches_commute():
    # same-side switches with disjoint supports act on disjoint edge sets
    for seed in range(20):
        g = random_graph(3, 3, seed)
        a = left_switch(0, c("(123)"))
        b = left_switch(2, c("(12)"))
        assert apply_word(g, SwitchWord((a, b))) == apply_word(g, SwitchWord((b, a)))


@given(graphs(min_m=1, min_n=1), st.data())
def test_inverse_word_round_trip(g, data):
    n_ops = data.draw(st.integers(0, 4))
    ops = []
    for _ in range(n_ops):
        side = data.draw(st.sampled_from([Side.LEFT, Side.RIGHT]))
        limit = g.m if side is Side.LEFT else g.n
        idx = data.draw(st.integers(0, limit - 1))
        ops.append(SwitchOp(frozenset({VertexRef(side, idx)}), data.draw(perms)))
    word = SwitchWord(tuple(ops))
    assert apply_word(apply_word(g, word), inverse_word(word)) == g


def test_edge_kill_word_contents():
    w = edge_kill_word(0, 1, c("(123)"), c("(12)"))
    assert w.ops == (
        left_switch(0, c("(123)")),
        right_switch(1, c("(12)")),
        left_switch(0, c("(132)")),
        right_switch(1, c("(12)")),
    )
    with pytest.raises(ValueError):
        edge_kill_word(0, 0, c("(123)"), c("(132)"))
    with pytest.raises(ValueError):
        edge_kill_word(0, 0, IDENTITY, c("(12)"))


def test_edge_kill_example():
    g = constant_graph(2, 2, 1)
    out = apply_word(g, edge_kill_word(0, 0, c("(123)"), c("(12)")))
    assert out.colors == ((3, 1), (1, 1))
    # row-only and column-only edges cancel
    assert out.colors[0][1] == 1
    assert out.colors[1][0] == 1


def test_edge_kill_locality_all_noncommuting_pairs():
    g = random_graph(2, 2, 3)
    pairs = [
        (f, gp)
        for f, gp in itertools.product(ALL_PERMS, repeat=2)
        if not commutes(f, gp)
    ]
    assert len(pairs) == 18
    for x, y in g.edges():
        for f, gp in pairs:
            out = apply_word(g, edge_kill_word(x, y, f, gp))
            gamma = commutator(f, gp)
            for i, j in g.edges():
                expected = gamma(g.colors[i][j]) if (i, j) == (x, y) else g.colors[i][j]
                assert out.colors[i][j] == expected


def test_monochromatize_examples():
    assert monochromatize(constant_graph(2, 3, 2), 2) == SwitchWord(())
    g = new_graph(1, 1, [[2]])
    word = monochromatize(g, 1)
    assert apply_word(g, word).colors == ((1,),)
    g = random_graph(3, 3, 7)
    word = monochromatize(g, 1)
    out = apply_word(g, word)
    assert out == constant_graph(3, 3, 1)
    off = sum(1 for i, j in g.edges() if g.colors[i][j] != 1)
    assert len(word) <= 8 * off
    with pytest.raises(ValueError):
        monochromatize(g, 4)


@given(graphs(min_m=1, min_n=1), st.integers(1, 3))
def test_monochromatize_property(g, target):
    word = monochromatize(g, target)
    assert apply_word(g, word) == constant_graph(g.m, g.n, target)
    off = sum(1 for i, j in g.edges() if g.colors[i][j] != target)
    assert len(word) <= 8 * off


def test_word_json_round_trip():
    word = SwitchWord(
        (
            left_switch(0, c("(12)")),
            SwitchOp(
                frozenset({VertexRef(Side.LEFT, 1), VertexRef(Side.RIGHT, 0)}),
                c("(123)"),
            ),
        )
    )
    data = word_to_json(word)
    assert data[0] == {"support": [{"side": "L", "i": 0}], "sigma": "(12)"}
    assert word_from_json(data) == word
    with pytest.raises(ValueError):
        word_from_json({"not": "a list"})
    with pytest.raises(ValueError):
        word_from_json([{"support": [{"side": "X", "i": 0}], "sigma": "(12)"}])
    for bad in (
        [{"support": [{"side": "L", "i": True}], "sigma": "(12)"}],
        [{"support": [{"side": "L", "i": 1.0}], "sigma": "(12)"}],
        [{"support": 5, "sigma": "(12)"}],
        [{"support": [], "sigma": 5}],
    ):
        with pytest.raises(ValueError):
            word_from_json(bad)
