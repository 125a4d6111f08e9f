import itertools
import json
import time
import tracemalloc

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from switchlab.graphs import ColoredBipartiteGraph, Side, VertexRef, constant_graph, new_graph
from switchlab.randomlab import random_graph
from switchlab.s3 import ALL_PERMS, IDENTITY, S3Perm, commutator, commutes, compose, inverse
from switchlab.switches import (
    MONO_F,
    MONO_G,
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


@st.composite
def graphs_with_words(draw):
    g = draw(graphs(max_m=6, max_n=6))
    return g, draw(words(g))


_L0, _R0 = VertexRef(Side.LEFT, 0), VertexRef(Side.RIGHT, 0)


@given(graphs_with_words())
# the degenerate slice shapes: empty rows, empty columns, no cell at all, and
# a lone edge with both endpoints in the support
@example((new_graph(0, 5, []), SwitchWord((right_switch(3, c("(123)")), right_switch(0, c("(12)"))))))
@example((new_graph(5, 0, [[]] * 5), SwitchWord((left_switch(4, c("(13)")), left_switch(0, c("(132)"))))))
@example((new_graph(0, 0, []), SwitchWord((right_switch(0, c("(12)")),))))
@example((new_graph(1, 1, [[2]]), SwitchWord((SwitchOp(frozenset({_L0, _R0}), c("(123)")),))))
def test_apply_word_matches_reference(case):
    g, word = case
    got = _outcome(apply_word, g, word)
    assert got == _outcome(_reference_apply_word, g, word)
    if isinstance(got, ColoredBipartiteGraph):
        assert all(type(c) is int for row in got.colors for c in row)
        assert type(got.colors) is tuple and all(type(r) is bytes for r in got.colors)
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
    assert tuple(map(tuple, _apply_switch(k11, left_switch(0, c("(12)"))).colors)) == ((2,),)
    both = SwitchOp(
        frozenset({VertexRef(Side.LEFT, 0), VertexRef(Side.RIGHT, 0)}), c("(123)")
    )
    assert tuple(map(tuple, _apply_switch(k11, both).colors)) == ((3,),)
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
    assert tuple(map(tuple, out.colors)) == ((3, 1), (1, 1))
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
    assert tuple(map(tuple, apply_word(g, word).colors)) == ((1,),)
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


# The operators before they built each distinct switch once: references for
# the memoized ones, which must give equal words and identical JSON bytes.


def _reference_inverse_word(word):
    return SwitchWord(
        tuple(SwitchOp(op.support, inverse(op.sigma)) for op in reversed(word.ops))
    )


def _reference_monochromatize(g, target):
    if target not in (1, 2, 3):
        raise ValueError(f"color out of range: {target!r}")
    gamma = commutator(MONO_F, MONO_G)
    ops = []
    for i in range(g.m):
        for j in range(g.n):
            c = g.colors[i][j]
            if c == target:
                continue
            hops = 1 if gamma(c) == target else 2
            ops.extend(edge_kill_word(i, j, MONO_F, MONO_G).ops * hops)
    return SwitchWord(tuple(ops))


def _reference_word_to_json(word):
    return [
        {
            "support": [{"side": v.side.value, "i": v.index} for v in sorted(op.support)],
            "sigma": op.sigma.cycle_string(),
        }
        for op in word.ops
    ]


def _reference_word_from_json(data):
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
            if type(index) is not int:
                raise ValueError(f"malformed support entry: {item!r}")
            support.add(VertexRef(side, index))
        ops.append(SwitchOp(frozenset(support), sigma))
    return SwitchWord(tuple(ops))


@st.composite
def shared_words(draw, g):
    """Words over a pool of switches whose supports hold several vertices of
    either side (or none).  Pool instances repeat at several positions, some
    positions get an equal but distinct copy, and a pool switch may name a
    vertex outside the graph, so the first bad switch sits anywhere."""
    pool = []
    for _ in range(draw(st.integers(1, 4))):
        left = draw(st.sets(st.integers(0, g.m - 1), max_size=3)) if g.m else set()
        right = draw(st.sets(st.integers(0, g.n - 1), max_size=3)) if g.n else set()
        support = {VertexRef(Side.LEFT, i) for i in left}
        support |= {VertexRef(Side.RIGHT, j) for j in right}
        if draw(st.integers(0, 3)) == 0:
            side = draw(st.sampled_from([Side.LEFT, Side.RIGHT]))
            limit = g.m if side is Side.LEFT else g.n
            support.add(VertexRef(side, draw(st.integers(limit, limit + 2))))
        pool.append(SwitchOp(frozenset(support), draw(perms)))
    ops = []
    for at in draw(st.lists(st.integers(0, len(pool) - 1), max_size=12)):
        op = pool[at]
        if draw(st.integers(0, 3)) == 0:
            op = SwitchOp(frozenset(VertexRef(v.side, v.index) for v in op.support), op.sigma)
        ops.append(op)
    return SwitchWord(tuple(ops))


@given(graphs(max_m=5, max_n=5), st.data())
def test_word_operators_match_references(g, data):
    word = data.draw(shared_words(g))
    doc = word_to_json(word)
    assert json.dumps(doc) == json.dumps(_reference_word_to_json(word))
    assert word_from_json(doc) == _reference_word_from_json(doc) == word
    inv = inverse_word(word)
    assert inv == _reference_inverse_word(word)
    for w in (word, inv):
        assert _outcome(apply_word, g, w) == _outcome(_reference_apply_word, g, w)
    if doc:
        # every entry is fresh: editing one, down to its vertex dicts, leaves
        # the others as they were
        at = data.draw(st.integers(0, len(doc) - 1))
        for v in doc[at]["support"]:
            v["i"] = 99
        doc[at]["support"].append({"side": "R", "i": 98})
        doc[at]["sigma"] = "()"
        fresh = word_to_json(word)
        assert doc[:at] + doc[at + 1:] == fresh[:at] + fresh[at + 1:]


_VERTEX = st.fixed_dictionaries({"side": st.sampled_from(["L", "R"]), "i": st.integers(0, 5)})
_SUPPORT_ITEMS = st.one_of(
    _VERTEX,
    _VERTEX,
    _VERTEX,
    st.fixed_dictionaries({"side": st.sampled_from(["L", "R"]), "i": st.integers(-2, -1)}),
    st.sampled_from([
        {"side": "X", "i": 0}, {"side": "l", "i": 1}, {"side": "L", "i": True},
        {"side": "R", "i": 1.0}, {"side": "R"}, {"i": 0}, {"side": ["L"], "i": 0},
        {"side": None, "i": 2}, "L0", None, [],
    ]),
)
_ENTRY = st.fixed_dictionaries({
    "support": st.lists(_SUPPORT_ITEMS, max_size=3),
    "sigma": st.sampled_from(["(12)", "(123)", " (13) ", "()", "(23)", "(132)", "(21)"]),
})
_ENTRIES = st.one_of(
    _ENTRY,
    _ENTRY,
    _ENTRY,
    st.sampled_from([
        {"support": 5, "sigma": "(12)"}, {"support": [], "sigma": 5}, {"sigma": "(12)"},
        {"support": []}, [], "x", None,
    ]),
)


def _one(side, i, sigma="(12)", **extra):
    return {"support": [{"side": side, "i": i}], "sigma": sigma, **extra}


@given(st.lists(_ENTRIES, min_size=1, max_size=4), st.lists(st.integers(0, 3), min_size=1, max_size=8))
# a repeat of a validated entry skips the checks only on an equal key, so
# i=True never hits the key of i=1 and an unhashable side takes the checks
@example([_one("L", 1), _one("L", True)], [0, 1])
@example([_one("R", 0, "(123)"), _one(["L"], 0, "(123)")], [0, 1])
@example([_one("L", 2, "(13)", note="x"), {"support": [{"side": "L", "i": 2, "x": 0}], "sigma": "(13)"}], [0, 1, 0])
@example([_one("L", 0, "(13)"), _one("L", 0, " (13) ")], [0, 1, 1])
def test_word_from_json_matches_reference(pool, picks):
    # entries repeat by reference and, after a JSON round trip, as equal
    # copies; the valid entries alone make a valid word
    doc = [pool[p % len(pool)] for p in picks]
    valid = [e for e in doc if isinstance(_outcome(_reference_word_from_json, [e]), SwitchWord)]
    for data in (doc, json.loads(json.dumps(doc)), pool, valid):
        assert _outcome(word_from_json, data) == _outcome(_reference_word_from_json, data)


@given(graphs(max_m=5, max_n=5), st.integers(0, 4))
def test_monochromatize_matches_reference(g, target):
    got = _outcome(monochromatize, g, target)
    assert got == _outcome(_reference_monochromatize, g, target)
    if isinstance(got, SwitchWord):
        # two switches per row and one per column with an off-target edge (a
        # column's self-inverse (12) pair is one interned instance), however
        # often each recurs, none for the others, and no equal duplicates
        off = [(i, j) for i, j in g.edges() if g.colors[i][j] != target]
        rows, cols = {i for i, _ in off}, {j for _, j in off}
        assert len({id(op) for op in got.ops}) == len(set(got.ops)) == 2 * len(rows) + len(cols)


def test_word_from_json_repeats_refuse_what_the_checks_refuse():
    for bad in (_one("L", True), _one(["L"], 1), _one("L", -1), _one("X", 1)):
        with pytest.raises(ValueError, match="malformed support entry|negative vertex index"):
            word_from_json([_one("L", 1), _one("L", 1), bad])


def test_inverse_word_reuses_interned_switches():
    word = monochromatize(random_graph(6, 6, seed=3), 2)
    inv = inverse_word(word)
    for op in inv.ops:
        (v,) = op.support
        assert op is (left_switch if v.side is Side.LEFT else right_switch)(v.index, op.sigma)
    assert all(a is b for a, b in zip(inverse_word(inv).ops, word.ops, strict=True))
    # a one-vertex switch built apart inverts to the interned instance, and a
    # support of several vertices to an equal new switch
    both = SwitchOp(frozenset({_L0, _R0}), c("(123)"))
    several, one = inverse_word(SwitchWord((SwitchOp(frozenset({_R0}), c("(123)")), both))).ops
    assert several == SwitchOp(both.support, c("(132)")) and one is right_switch(0, c("(132)"))


def test_monochromatize_empty_side_builds_no_switch():
    # no edge to recolor, so no vertex of the nonempty side gets a switch pair
    for m, n in ((0, 10**6), (10**6, 0)):
        g = ColoredBipartiteGraph(m, n, [b""] * m)
        start = time.perf_counter()
        assert monochromatize(g, 1) == SwitchWord(())
        assert time.perf_counter() - start < 1.0
        tracemalloc.start()
        try:
            assert monochromatize(g, 2) == SwitchWord(())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
