import itertools
import json
import random
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from switchlab.graphs import (
    COLORS,
    ColoredBipartiteGraph,
    Side,
    IsoWitness,
    VertexRef,
    collapse_witness,
    graph_from_json,
    graph_to_json,
    is_homogeneous,
    is_isomorphic,
    new_graph,
    pointwise_color_permutation,
    swap_sides,
    verify_iso_witness,
)
from switchlab import graphs as graphs_mod, switches
from switchlab.graphs import ISO_ROW_MAP_CAP, _profile_permutations, _row_profile
from switchlab.orbits import id_to_coloring
from switchlab.randomlab import ThetaCounterexample, random_graph, verify_counterexample
from switchlab.s3 import ALL_PERMS, IDENTITY, S3Perm, inverse
from switchlab.switches import SwitchOp, SwitchWord, apply_word

from conftest import graphs


def c(s):
    return S3Perm.from_cycle_string(s)


G = new_graph(2, 2, [[1, 2], [3, 1]])


def test_new_graph_validation():
    assert tuple(map(tuple, new_graph(1, 1, [[1]]).colors)) == ((1,),)
    assert tuple(map(tuple, G.colors)) == ((1, 2), (3, 1))
    with pytest.raises(ValueError, match="color out of range"):
        new_graph(2, 2, [[0, 2], [3, 1]])
    with pytest.raises(ValueError):
        new_graph(2, 2, [[1, 2]])
    with pytest.raises(ValueError):
        new_graph(1, 2, [[1, 2, 3]])


def test_color_validation_messages():
    # a row that does not convert to bytes 1..3 falls back to the cell scan,
    # which reports the first bad cell of the first bad row, as the plain scan did
    cases = [
        ([[1, 4, 0]], "color out of range: 4"),
        ([[1, 2, 3], [3, [1], 7]], "color out of range: [1]"),
        ([[1, {}, 5]], "color out of range: {}"),
        ([[False, 2, 3]], "color out of range: False"),
        ([[2, 1.5, 3]], "color out of range: 1.5"),
        (["123"], "color out of range: '1'"),
    ]
    for rows, message in cases:
        with pytest.raises(ValueError) as exc:
            ColoredBipartiteGraph(len(rows), 3, tuple(rows))
        assert str(exc.value) == message
    # cells equal to a color pass, unhashable or not; graph_from_json rejects
    # booleans before they get here
    assert ColoredBipartiteGraph(1, 2, ((True, 3),)) == new_graph(1, 2, [[1, 3]])
    eq_one = type("EqOne", (), {"__eq__": lambda self, other: other == 1, "__hash__": None})
    assert ColoredBipartiteGraph(1, 2, ((eq_one(), 3),)) == new_graph(1, 2, [[1, 3]])


def test_int_row_is_refused_before_bytes_allocates_it():
    # bytes(k) of an int row k would allocate k zero bytes; lengths come first
    tracemalloc.start()
    try:
        with pytest.raises(TypeError):
            ColoredBipartiteGraph(1, 1, (10**7,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


class _BytesRow(bytes):
    """A bytes subclass row; the graph stores plain bytes."""


def _scanned_rows(rows, n):
    """The general path of ``_color_rows`` alone: the cell scan."""
    for row in rows:
        if len(row) != n:
            raise ValueError(f"expected rows of length {n}, got {len(row)}")
        for c in row:
            if c not in COLORS:
                raise ValueError(f"color out of range: {c!r}")
    return tuple(bytes(COLORS.index(c) + 1 for c in row) for row in rows)


def _rows_outcome(build, rows, n):
    try:
        built = build(rows, n)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return [(type(row), row) for row in built]


_BOOLS = {0: False, 1: True}
_ROW_KINDS = [bytes, bytearray, _BytesRow, list, lambda cells: [_BOOLS.get(c, c) for c in cells]]


@st.composite
def _kinded_rows(draw):
    """Rows of one or mixed kinds, mostly n valid cells, sometimes a bad
    length or a byte no color holds."""
    m, n = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    cell = st.one_of(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(0, 255))
    row = st.one_of(st.lists(cell, min_size=n, max_size=n), st.lists(cell, max_size=5))
    kinds = st.sampled_from(_ROW_KINDS)
    if draw(st.booleans()):
        kind = draw(kinds)
        kinds = st.just(kind)
    return n, tuple(draw(kinds)(draw(row)) for _ in range(m))


@given(_kinded_rows())
@example((2, (b"\x01\x02", b"\x03\x01")))
@example((2, (b"\x01\x02", b"\x03")))
@example((2, (b"\x01\x02", b"\x03\x04")))
@example((2, (b"\x01\x00", bytearray(b"\x03\x01"))))
@example((1, (_BytesRow(b"\x02"),)))
@example((2, ([True, 3], b"\x03\x01")))
@example((2, ([False, 3],)))
def test_exact_bytes_rows_match_the_cell_scan(drawn):
    # same rows, each exactly bytes, or the same error and message
    n, rows = drawn
    assert _rows_outcome(graphs_mod._color_rows, rows, n) == _rows_outcome(_scanned_rows, rows, n)


@dataclass(frozen=True)
class _TupleGraph:
    """The graph that byte rows replaced: rows kept as tuples of the given
    cells, one set test per row and the cell scan when it fails."""

    m: int
    n: int
    colors: tuple

    def __post_init__(self) -> None:
        if self.m < 0 or self.n < 0:
            raise ValueError("side cardinalities must be nonnegative")
        if len(self.colors) != self.m:
            raise ValueError(f"expected {self.m} rows, got {len(self.colors)}")
        for row in self.colors:
            if len(row) != self.n:
                raise ValueError(f"expected rows of length {self.n}, got {len(row)}")
            try:
                if frozenset(COLORS).issuperset(row):
                    continue
            except TypeError:  # an unhashable cell: the scan below decides
                pass
            for c in row:
                if c not in COLORS:
                    raise ValueError(f"color out of range: {c!r}")

    side_size = ColoredBipartiteGraph.side_size


def _tuple_new_graph(m, n, colors):
    return _TupleGraph(m, n, tuple(tuple(row) for row in colors))


def _built(build, m, n, rows):
    try:
        return build(m, n, rows)
    except ValueError as exc:
        return str(exc)


_EQ_TWO = type("EqTwo", (), {"__eq__": lambda self, other: other == 2, "__hash__": None,
                             "__repr__": lambda self: "EqTwo()"})()
_CELLS = st.one_of(
    st.integers(1, 3), st.integers(1, 3), st.integers(-2, 300), st.booleans(),
    st.sampled_from([1.0, 1.5, "1", [1], None, _EQ_TWO, np.int64(3), np.uint16(257)]),
)
_ROWS = st.one_of(
    st.lists(_CELLS, max_size=5), st.lists(_CELLS, max_size=5).map(tuple),
    st.binary(max_size=5), st.text("0123x", max_size=5),
    st.lists(st.integers(0, 300), max_size=5).map(lambda r: np.array(r, dtype=np.uint16)),
    st.lists(st.integers(0, 4), max_size=5).map(lambda r: np.array(r, dtype=np.uint8)),
)


@st.composite
def _nested_colors(draw):
    """Shapes m x n with rows near n cells; mostly valid, sometimes not."""
    m, n = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    valid = st.lists(st.integers(1, 3), min_size=n, max_size=n)
    rows = draw(st.lists(st.one_of(valid, valid, _ROWS), min_size=max(0, m - 1), max_size=m + 1))
    return m, n, rows


@given(_nested_colors(), _nested_colors(), st.data())
@example((1, 2, [[True, 3]]), (1, 2, [(1, 3.0)]), None)
@example((1, 2, [np.array([257, 515], dtype=np.uint16)]), (1, 2, [b"\x01\x03"]), None)
@example((2, 2, ["12", "31"]), (2, 2, [b"\x01\x02", b"\x03\x01"]), None)
def test_byte_rows_match_tuple_graph(a, b, data):
    # same decisions and messages, same JSON (once each cell is the color it
    # equals, which byte rows store), same equality, equal hashes, and the
    # same answers from verify_counterexample
    pairs = []
    for m, n, rows in (a, b):
        got, want = _built(new_graph, m, n, rows), _built(_tuple_new_graph, m, n, rows)
        assert _built(ColoredBipartiteGraph, m, n, tuple(rows)) == got
        if isinstance(want, str):
            assert got == want
            continue
        assert isinstance(got, ColoredBipartiteGraph)
        assert all(type(row) is bytes for row in got.colors)
        as_color = [[next(k for k in COLORS if c == k) for c in row] for row in want.colors]
        got_json = json.dumps(graph_to_json(got))
        assert got_json == json.dumps({"m": m, "n": n, "colors": as_color})
        if all(type(c) is int for row in want.colors for c in row):
            assert got_json == json.dumps(graph_to_json(want))
        pairs.append((got, want))
        if data is not None:
            side = data.draw(st.sampled_from([Side.LEFT, Side.RIGHT]))
            size, k = got.side_size(side), data.draw(st.integers(1, 2))
            sets = data.draw(st.lists(st.lists(st.integers(-1, size), max_size=3).map(tuple),
                                      min_size=3, max_size=3))
            cex = ThetaCounterexample(side, tuple(sets))
            assert verify_counterexample(got, k, cex) == verify_counterexample(want, k, cex)
    if len(pairs) == 2:
        (got_a, want_a), (got_b, want_b) = pairs
        assert (got_a == got_b) == (want_a == want_b)
        if got_a == got_b:
            assert hash(got_a) == hash(got_b)


def test_swap_sides():
    assert tuple(map(tuple, swap_sides(G).colors)) == ((1, 3), (2, 1))
    assert tuple(map(tuple, swap_sides(new_graph(1, 2, [[1, 2]])).colors)) == ((1,), (2,))


@given(graphs())
def test_swap_sides_involution(g):
    assert swap_sides(swap_sides(g)) == g


def _assert_library_built(g):
    # a graph the library derived without validation holds what the
    # validating constructor would store for the same cells
    assert type(g.colors) is tuple and len(g.colors) == g.m
    assert all(type(row) is bytes and len(row) == g.n for row in g.colors)
    try:
        assert new_graph(g.m, g.n, g.colors) == g
    except ValueError as exc:
        raise AssertionError(f"invalid graph: {exc}") from None


@given(graphs(max_m=5, max_n=5), st.data())
def test_library_built_graphs_are_valid(g, data):
    vertices = [VertexRef(Side.LEFT, i) for i in range(g.m)] + [VertexRef(Side.RIGHT, j) for j in range(g.n)]
    ops = data.draw(st.lists(st.builds(SwitchOp, st.frozensets(st.sampled_from(vertices)) if vertices
                                       else st.just(frozenset()), st.sampled_from(ALL_PERMS)), max_size=6))
    m, n = data.draw(st.integers(0, 12)), data.draw(st.integers(0, 12))
    k, l = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    built = [apply_word(g, SwitchWord(tuple(ops))), swap_sides(g), random_graph(m, n, data.draw(st.integers(0, 2**64))),
             id_to_coloring(k, l, data.draw(st.integers(0, 3 ** (k * l) - 1)))]
    for out in built:
        _assert_library_built(out)


def test_library_built_check_fails_on_an_out_of_range_translate(monkeypatch):
    # a translate table that sends color 1 to 4 makes apply_word store a cell
    # the constructor refuses, which the property test above must report
    monkeypatch.setitem(switches._TABLES, c("(12)").image, bytes((0, 4, 1, 3, *range(4, 256))))
    with pytest.raises(AssertionError, match="color out of range: 4"):
        test_library_built_graphs_are_valid()


def brute_iso(g1, g2):
    # oracle: exhaustive search over all side-preserving bijection pairs
    if (g1.m, g1.n) != (g2.m, g2.n):
        return None
    for lm in itertools.permutations(range(g1.m)):
        for rm in itertools.permutations(range(g1.n)):
            if all(
                g2.colors[lm[i]][rm[j]] == g1.colors[i][j]
                for i in range(g1.m)
                for j in range(g1.n)
            ):
                return (lm, rm)
    return None


def test_is_isomorphic_examples():
    w = is_isomorphic(G, G)
    assert w == IsoWitness((0, 1), (0, 1), False)
    # swapping both rows and columns of ((1,3),(2,1)) recovers G
    w = is_isomorphic(G, new_graph(2, 2, [[1, 3], [2, 1]]), allow_swap=False)
    assert w is not None and verify_iso_witness(G, new_graph(2, 2, [[1, 3], [2, 1]]), w)
    assert brute_iso(G, new_graph(2, 2, [[1, 3], [2, 1]])) is not None
    sw = is_isomorphic(G, swap_sides(G), allow_swap=True)
    assert sw is not None and verify_iso_witness(G, swap_sides(G), sw)
    assert is_isomorphic(new_graph(1, 1, [[1]]), new_graph(1, 1, [[2]])) is None


@given(graphs(max_m=3, max_n=3), graphs(max_m=3, max_n=3))
def test_is_isomorphic_matches_oracle(g1, g2):
    witness = is_isomorphic(g1, g2)
    oracle = brute_iso(g1, g2)
    assert (witness is None) == (oracle is None)
    if witness is not None:
        assert verify_iso_witness(g1, g2, witness)


def _unpruned_side_preserving_iso(g1, g2):
    # the search before row profiles pruned it: every row permutation in
    # lexicographic order, each checked by matching column vectors
    if (g1.m, g1.n) != (g2.m, g2.n):
        return None
    if sorted(map(_row_profile, g1.colors)) != sorted(map(_row_profile, g2.colors)):
        return None
    cols1 = [tuple(g1.colors[i][j] for i in range(g1.m)) for j in range(g1.n)]
    for perm in itertools.permutations(range(g1.m)):
        cols2 = [tuple(g2.colors[perm[i]][j] for i in range(g1.m)) for j in range(g1.n)]
        by_vec = {}
        for j, vec in enumerate(cols2):
            by_vec.setdefault(vec, []).append(j)
        rm = [0] * g1.n
        taken = {}
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


def _unpruned_is_isomorphic(g1, g2, allow_swap=False):
    witness = _unpruned_side_preserving_iso(g1, g2)
    if witness is None and allow_swap:
        w = _unpruned_side_preserving_iso(g1, swap_sides(g2))
        if w is not None:
            witness = IsoWitness(w.left_map, w.right_map, swapped=True)
    return witness


def _relabelled(g, rows, cols, swap):
    h = new_graph(g.m, g.n, [[g.colors[rows[i]][cols[j]] for j in range(g.n)] for i in range(g.m)])
    return swap_sides(h) if swap else h


@given(graphs(max_m=5, max_n=5), st.data())
def test_is_isomorphic_same_witness_as_unpruned(g, data):
    rows = data.draw(st.permutations(range(g.m)))
    cols = data.draw(st.permutations(range(g.n)))
    h = _relabelled(g, rows, cols, data.draw(st.booleans()))
    other = data.draw(graphs(min_m=h.m, max_m=h.m, min_n=h.n, max_n=h.n))
    for target in (h, other):
        for allow_swap in (False, True):
            witness = is_isomorphic(g, target, allow_swap)
            assert witness == _unpruned_is_isomorphic(g, target, allow_swap)
    assert is_isomorphic(g, h, allow_swap=True) is not None


def test_is_isomorphic_same_witness_on_relabelled_side_swaps():
    for seed in range(40):
        g = random_graph(5 + seed % 2, 5, seed)
        rng = random.Random(seed)
        rows, cols = rng.sample(range(g.m), g.m), rng.sample(range(g.n), g.n)
        for swap in (False, True):
            h = _relabelled(g, rows, cols, swap)
            witness = is_isomorphic(g, h, allow_swap=True)
            assert witness == _unpruned_is_isomorphic(g, h, allow_swap=True)
            assert witness is not None and verify_iso_witness(g, h, witness)
    # few profile classes: the pruned search still walks many permutations
    g = new_graph(6, 3, [[1, 2, 3], [2, 3, 1], [3, 1, 2], [1, 3, 2], [2, 1, 3], [3, 2, 1]])
    h = _relabelled(g, (5, 3, 1, 0, 2, 4), (2, 0, 1), False)
    assert is_isomorphic(g, h) == _unpruned_is_isomorphic(g, h)


def _column_profiles(g):
    return sorted(_row_profile(col) for col in zip(*g.colors))


# Every row of these 9x9 graphs holds each color three times, so row profiles
# alone admit all 9! = 362880 row maps.
CYCLIC9 = new_graph(9, 9, [[(i + j) % 3 + 1 for j in range(9)] for i in range(9)])
# Every column also holds each color three times, but all nine rows differ,
# against three distinct rows in CYCLIC9: not isomorphic.
BALANCED9 = new_graph(
    9, 9, [[(i + j + (i // 3) * (j // 3)) % 3 + 1 for j in range(9)] for i in range(9)]
)


def test_is_isomorphic_rejects_unequal_column_profiles(monkeypatch):
    rng = random.Random(1)
    shuffled = new_graph(9, 9, [rng.sample([1, 2, 3] * 3, 9) for _ in range(9)])
    assert sorted(map(_row_profile, shuffled.colors)) == sorted(map(_row_profile, CYCLIC9.colors))
    assert _column_profiles(shuffled) != _column_profiles(CYCLIC9)
    # with no row map allowed, an answer means none was tried
    monkeypatch.setattr(graphs_mod, "ISO_ROW_MAP_CAP", 0)
    assert is_isomorphic(CYCLIC9, shuffled, allow_swap=True) is None
    assert is_isomorphic(shuffled, CYCLIC9, allow_swap=True) is None


def test_is_isomorphic_rejects_unequal_row_or_column_repeats(monkeypatch):
    # every row of BALANCED9 is distinct, against three rows thrice in CYCLIC9;
    # split9 repeats its rows as CYCLIC9 does, but its columns twice or once
    # (each column is a permutation of 1, 2, 3 spread over three row classes)
    cols = ["123", "123", "231", "231", "312", "312", "132", "213", "321"]
    split9 = new_graph(9, 9, [[int(col[i // 3]) for col in cols] for i in range(9)])
    assert len(set(BALANCED9.colors)) == 9 and len(set(CYCLIC9.colors)) == 3
    assert len(set(split9.colors)) == 3 and len(set(swap_sides(split9).colors)) == 6
    # with no row map allowed, an answer means none was tried
    monkeypatch.setattr(graphs_mod, "ISO_ROW_MAP_CAP", 0)
    for h in (BALANCED9, split9):
        assert sorted(map(_row_profile, h.colors)) == sorted(map(_row_profile, CYCLIC9.colors))
        assert _column_profiles(h) == _column_profiles(CYCLIC9)
        assert is_isomorphic(CYCLIC9, h, allow_swap=True) is None
        assert is_isomorphic(h, CYCLIC9, allow_swap=True) is None


def _row_agreements(g):
    """Equal cells of every pair of rows, sorted: an isomorphism invariant."""
    return sorted(sum(a == b for a, b in zip(r1, r2)) for r1, r2 in itertools.combinations(g.colors, 2))


def test_is_isomorphic_gives_up_past_the_row_map_cap():
    # a 9x9 circulant and the same with one profile-keeping 2x2 color swap:
    # both have nine distinct rows and nine distinct columns, each holding
    # every color three times, so all 9! row maps pass every screen
    pattern = [1, 1, 1, 2, 2, 2, 3, 3, 3]
    rows = [[pattern[(i + j) % 9] for j in range(9)] for i in range(9)]
    g = new_graph(9, 9, rows)
    assert (rows[0][0], rows[0][5], rows[4][0], rows[4][5]) == (1, 2, 2, 1)
    rows[0][0], rows[0][5], rows[4][0], rows[4][5] = 2, 1, 1, 2
    h = new_graph(9, 9, rows)
    assert {_row_profile(r) for k in (g, h) for r in k.colors + swap_sides(k).colors} == {(3, 3, 3)}
    assert all(len(set(k.colors)) == 9 for k in (g, h, swap_sides(g), swap_sides(h)))
    assert _row_agreements(g) != _row_agreements(h)  # not isomorphic
    with pytest.raises(ValueError, match=f"tried {ISO_ROW_MAP_CAP} row maps"):
        is_isomorphic(g, h)
    # a witness within the cap is the one the unpruned search finds
    h = _relabelled(CYCLIC9, (4, 0, 8, 2, 6, 1, 3, 5, 7), (2, 7, 1, 8, 0, 3, 5, 4, 6), True)
    witness = is_isomorphic(CYCLIC9, h, allow_swap=True)
    assert witness == _unpruned_is_isomorphic(CYCLIC9, h, allow_swap=True)
    assert verify_iso_witness(CYCLIC9, h, witness)


def test_is_isomorphic_searches_all_8_factorial_row_maps():
    # rows and columns all hold colors 1,1,1,2,2,2,3,3; exchanging two colors
    # on a 2x2 square keeps every profile but breaks the circulant, so the
    # search walks all 8! = 40320 row maps, under the cap, and finds none
    pattern = [1, 1, 1, 2, 2, 2, 3, 3]
    rows = [[pattern[(i + j) % 8] for j in range(8)] for i in range(8)]
    g = new_graph(8, 8, rows)
    assert (rows[0][2], rows[0][6], rows[4][2], rows[4][6]) == (1, 3, 3, 1)
    rows[0][2], rows[0][6], rows[4][2], rows[4][6] = 3, 1, 1, 3
    h = new_graph(8, 8, rows)
    assert _column_profiles(h) == _column_profiles(g)
    assert len(list(_profile_permutations(list(map(_row_profile, g.colors)),
                                          list(map(_row_profile, h.colors))))) == 40320
    assert is_isomorphic(g, h) is None


@given(st.lists(st.integers(0, 2), max_size=6), st.data())
def test_profile_permutations_are_the_filtered_permutations(classes, data):
    prof1 = [(c, 0, 0) for c in classes]
    prof2 = [(c, 0, 0) for c in data.draw(st.permutations(classes))]
    want = [
        perm
        for perm in itertools.permutations(range(len(classes)))
        if all(prof2[perm[i]] == prof1[i] for i in range(len(classes)))
    ]
    assert list(_profile_permutations(prof1, prof2)) == want


@given(graphs(min_m=1, min_n=1))
def test_swap_isomorphism_always_found(g):
    w = is_isomorphic(g, swap_sides(g), allow_swap=True)
    assert w is not None and verify_iso_witness(g, swap_sides(g), w)


def test_is_homogeneous():
    assert is_homogeneous(G, G)
    constant = new_graph(2, 2, [[1, 1], [1, 1]])
    assert not is_homogeneous(G, constant)
    assert is_homogeneous(
        new_graph(2, 2, [[3, 1], [1, 3]]), new_graph(2, 2, [[1, 2], [2, 1]])
    )
    with pytest.raises(ValueError, match="domain mismatch"):
        is_homogeneous(G, new_graph(1, 1, [[1]]))


def test_pointwise_color_permutation():
    assert pointwise_color_permutation(G, G) == IDENTITY
    assert pointwise_color_permutation(
        new_graph(2, 2, [[2, 1], [1, 2]]), new_graph(2, 2, [[1, 2], [2, 1]])
    ) == c("(12)")
    assert (
        pointwise_color_permutation(
            new_graph(2, 2, [[2, 1], [1, 1]]), new_graph(2, 2, [[1, 2], [2, 1]])
        )
        is None
    )


# Oracles: the colour-map construction the two functions replaced.  The
# partial map c2 -> c1 must be consistent, and for a permutation injective,
# before the first extension in canonical order is taken.


def _reference_is_homogeneous(c1, c2):
    image = {}
    for a, b in zip(b"".join(c1.colors), b"".join(c2.colors)):
        if image.setdefault(b, a) != a:
            return False
    return True


def _reference_pointwise_color_permutation(c1, c2):
    partial = {}
    for a, b in zip(b"".join(c1.colors), b"".join(c2.colors)):
        if partial.setdefault(b, a) != a:
            return None
    if len(set(partial.values())) != len(partial):
        return None
    return next((s for s in ALL_PERMS if all(s(b) == a for b, a in partial.items())), None)


@pytest.mark.parametrize("m,n", [(2, 2), (1, 3), (0, 3)])
def test_color_maps_match_reference_exhaustively(m, n):
    domain = [id_to_coloring(m, n, i) for i in range(3 ** (m * n))]
    for c1, c2 in itertools.product(domain, repeat=2):
        assert is_homogeneous(c1, c2) == _reference_is_homogeneous(c1, c2), (c1, c2)
        expected = _reference_pointwise_color_permutation(c1, c2)
        assert pointwise_color_permutation(c1, c2) == expected, (c1, c2)


def test_empty_domain_conventions():
    empty = new_graph(0, 2, [])
    assert is_homogeneous(empty, empty)
    assert pointwise_color_permutation(empty, empty) == IDENTITY
    assert collapse_witness(empty, empty) is None


def test_pointwise_permutation_inverse_exhaustive():
    all_k22 = [id_to_coloring(2, 2, i) for i in range(81)]
    seen = 0
    for c1, c2 in itertools.product(all_k22, repeat=2):
        sigma = pointwise_color_permutation(c1, c2)
        if sigma is not None:
            assert pointwise_color_permutation(c2, c1) == inverse(sigma)
            seen += 1
    assert seen > 81  # permutation pairs exist beyond the diagonal


def test_collapse_witness():
    assert collapse_witness(
        new_graph(2, 2, [[3, 3], [3, 3]]), new_graph(2, 2, [[1, 2], [2, 1]])
    ) == (1, 2, 3)
    assert collapse_witness(G, G) is None


def test_collapse_trichotomy_exhaustive_k22():
    # homogeneous and no permutation on used colors forces a collapse
    all_k22 = [id_to_coloring(2, 2, i) for i in range(81)]
    for c1, c2 in itertools.product(all_k22, repeat=2):
        if not is_homogeneous(c1, c2):
            continue
        has_perm = pointwise_color_permutation(c1, c2) is not None
        has_collapse = collapse_witness(c1, c2) is not None
        assert has_perm or has_collapse
        assert not (has_perm and has_collapse)


@given(graphs())
def test_json_round_trip(g):
    assert graph_from_json(graph_to_json(g)) == g


def test_json_validation():
    with pytest.raises(ValueError):
        graph_from_json({"m": 1, "n": 1})
    with pytest.raises(ValueError):
        graph_from_json([1, 2, 3])
    with pytest.raises(ValueError):
        graph_from_json({"m": 1, "n": 1, "colors": [[4]]})
    # JSON booleans are not integers, and colors are not floats or bare numbers
    for bad in (
        {"m": True, "n": 1, "colors": [[1]]},
        {"m": 1, "n": False, "colors": [[1]]},
        {"m": 1, "n": 1, "colors": [[True]]},
        {"m": 1, "n": 1, "colors": [[1.0]]},
        {"m": 1, "n": 1, "colors": [1]},
    ):
        with pytest.raises(ValueError):
            graph_from_json(bad)
