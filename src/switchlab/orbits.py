"""Candidate groups realized as permutation actions on the coloring space.

The colorings of K_{m,n} are indexed by base-3 integers (row-major, first
edge most significant), so labels over all colorings form a cube with one
length-3 axis per edge.  A candidate group is a generator list of moves of
two kinds, neither with identity axes: an ``EdgePerm`` (vertex transposition
or side swap) permutes the axes, a ``Recoloring`` (switch or edge recoloring)
maps digits through a color lookup.  Orbit partitions come from min-label
propagation to a fixpoint, which yields the same components as a closure BFS
and numbers orbits by least member id, so results are bit-identical in any
order.  The edge permutations' group P propagates over all ids by transposing
the label cube, then the recolorings, closed under conjugation by P, over P's
orbits through their least members, since s(pi x) = pi (pi^-1 s pi)(x).  P's
orbits, the base-3 digits of their least members, each recoloring's
P-conjugates and table, each candidate's generator list and each checked
action tuple's answer (its read-only quotient over P's orbits and its
counters) stay in a store while they fit ``ORBIT_MEMORY_CAP``, so a repeated
request costs store lookups only; a stored answer or conjugate list is
charged a fixed overhead besides its array bytes.  Every label gather is an
``ndarray.take``: numpy serves ``a[index]`` with an int32 index through a
slower path.

Equality of orbit partitions is the finite surrogate for two candidate
groups having the same invariant structure: the groups differ exactly in
which colorings they can interconvert.  ``join`` gives the orbits of the
group two groups generate, without their generators.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graphs import ColoredBipartiteGraph, _unchecked_graph
from .s3 import (
    FULL_SUBGROUP,
    S3Perm,
    Subgroup,
    TRIVIAL_SUBGROUP,
    enumerate_subgroups,
)

__all__ = [
    "DEFAULT_ORBIT_BUDGET",
    "ORBIT_MEMORY_CAP",
    "BudgetExceededError",
    "GroupSpec",
    "Action",
    "EdgePerm",
    "Recoloring",
    "OrbitPartition",
    "CandidateGroup",
    "id_to_coloring",
    "vertex_perm_actions",
    "switch_actions",
    "transpose_action",
    "single_edge_action",
    "generators_for",
    "partition_from_actions",
    "orbit_partition",
    "partitions_equal",
    "refines",
    "join",
    "enumerate_candidate_groups",
    "candidate_by_name",
    "distinguish_candidates",
]

#: Default cap on m*n; 3^12 = 531441 colorings is still desk-scale.
DEFAULT_ORBIT_BUDGET = 12

#: Byte cap on the orbit engine's working set plus the arrays and moves its
#: store keeps, whatever the m*n budget: P's int32 propagation (at most 24
#: bytes per id: three int32 label arrays and the intp copy ``take`` makes of
#: an int32 index) and its int32 P-orbit ids (4 per id) fit 4 * 8 bytes per
#: id; the quotient, its digit rows and recoloring tables, sized by P's
#: orbits, are checked apart.  Each check first evicts least recently used entries.
ORBIT_MEMORY_CAP = 2**29


class BudgetExceededError(Exception):
    """The coloring space 3^(m*n) exceeds the m*n budget or the memory cap."""


def _check_budget(m: int, n: int, budget: int) -> None:
    if m < 0 or n < 0:
        raise ValueError(f"side sizes must be nonnegative, got m={m}, n={n}")
    if m * n > budget:
        raise BudgetExceededError(
            f"coloring space 3^{m * n} exceeds budget m*n <= {budget}"
        )
    # min(): any exponent past 64 is over the cap, and 3^(m*n) could be huge
    if 4 * 8 * 3 ** min(m * n, 64) > ORBIT_MEMORY_CAP:
        raise BudgetExceededError(
            f"coloring space 3^{m * n} exceeds the {ORBIT_MEMORY_CAP >> 20} MiB orbit memory cap"
        )


def id_to_coloring(m: int, n: int, cid: int) -> ColoredBipartiteGraph:
    if not (0 <= cid < 3 ** (m * n)):
        raise ValueError(f"coloring id {cid} out of range for K_{{{m},{n}}}")
    digits = []
    v = cid
    for _ in range(m * n):
        digits.append(v % 3)
        v //= 3
    flat = bytes(d + 1 for d in reversed(digits))
    return _unchecked_graph(m, n, tuple([flat[i * n:i * n + n] for i in range(m)]))


@dataclass(frozen=True, eq=False)
class EdgePerm:
    """An edge permutation (a vertex swap or the side swap): its image of a
    coloring has the coloring's digit q at position ``axes[q]``."""

    name: str
    axes: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class Recoloring:
    """A recoloring (a switch or an edge recoloring): it maps a coloring's
    digits at ``positions``, sorted when built, through ``lut``."""

    name: str
    positions: tuple[int, ...]
    lut: tuple[int, int, int]

    def __post_init__(self):
        object.__setattr__(self, "positions", tuple(sorted(self.positions)))


Action = EdgePerm | Recoloring


def _recolor_action(name: str, positions, sigma: S3Perm) -> Recoloring:
    return Recoloring(name, positions, tuple(sigma(c) - 1 for c in (1, 2, 3)))


class _Moves(tuple):
    """Moves in the store, charged 40 bytes (a pointer and an int) per axes or positions slot."""
    nbytes = property(lambda self: 40 * sum(len(a.axes) if isinstance(a, EdgePerm) else len(a.positions)
                                            for a in self))


def _vertex_perms(m: int, n: int) -> _Moves:
    def swapped(a: slice, b: slice) -> tuple[int, ...]:  # the row-major edge grid, a and b exchanged
        edges = list(range(m * n))
        edges[a], edges[b] = edges[b], edges[a]
        return tuple(edges)
    rows = [EdgePerm(f"swapL({t},{t + 1})", swapped(slice(t * n, t * n + n), slice(t * n + n, t * n + 2 * n)))
            for t in range(m - 1)]
    return _Moves(rows + [EdgePerm(f"swapR({t},{t + 1})", swapped(slice(t, None, n), slice(t + 1, None, n)))
                          for t in range(n - 1)])


def vertex_perm_actions(m: int, n: int) -> list[Action]:
    """Adjacent transpositions on each side; they generate all side-preserving
    vertex permutations.  Each is its own inverse, so the permuted edge grid
    is also the move's ``axes``.  Kept in the store per shape; none without
    edges, where every move is the identity.  Each call gets its own list."""
    return list(_STORE.fetch((m, n, "swaps"), lambda: _vertex_perms(m, n) if m * n else _Moves()))


def switch_actions(side_left: bool, sigmas, m: int, n: int) -> list[Action]:
    """One single-vertex switch action per (vertex, sigma), kept in the store
    per shape and sigma (none without edges); each call gets its own list."""
    tag = "L" if side_left else "R"
    per_sigma = [_STORE.fetch((m, n, side_left, sigma), lambda sigma=sigma: _Moves(
        _recolor_action(f"switch{tag}({v},{sigma.cycle_string()})",
                        range(v * n, v * n + n) if side_left else range(v, m * n, n), sigma)
        for v in range(m if side_left else n)) if m * n else _Moves()) for sigma in sigmas]
    return [action for vertex in zip(*per_sigma) for action in vertex]


def transpose_action(m: int, n: int) -> EdgePerm:
    """The side swap; defined only on square dimensions."""
    if m != n:
        raise ValueError("side swap needs square dimensions")
    return EdgePerm("swapSides", tuple(np.arange(m * n).reshape(m, n).T.ravel().tolist()))


def single_edge_action(m: int, n: int, i: int, j: int, sigma: S3Perm) -> Recoloring:
    """Recolor exactly edge (i, j) by sigma."""
    if not (0 <= i < m and 0 <= j < n):
        raise ValueError(f"edge ({i}, {j}) out of range")
    return _recolor_action(f"edge({i},{j},{sigma.cycle_string()})", [i * n + j], sigma)


@dataclass(frozen=True)
class GroupSpec:
    """A candidate group: switch subgroups per side and vertex permutations,
    plus optionally the side swap (square dimensions only)."""

    h_left: Subgroup
    h_right: Subgroup
    allow_swap: bool = False


def generators_for(spec: GroupSpec, m: int, n: int, budget: int = DEFAULT_ORBIT_BUDGET) -> list[Action]:
    """The candidate's vertex swaps, switches and side swap, kept in the store
    per ``(m, n, spec)`` and charged like a shape's moves; every call checks
    the budget and gets its own list."""
    _check_budget(m, n, budget)
    return list(_STORE.fetch((m, n, spec), lambda: _Moves(
        vertex_perm_actions(m, n) + switch_actions(True, spec.h_left.generators(), m, n)
        + switch_actions(False, spec.h_right.generators(), m, n)
        + ([transpose_action(m, n)] if spec.allow_swap else []))))


@dataclass(eq=False)
class OrbitPartition:
    """An orbit partition stored over P's orbits: ``quotient`` gives each
    P-orbit its int32 orbit id, numbered by least member id, and ``orbit_of``
    is the shape's read-only map from coloring id to P-orbit, shared by every
    partition made from the same store entry (``ORBIT_MEMORY_CAP`` keeps the
    space below 3^15 < 2^31 ids).  ``orbit_of`` must be onto the P-orbits.
    The counters record the work: generator actions, fixpoint rounds and
    pointer-jump rounds (each final no-change round included) of P's
    propagation, stored or not, plus the quotient's (none without recolorings)."""

    m: int
    n: int
    quotient: np.ndarray
    orbit_of: np.ndarray
    orbit_count: int
    actions: int = 0
    rounds: int = 0
    jumps: int = 0

    @property
    def labels(self) -> np.ndarray:
        """Dense int32 orbit ids over the whole coloring space, a fresh array
        on every access."""
        return _take(self.quotient, self.orbit_of)


#: Gathers of more labels than this run in chunks, so the intp copy that
#: ``take`` makes of an int32 index stays at 8 * _CHUNK bytes.
_CHUNK = 1 << 16


def _take(a: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``a[index]`` for a 1-d ``index``, by ``ndarray.take`` in chunks."""
    if index.size <= _CHUNK:
        return a.take(index)
    out = np.empty(index.size, a.dtype)
    for start in range(0, index.size, _CHUNK):
        a.take(index[start:start + _CHUNK], out=out[start:start + _CHUNK])
    return out


def _propagate(size: int, pulls) -> tuple[np.ndarray, int, int]:
    """Min-label propagation with pointer jumping over ids 0..size-1 until each
    label is the least id it reaches; ``pull(x)`` is ``x[table]``.  Labels are
    int32: the cap keeps every id below 3^15 < 2^31."""
    labels = np.arange(size, dtype=np.int32)
    rounds = jumps = 0
    while True:
        rounds += 1
        before = labels
        labels = labels.copy()
        for pull in pulls:
            np.minimum(labels, pull(labels), out=labels)
        while True:
            jumps += 1
            jumped = _take(labels, labels)
            if (jumped == labels).all():
                break
            labels = jumped
        del jumped  # an equal copy of labels; freed before the next round
        if (labels == before).all():
            return labels, rounds, jumps


def _numbered(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fixpoint labels renumbered 0, 1, ... by least member, and the mask of
    the least members."""
    roots = labels == np.arange(labels.size, dtype=np.int32)
    return _take(np.cumsum(roots, dtype=np.int32) - 1, labels), roots


class _Entry(NamedTuple):
    """P's store entry: the int32 P-orbit of every id, numbered by least member,
    each P-orbit's least member, P's rounds and jumps, and three stores filled
    on first use and evicted with it: each position's uint8 base-3 digit of
    the least members, each recoloring move's int32 table over P's orbits and
    each move's conjugates by P's generators."""

    orbit_of: np.ndarray
    reps: np.ndarray
    rounds: int
    jumps: int
    rows: dict
    tables: dict
    conjugates: dict

    @property
    def nbytes(self) -> int:
        """The bytes of its orbit ids, least members, digit rows and tables, plus
        ``_STORED_OVERHEAD`` per conjugate list."""
        return sum(a.nbytes for a in (self.orbit_of, self.reps, *self.rows.values(), *self.tables.values())) \
            + _STORED_OVERHEAD * len(self.conjugates)


class _Answer(NamedTuple):
    """A checked action tuple's answer: P's edge-permutation axes, the read-only
    int32 quotient over P's orbits, its orbit count and the rounds and jumps of
    both stages.  ``nbytes`` charges the quotient's bytes, 40 per axes slot,
    ``_STORED_OVERHEAD`` and 400 per action, which covers an action that only
    the answer's key keeps alive (about 290)."""

    perms: tuple
    quotient: np.ndarray
    count: int
    rounds: int
    jumps: int
    nbytes: int


#: What a stored answer holds besides its quotient's data, its axes and its
#: actions: its store slot, key, action and value tuples and array header.
#: At K_{1,3} with P trivial (Python 3.11, numpy 2.4), the answer of a
#: distinct list of 1, 2 or 3 single-edge recolorings freed 500, 508 or 516
#: bytes under tracemalloc, 108 of them data, when it was dropped (its
#: actions kept alive elsewhere) and a collection emptied the free lists.
#: Each conjugate list in P's entry is charged the same.
_STORED_OVERHEAD = 512


class _Store(OrderedDict):
    """The orbit engine's store, least recently used first: P's entries by ``(k, perms)``, shape
    moves by ``(m, n)`` and kind, generator lists by ``(m, n, spec)`` and answers by
    ``(k, "answer", actions)``; ``nbytes`` totals their bytes."""

    nbytes = 0

    def evict(self, need: int, keep=None) -> bool:
        """Drop least recently used entries, up to ``keep``, until ``need``
        fits beside the rest; True if it does."""
        while self.nbytes + need > ORBIT_MEMORY_CAP and next(iter(self.values()), keep) is not keep:
            self.nbytes -= self.popitem(last=False)[1].nbytes
        return self.nbytes + need <= ORBIT_MEMORY_CAP

    def fetch(self, key, build, need: int = 0):
        """The entry at ``key``; a miss evicts for its build's ``need`` bytes, then for the entry's."""
        value = self.get(key)
        if value is None:
            self.evict(need)
            value = build()
            self.evict(size := value.nbytes)
            self[key] = value
            self.nbytes += size
        else:
            self.move_to_end(key)
        return value

    def clear(self) -> None:
        super().clear()
        self.nbytes = 0


_STORE = _Store()


def _edge_perm_orbits(k: int, perms: tuple[tuple[int, ...], ...]) -> _Entry:
    """The group P that the edge permutations ``perms`` generate on 3^k ids, each moving
    the axes of the label cube (axis p is edge p); arrays read-only, shared by candidates."""
    pulls = [lambda x, axes=axes: x.reshape((3,) * k).transpose(axes).reshape(-1) for axes in perms]
    labels, rounds, jumps = _propagate(3**k, pulls)
    orbit_of, roots = _numbered(labels)
    reps = np.flatnonzero(roots)
    orbit_of.flags.writeable = reps.flags.writeable = False
    return _Entry(orbit_of, reps, rounds, jumps, {}, {}, {})


def _digit_row(reps: np.ndarray, k: int, position: int) -> np.ndarray:
    """The base-3 digit at ``position`` (first edge most significant) of
    every least member, as uint8."""
    return (reps // 3 ** (k - 1 - position) % 3).astype(np.uint8)


def _conjugates(perms, move) -> tuple:
    """The recoloring ``move`` conjugated by each edge permutation, distinct,
    in generator order."""
    positions, lut = move
    return tuple(dict.fromkeys((tuple(sorted(axes[p] for p in positions)), lut) for axes in perms))


#: The color lookups a recoloring may use: the permutations of (0, 1, 2).
_LUTS = tuple(itertools.permutations(range(3)))


def _fits(a, edges: set) -> bool:
    """Whether ``a`` permutes the edges, or recolors distinct edges among them by a bijection."""
    if isinstance(a, EdgePerm):
        return len(a.axes) == len(edges) and set(a.axes) == edges
    return isinstance(a, Recoloring) and 0 < len(edges.intersection(a.positions)) == len(a.positions) \
        and a.lut in _LUTS


def partition_from_actions(actions, m: int, n: int, budget: int = DEFAULT_ORBIT_BUDGET) -> OrbitPartition:
    """Connected components of the id space under the generator moves.  The
    store keeps each checked move tuple's answer under ``(k, "answer",
    actions)``: moves hash by identity and the key holds them, so a tuple seen
    before skips the checks and both stages and costs two lookups, its answer
    and P's entry."""
    _check_budget(m, n, budget)
    actions, k = tuple(actions), m * n
    answer = _STORE.fetch((k, "answer", actions), lambda: _answer(actions, k))
    orbit_of = _STORE.fetch((k, answer.perms), lambda: _edge_perm_orbits(k, answer.perms), 4 * 8 * 3**k).orbit_of
    return OrbitPartition(m, n, answer.quotient, orbit_of, answer.count, len(actions), answer.rounds, answer.jumps)


def _answer(actions: tuple, k: int) -> _Answer:
    """The answer of ``actions``, checked in turn: P's entry, then the quotient
    stage of their distinct recoloring moves in call order, closed under
    conjugation by P."""
    edges = set(range(k))
    for a in actions:
        if not _fits(a, edges):
            raise ValueError("action does not match the coloring space")
    perms = tuple(a.axes for a in actions if isinstance(a, EdgePerm))
    closed = list(dict.fromkeys((a.positions, a.lut) for a in actions if isinstance(a, Recoloring)))
    orbit_of, reps, rounds, jumps, rows, tables, conjugates = entry = \
        _STORE.fetch((k, perms), lambda: _edge_perm_orbits(k, perms), 4 * 8 * 3**k)
    # per P-orbit the quotient stage takes 72 bytes, its quotient's data
    # included, plus 24 of int64 temporaries while tables are built
    working = 16 * 3**k + reps.size * (96 if closed else 72)
    seen, found = set(closed), {}
    for move in closed:  # conjugates appended here are visited too
        listed = conjugates[move] if move in conjugates else found.setdefault(move, _conjugates(perms, move))
        fresh = [c for c in listed if c not in seen]
        seen.update(fresh)
        closed.extend(fresh)
    # a table takes 4 bytes per P-orbit, a digit row 1, a conjugate list
    # _STORED_OVERHEAD and the answer its charge beyond its quotient's data.
    # A call whose own tables, rows, lists and answer do not fit next to its
    # working set (which holds this entry's orbit ids and least members) is
    # refused; else the store drops other entries, then this entry's stored
    # tables, rows and lists, until they fit beside the call
    fixed = 40 * sum(map(len, perms)) + _STORED_OVERHEAD + 400 * len(actions)
    positions = {p for move in closed for p in move[0]}
    own = reps.size * (4 * len(closed) + len(positions)) + _STORED_OVERHEAD * len(closed)
    if working + own + fixed > ORBIT_MEMORY_CAP:
        raise BudgetExceededError("the quotient by the edge permutations exceeds the orbit memory cap")
    new = reps.size * (4 * len(seen.difference(tables)) + len(positions.difference(rows))) \
        + _STORED_OVERHEAD * len(found) + fixed
    if not _STORE.evict(working + new - orbit_of.nbytes - reps.nbytes, keep=entry):
        _STORE.nbytes -= entry.nbytes - orbit_of.nbytes - reps.nbytes
        for stored in (tables, rows, conjugates):
            stored.clear()
    conjugates.update(found)
    _STORE.nbytes += _STORED_OVERHEAD * len(found)
    for move in closed:
        if move not in tables:
            ids = reps.copy()  # each least member, its digits at the move's positions moved by lut
            for p in move[0]:
                if p not in rows:
                    rows[p] = _digit_row(reps, k, p)
                    rows[p].flags.writeable = False
                    _STORE.nbytes += rows[p].nbytes
                ids += (np.subtract(move[1], (0, 1, 2)) * 3 ** (k - 1 - p)).take(rows[p])
            if ids.min() < 0:  # take would wrap it silently
                raise ArithmeticError(f"recoloring {move} takes a least member below id 0")
            tables[move] = orbit_of.take(ids)
            tables[move].flags.writeable = False
            _STORE.nbytes += tables[move].nbytes
    pulls = [lambda x, t=tables[move]: _take(x, t) for move in closed]
    labels, more_rounds, more_jumps = (_propagate(reps.size, pulls) if pulls
                                       else (np.arange(reps.size, dtype=np.int32), 0, 0))
    quotient, roots = _numbered(labels)
    quotient.flags.writeable = False
    return _Answer(perms, quotient, int(roots.sum()), rounds + more_rounds, jumps + more_jumps,
                   quotient.nbytes + fixed)


def orbit_partition(spec: GroupSpec, m: int, n: int, budget: int = DEFAULT_ORBIT_BUDGET) -> OrbitPartition:
    return partition_from_actions(generators_for(spec, m, n, budget), m, n, budget)


def _comparable(p1: OrbitPartition, p2: OrbitPartition) -> tuple[np.ndarray, np.ndarray]:
    """Both partitions' labels on one index set: their quotients when they
    share ``orbit_of`` (labels are ``quotient[orbit_of]`` and ``orbit_of`` is
    onto, so this is exact), else the full labels."""
    if p1.orbit_of is p2.orbit_of:
        return p1.quotient, p2.quotient
    return p1.labels, p2.labels


def partitions_equal(p1: OrbitPartition, p2: OrbitPartition) -> bool:
    """Set equality of the partitions (canonical labels make it array
    equality)."""
    if (p1.m, p1.n) != (p2.m, p2.n):
        raise ValueError("dimension mismatch")
    return p1.orbit_count == p2.orbit_count and bool(np.array_equal(*_comparable(p1, p2)))


def refines(p1: OrbitPartition, p2: OrbitPartition) -> bool:
    """True iff every p1-orbit lies inside a single p2-orbit."""
    if (p1.m, p1.n) != (p2.m, p2.n):
        raise ValueError("dimension mismatch")
    l1, l2 = _comparable(p1, p2)
    _, first = np.unique(l1, return_index=True)
    return bool((l2 == _take(l2, _take(first, l1))).all())


def _class_min(labels: np.ndarray, count: int):
    """The pull giving each index the least value over its class (0..count-1)."""
    def pull(x):
        np.minimum.at(least := np.full(count, labels.size, dtype=np.int32), labels, x)
        return _take(least, labels)
    return pull


def join(p1: OrbitPartition, p2: OrbitPartition) -> OrbitPartition:
    """The orbits of the group two partitions' groups generate, propagated
    over their quotients if they share ``orbit_of``, else over all ids (an
    identity ``orbit_of``); labels equal those of the concatenated generator
    lists.  Counters: the inputs' summed, plus the join's rounds and jumps."""
    if (p1.m, p1.n) != (p2.m, p2.n):
        raise ValueError("dimension mismatch")
    l1, l2 = _comparable(p1, p2)
    orbit_of = p1.orbit_of if p1.orbit_of is p2.orbit_of else np.arange(l1.size, dtype=np.int32)
    pulls = [_class_min(l1, p1.orbit_count), _class_min(l2, p2.orbit_count)]
    labels, rounds, jumps = _propagate(l1.size, pulls)
    quotient, roots = _numbered(labels)
    return OrbitPartition(p1.m, p1.n, quotient, orbit_of, int(roots.sum()), p1.actions + p2.actions,
                          p1.rounds + p2.rounds + rounds, p1.jumps + p2.jumps + jumps)


@dataclass(frozen=True)
class CandidateGroup:
    name: str
    spec: GroupSpec


def enumerate_candidate_groups(with_swap: bool = False) -> list[CandidateGroup]:
    """The sixteen candidate groups: the automorphism bookend, three switch
    variants (left, right, both) per nontrivial proper subgroup, left/right
    full-subgroup switches, and the full symmetric bookend.

    Pairs of distinct nontrivial subgroups on opposite sides are excluded;
    their elementwise products disagree, which collapses the pair to one
    orbit at K_{2,2}, as the ``redu-saturation`` check in ``verify`` comes
    down to asserting for all six.  With ``with_swap``, side-symmetric
    candidates get a variant with the side-swap generator appended; adjoining
    the swap to an asymmetric candidate would also adjoin the mirrored
    switches, which lands in a symmetric variant anyway.
    """
    proper = [h for h in enumerate_subgroups() if h.order in (2, 3)]
    groups = [CandidateGroup("Aut", GroupSpec(TRIVIAL_SUBGROUP, TRIVIAL_SUBGROUP))]
    for h in proper:
        groups.append(CandidateGroup(f"S_l^{h.label}", GroupSpec(h, TRIVIAL_SUBGROUP)))
        groups.append(CandidateGroup(f"S_r^{h.label}", GroupSpec(TRIVIAL_SUBGROUP, h)))
        groups.append(CandidateGroup(f"S_lr^{h.label}", GroupSpec(h, h)))
    groups.append(CandidateGroup("S_l^S3", GroupSpec(FULL_SUBGROUP, TRIVIAL_SUBGROUP)))
    groups.append(CandidateGroup("S_r^S3", GroupSpec(TRIVIAL_SUBGROUP, FULL_SUBGROUP)))
    groups.append(CandidateGroup("Sym_lr", GroupSpec(FULL_SUBGROUP, FULL_SUBGROUP)))
    if with_swap:
        for cand in list(groups):
            if cand.spec.h_left == cand.spec.h_right:
                spec = GroupSpec(cand.spec.h_left, cand.spec.h_right, allow_swap=True)
                groups.append(CandidateGroup(f"ol_{cand.name}", spec))
    return groups


def candidate_by_name(name: str) -> CandidateGroup:
    candidates = enumerate_candidate_groups(with_swap=True)
    for cand in candidates:
        if cand.name == name:
            return cand
    known = ", ".join(c.name for c in candidates)
    raise ValueError(f"unknown group {name!r}; known groups: {known}")


def distinguish_candidates(
    m: int, n: int, with_swap: bool = False, budget: int = DEFAULT_ORBIT_BUDGET, parts=None
) -> dict:
    """Pairwise comparison of all candidate orbit partitions at (m, n).

    Colliding pairs are reported, not treated as failures: whether a fixed
    finite size separates every candidate pair is an empirical question, and
    the caller escalates size on collisions.  A dict passed as ``parts``
    receives each candidate's ``OrbitPartition`` by name, with its counters.
    """
    if with_swap and m != n:  # refused before any partition is built
        raise ValueError("side swap needs square dimensions")
    candidates = enumerate_candidate_groups(with_swap)
    parts = {} if parts is None else parts
    parts.update((c.name, orbit_partition(c.spec, m, n, budget)) for c in candidates)
    groups = [
        {"name": c.name, "orbit_count": parts[c.name].orbit_count} for c in candidates
    ]
    collisions = [
        [a.name, b.name]
        for a, b in itertools.combinations(candidates, 2)
        if partitions_equal(parts[a.name], parts[b.name])
    ]
    return {"m": m, "n": n, "groups": groups, "collisions": collisions}

