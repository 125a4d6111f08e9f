"""Candidate groups realized as permutation actions on the coloring space.

The colorings of K_{m,n} are indexed by base-3 integers (row-major, first
edge most significant), so labels over all colorings form a cube with one
length-3 axis per edge.  A candidate group is a generator list of moves on
that cube: vertex transpositions and the side swap permute axes, switches
recolor them.  Orbit partitions come from min-label propagation to a
fixpoint, which yields the same components as a closure BFS and numbers
orbits by least member id, so results are bit-identical in any order.  The
edge permutations' group P propagates over all ids by transposing the label
cube (one cache entry, holding P's orbits, the base-3 digits of their least
members, and each recoloring's P-conjugates and table over P's orbits), then
the recolorings, closed under conjugation by P, over P's orbits through
their least members, since s(pi x) = pi (pi^-1 s pi)(x).  Every label gather
is an ``ndarray.take``: numpy serves ``a[index]`` with an int32 index through
a slower path.

Equality of orbit partitions is the finite surrogate for two candidate
groups having the same invariant structure: the groups differ exactly in
which colorings they can interconvert.  ``join`` gives the orbits of the
group two groups generate, without their generators.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graphs import ColoredBipartiteGraph
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

#: Byte cap on the orbit engine's working set, whatever the m*n budget: P's
#: int32 propagation (at most 24 bytes per id: three int32 label arrays and
#: the intp copy ``take`` makes of an int32 index) and the one cache entry's
#: int32 P-orbit ids (4 per id) fit 4 * 8 bytes per id; the quotient and the
#: entry's digit rows and recoloring tables, sized by P's orbits, are checked
#: apart.
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
    return ColoredBipartiteGraph(m, n, tuple(flat[i * n:(i + 1) * n] for i in range(m)))


@dataclass(frozen=True, eq=False)
class Action:
    """A bijection of the coloring id space: an edge permutation, whose image
    of a coloring has its digit q at position ``axes[q]``, or a recoloring
    (identity ``axes``), which maps the digits at ``recolor`` through
    ``lut``.  Vertex swaps and the side swap permute axes; switches and edge
    recolorings recolor digits."""

    name: str
    axes: tuple[int, ...]
    recolor: tuple[int, ...] = ()
    lut: tuple[int, int, int] = (0, 1, 2)

    def pull(self, labels: np.ndarray) -> np.ndarray:
        """``labels[table]`` of the edge permutation: the label cube, axis p
        being edge p, with its axes moved."""
        k = len(self.axes)
        return labels.reshape((3,) * k).transpose(self.axes).reshape(-1)


def _recolor_action(name: str, m: int, n: int, positions, sigma: S3Perm) -> Action:
    return Action(name, tuple(range(m * n)), tuple(positions), tuple(sigma(c) - 1 for c in (1, 2, 3)))


@functools.lru_cache(maxsize=1)
def _vertex_perms(m: int, n: int) -> tuple[Action, ...]:
    edges = np.arange(m * n).reshape(m, n)
    actions = []
    for t in range(m - 1):
        moved = edges.copy()
        moved[[t, t + 1]] = edges[[t + 1, t]]
        actions.append(Action(f"swapL({t},{t + 1})", tuple(moved.ravel().tolist())))
    for t in range(n - 1):
        moved = edges.copy()
        moved[:, [t, t + 1]] = edges[:, [t + 1, t]]
        actions.append(Action(f"swapR({t},{t + 1})", tuple(moved.ravel().tolist())))
    return tuple(actions)


def vertex_perm_actions(m: int, n: int) -> list[Action]:
    """Adjacent transpositions on each side; they generate all side-preserving
    vertex permutations.  Each is its own inverse, so the permuted edge grid
    is also the move's ``axes``.  Built once per shape (the latest shape
    kept); each call gets its own list."""
    return list(_vertex_perms(m, n))


@functools.lru_cache(maxsize=1)
def _switch_store(m: int, n: int) -> dict:
    """Shape (m, n)'s single-vertex switches by (side_left, sigma), one per
    vertex, each built on first use."""
    return {}


def switch_actions(side_left: bool, sigmas, m: int, n: int) -> list[Action]:
    """One single-vertex switch action per (vertex, sigma), built once per
    shape (the latest shape kept); each call gets its own list."""
    store, tag = _switch_store(m, n), "L" if side_left else "R"
    for sigma in sigmas:
        if (side_left, sigma) not in store:
            rows = np.arange(m * n).reshape(m, n)
            store[side_left, sigma] = tuple(
                _recolor_action(f"switch{tag}({v},{sigma.cycle_string()})", m, n, row.tolist(), sigma)
                for v, row in enumerate(rows if side_left else rows.T))
    return [store[side_left, sigma][v] for v in range(m if side_left else n) for sigma in sigmas]


def transpose_action(m: int, n: int) -> Action:
    """The side swap; defined only on square dimensions."""
    if m != n:
        raise ValueError("side swap needs square dimensions")
    return Action("swapSides", tuple(np.arange(m * n).reshape(m, n).T.ravel().tolist()))


def single_edge_action(m: int, n: int, i: int, j: int, sigma: S3Perm) -> Action:
    """Recolor exactly edge (i, j) by sigma."""
    if not (0 <= i < m and 0 <= j < n):
        raise ValueError(f"edge ({i}, {j}) out of range")
    return _recolor_action(f"edge({i},{j},{sigma.cycle_string()})", m, n, [i * n + j], sigma)


@dataclass(frozen=True)
class GroupSpec:
    """A candidate group: switch subgroups per side and vertex permutations,
    plus optionally the side swap (square dimensions only)."""

    h_left: Subgroup
    h_right: Subgroup
    allow_swap: bool = False


def generators_for(spec: GroupSpec, m: int, n: int, budget: int = DEFAULT_ORBIT_BUDGET) -> list[Action]:
    _check_budget(m, n, budget)
    actions = vertex_perm_actions(m, n)
    actions.extend(switch_actions(True, spec.h_left.generators(), m, n))
    actions.extend(switch_actions(False, spec.h_right.generators(), m, n))
    if spec.allow_swap:
        actions.append(transpose_action(m, n))
    return actions


@dataclass(eq=False)
class OrbitPartition:
    """An orbit partition stored over P's orbits: ``quotient`` gives each
    P-orbit its int32 orbit id, numbered by least member id, and ``orbit_of``
    is the shape's read-only map from coloring id to P-orbit, shared by every
    partition made from the same cache entry (``ORBIT_MEMORY_CAP`` keeps the
    space below 3^15 < 2^31 ids).  ``orbit_of`` must be onto the P-orbits.
    The counters record the work: generator actions, fixpoint rounds and
    pointer-jump rounds (each final no-change round included) of P's
    propagation, cached or not, plus the quotient's (none without recolorings)."""

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
    """P's cache entry: the int32 P-orbit of every id, numbered by least
    member, each P-orbit's least member, P's rounds and jumps, and three
    stores filled on first use: each position's uint8 base-3 digit of the
    least members, each recoloring move's int32 table over P's orbits, and
    each move's conjugates by P's generators."""

    orbit_of: np.ndarray
    reps: np.ndarray
    rounds: int
    jumps: int
    rows: dict
    tables: dict
    conjugates: dict


@functools.lru_cache(maxsize=1)
def _edge_perm_orbits(k: int, perms: tuple[tuple[int, ...], ...]) -> _Entry:
    """The group P that the edge permutations' ``axes`` generate on 3^k ids.
    One entry is kept, so its rows, tables and conjugates go with it when the
    next P replaces it; arrays read-only, shared by candidates."""
    labels, rounds, jumps = _propagate(3**k, [Action("P", axes).pull for axes in perms])
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


def partition_from_actions(actions, m: int, n: int, budget: int = DEFAULT_ORBIT_BUDGET) -> OrbitPartition:
    """Connected components of the id space under the generator actions,
    each an edge permutation or a recoloring (identity ``axes``)."""
    _check_budget(m, n, budget)
    actions, k = list(actions), m * n
    identity = tuple(range(k))
    for a in actions:
        if len(a.axes) != k:
            raise ValueError("action does not match the coloring space")
        if a.recolor and a.axes != identity:
            raise ValueError(f"action {a.name} both permutes and recolors")
    perms = tuple(a.axes for a in actions if not a.recolor)
    orbit_of, reps, rounds, jumps, rows, tables, conjugates = _edge_perm_orbits(k, perms)
    closed = list(dict.fromkeys((tuple(sorted(a.recolor)), a.lut) for a in actions if a.recolor))
    seen = set(closed)
    for move in closed:  # conjugates appended here are visited too
        if move not in conjugates:
            conjugates[move] = _conjugates(perms, move)
        fresh = [c for c in conjugates[move] if c not in seen]
        seen.update(fresh)
        closed.extend(fresh)
    # per P-orbit, the quotient stage takes 72 bytes, plus 24 of int64
    # temporaries while tables are built, each table 4 and each digit row 1:
    # a call whose own tables and rows do not fit next to its working set is
    # refused, and the entry drops its stored tables and rows when they and
    # this call's would not fit
    positions = {p for move in closed for p in move[0]}
    working = 16 * 3**k + reps.size * (96 if closed else 72)
    if working + reps.size * (4 * len(closed) + len(positions)) > ORBIT_MEMORY_CAP:
        raise BudgetExceededError("the quotient by the edge permutations exceeds the orbit memory cap")
    if working + reps.size * (4 * len(seen.union(tables)) + len(positions.union(rows))) > ORBIT_MEMORY_CAP:
        tables.clear()
        rows.clear()
    for move in closed:
        if move not in tables:
            ids = reps.copy()  # each least member, its digits at the move's positions moved by lut
            for p in move[0]:
                if p not in rows:
                    rows[p] = _digit_row(reps, k, p)
                    rows[p].flags.writeable = False
                ids += (np.subtract(move[1], (0, 1, 2)) * 3 ** (k - 1 - p)).take(rows[p])
            tables[move] = orbit_of.take(ids)
            tables[move].flags.writeable = False
    pulls = [lambda x, t=tables[move]: _take(x, t) for move in closed]
    labels, more_rounds, more_jumps = (_propagate(reps.size, pulls) if pulls
                                       else (np.arange(reps.size, dtype=np.int32), 0, 0))
    quotient, roots = _numbered(labels)
    return OrbitPartition(m, n, quotient, orbit_of, int(roots.sum()), len(actions),
                          rounds + more_rounds, jumps + more_jumps)


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

