"""Candidate groups realized as permutation actions on the coloring space.

The colorings of K_{m,n} are indexed by base-3 integers (row-major, first
edge most significant), so labels over all colorings form a cube with one
length-3 axis per edge.  A candidate group is a generator list of moves on
that cube: vertex transpositions and the side swap permute axes, switches
recolor them.  Orbit partitions come from min-label propagation to a
fixpoint, which yields the same components as a closure BFS and numbers
orbits by least member id, so results are bit-identical in any order.  The
edge permutations' group P propagates over all ids (cached per shape, with
each recoloring's table over P's orbits), then the recolorings, closed under
conjugation by P, over P's orbits through their least members, since
s(pi x) = pi (pi^-1 s pi)(x).

Equality of orbit partitions is the finite surrogate for two candidate
groups having the same invariant structure: the groups differ exactly in
which colorings they can interconvert.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .graphs import ColoredBipartiteGraph
from .s3 import (
    FULL_SUBGROUP,
    S3Perm,
    Subgroup,
    TRIVIAL_SUBGROUP,
    commutator,
    enumerate_subgroups,
    noncommuting_witness,
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
    "enumerate_candidate_groups",
    "candidate_by_name",
    "distinguish_candidates",
    "redu_saturation_check",
]

#: Default cap on m*n; 3^12 = 531441 colorings is still desk-scale.
DEFAULT_ORBIT_BUDGET = 12

#: Byte cap on the orbit engine's working set, whatever the m*n budget: P's
#: int32 propagation (at most 16 bytes per id) and the cached int32 P-orbit
#: ids (4 per entry) fit 4 * 8 bytes per id; the quotient, sized by P's
#: orbits, is checked apart.
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


def _recolored(ids: np.ndarray, k: int, positions, lut) -> np.ndarray:
    """The ids with their base-3 digits at ``positions`` mapped through ``lut``."""
    places = 3 ** (k - 1 - np.array(positions, dtype=np.int64))
    moved = ids[:, None] // places % 3
    return ids + (np.array(lut)[moved] - moved) @ places


@dataclass(frozen=True, eq=False)
class Action:
    """A bijection of the coloring id space, as a move on the label cube
    ``labels.reshape((3,) * k)`` whose axis p is edge p.  The image of a
    coloring has its digit q at position ``axes[q]``, then the digits at
    ``recolor`` mapped through ``lut``.  Vertex swaps and the side swap only
    permute axes; switches and edge recolorings only recolor digits."""

    name: str
    axes: tuple[int, ...]
    recolor: tuple[int, ...] = ()
    lut: tuple[int, int, int] = (0, 1, 2)

    def pull(self, labels: np.ndarray) -> np.ndarray:
        """``labels[table]``; an edge permutation moves the cube's axes."""
        k = len(self.axes)
        if self.recolor:
            labels = labels[_recolored(np.arange(3**k), k, self.recolor, self.lut)]
        return labels.reshape((3,) * k).transpose(self.axes).reshape(-1)

    @property
    def table(self) -> np.ndarray:
        """``table[i]`` is the image of id i."""
        return self.pull(np.arange(3 ** len(self.axes), dtype=np.int64))


def _recolor_action(name: str, m: int, n: int, positions, sigma: S3Perm) -> Action:
    return Action(name, tuple(range(m * n)), tuple(positions), tuple(sigma(c) - 1 for c in (1, 2, 3)))


@functools.lru_cache(maxsize=2)
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
    is also the move's ``axes``.  Built once per shape (the last two kept);
    each call gets its own list."""
    return list(_vertex_perms(m, n))


@functools.lru_cache(maxsize=2)
def _switch_store(m: int, n: int) -> dict:
    """Shape (m, n)'s single-vertex switches by (side_left, sigma), one per
    vertex, each built on first use."""
    return {}


def switch_actions(side_left: bool, sigmas, m: int, n: int) -> list[Action]:
    """One single-vertex switch action per (vertex, sigma), built once per
    shape (the last two kept); each call gets its own list."""
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
        return np.take(self.quotient, self.orbit_of)


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
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped
        del jumped  # an equal copy of labels; freed before the next round
        if np.array_equal(labels, before):
            return labels, rounds, jumps


@functools.lru_cache(maxsize=2)
def _edge_perm_orbits(k: int, perms: tuple[tuple[int, ...], ...]) -> tuple:
    """The group P that the edge permutations' ``axes`` generate on 3^k ids:
    the int32 P-orbit of every id, numbered by least member, each P-orbit's
    least member, P's rounds and jumps, and a store of each recoloring move's
    table over P's orbits, filled on first use and kept while the entry is
    the latest used; arrays read-only, shared by candidates."""
    labels, rounds, jumps = _propagate(3**k, [Action("P", axes).pull for axes in perms])
    roots = labels == np.arange(labels.size, dtype=np.int32)
    orbit_of, reps = (np.cumsum(roots, dtype=np.int32) - 1)[labels], np.flatnonzero(roots)
    orbit_of.flags.writeable = reps.flags.writeable = False
    return orbit_of, reps, rounds, jumps, {}


#: The table store of the cache entry the latest call used, the only store
#: that may hold recoloring tables.
_tables_kept: dict = {}


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
    orbit_of, reps, rounds, jumps, stored = _edge_perm_orbits(k, perms)
    closed = list(dict.fromkeys((tuple(sorted(a.recolor)), a.lut) for a in actions if a.recolor))
    seen = set(closed)
    for positions, lut in closed:  # conjugates appended here are visited too
        conjugates = dict.fromkeys((tuple(sorted(axes[p] for p in positions)), lut) for axes in perms)
        fresh = [c for c in conjugates if c not in seen]
        seen.update(fresh)
        closed.extend(fresh)
    # the tables this call needs, and every one P's entry keeps, are 4 bytes
    # per P-orbit; only the latest call's entry keeps any, so the two entries'
    # tables together get one allowance, and the entry drops its store rather
    # than keep more than fits
    widest = max((len(positions) for positions, _ in closed), default=0)
    working = 16 * 3**k + reps.size * (24 * widest + 72)
    if working + 4 * reps.size * len(closed) > ORBIT_MEMORY_CAP:
        raise BudgetExceededError("the quotient by the edge permutations exceeds the orbit memory cap")
    global _tables_kept
    if _tables_kept is not stored:
        _tables_kept.clear()
        _tables_kept = stored
    if working + 4 * reps.size * len(seen.union(stored)) > ORBIT_MEMORY_CAP:
        stored.clear()
    for move in closed:
        if move not in stored:
            table = stored[move] = orbit_of[_recolored(reps, k, *move)]
            table.flags.writeable = False
    tables = [stored[move] for move in closed]
    labels, more_rounds, more_jumps = (_propagate(reps.size, [lambda x, t=t: x[t] for t in tables])
                                       if tables else (np.arange(reps.size, dtype=np.int32), 0, 0))
    roots = labels == np.arange(labels.size, dtype=np.int32)
    return OrbitPartition(m, n, (np.cumsum(roots, dtype=np.int32) - 1)[labels], orbit_of,
                          int(roots.sum()), len(actions), rounds + more_rounds, jumps + more_jumps)


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
    return bool(np.all(l2 == l2[first[l1]]))


@dataclass(frozen=True)
class CandidateGroup:
    name: str
    spec: GroupSpec


def enumerate_candidate_groups(with_swap: bool = False) -> list[CandidateGroup]:
    """The sixteen candidate groups: the automorphism bookend, three switch
    variants (left, right, both) per nontrivial proper subgroup, left/right
    full-subgroup switches, and the full symmetric bookend.

    Pairs of distinct nontrivial subgroups on opposite sides are excluded;
    their elementwise products disagree, which collapses the pair (the
    ``redu-saturation`` check in ``verify`` asserts this for all six
    non-commuting pairs).  With ``with_swap``, side-symmetric candidates
    get a variant with the side-swap generator appended; adjoining the swap
    to an asymmetric candidate would also adjoin the mirrored switches, which
    lands in a symmetric variant anyway.
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


def redu_saturation_check(h1: Subgroup, h2: Subgroup, m: int, n: int) -> bool:
    """Check that single-edge recolorings by the commutator add nothing to the
    group generated by (h1 left, h2 right) switches plus vertex permutations.

    Equality is forced because the four-switch edge-kill words realize those
    recolorings inside the generated group; the check recomputes both orbit
    partitions and compares.  Undefined for elementwise-commuting pairs.
    """
    witness = noncommuting_witness(h1, h2)
    if witness is None:
        raise ValueError("subgroup pair commutes elementwise; no edge kill exists")
    gamma = commutator(*witness)
    base = generators_for(GroupSpec(h1, h2), m, n)
    extra = [single_edge_action(m, n, i, j, gamma) for i in range(m) for j in range(n)]
    return partitions_equal(
        partition_from_actions(base, m, n), partition_from_actions(base + extra, m, n)
    )
