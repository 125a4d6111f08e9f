"""Permutations and subgroups of the symmetric group on the three edge colors.

Composition is rightmost-first throughout: ``compose(p, q)`` applies ``q``
first, then ``p``.  The six elements are enumerated in lexicographic order of
their image tuples; that order fixes every deterministic scan used elsewhere
in the package.  Products, inverses and cycle-string parsing are lookups in
tables built once at import, and they return the six shared instances of
``ALL_PERMS``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

__all__ = [
    "S3Perm",
    "Subgroup",
    "IDENTITY",
    "ALL_PERMS",
    "TRIVIAL_SUBGROUP",
    "FULL_SUBGROUP",
    "compose",
    "inverse",
    "commutator",
    "commutes",
    "noncommuting_witness",
    "subgroup_generated",
    "enumerate_subgroups",
]


@dataclass(frozen=True, order=True)
class S3Perm:
    """A permutation of the color set {1, 2, 3}, stored as (p(1), p(2), p(3))."""

    image: tuple[int, int, int]

    def __post_init__(self) -> None:
        if tuple(sorted(self.image)) != (1, 2, 3):
            raise ValueError(f"not a permutation of {{1, 2, 3}}: {self.image!r}")

    def __call__(self, color: int) -> int:
        if color not in (1, 2, 3):
            raise ValueError(f"color out of range: {color!r}")
        return self.image[color - 1]

    def is_identity(self) -> bool:
        return self.image == (1, 2, 3)

    def cycle_string(self) -> str:
        """Serialize in cycle notation: "()", "(ab)" with a<b, "(1bc)"."""
        return _CYCLE_BY_IMAGE[self.image]

    @staticmethod
    def from_cycle_string(text: str) -> "S3Perm":
        try:
            return _BY_CYCLE[text.strip()]
        except KeyError:
            raise ValueError(f"unknown cycle string: {text!r}") from None

    def __repr__(self) -> str:
        return f"S3Perm{self.cycle_string()!r}"


_CYCLE_BY_IMAGE: dict[tuple[int, int, int], str] = {
    (1, 2, 3): "()",
    (2, 1, 3): "(12)",
    (3, 2, 1): "(13)",
    (1, 3, 2): "(23)",
    (2, 3, 1): "(123)",
    (3, 1, 2): "(132)",
}

#: All six permutations in canonical (lexicographic image) order; the tables
#: below return these instances.
ALL_PERMS: tuple[S3Perm, ...] = tuple(S3Perm(img) for img in sorted(_CYCLE_BY_IMAGE))
IDENTITY = ALL_PERMS[0]

_BY_IMAGE = {p.image: p for p in ALL_PERMS}
_BY_CYCLE = {p.cycle_string(): p for p in ALL_PERMS}
#: _MUL[p.image, q.image] is compose(p, q); _INV[p.image] is inverse(p).
_MUL = {
    (p.image, q.image): _BY_IMAGE[tuple(p.image[c - 1] for c in q.image)]
    for p in ALL_PERMS
    for q in ALL_PERMS
}
_INV = {a: _BY_IMAGE[b] for (a, b), ab in _MUL.items() if ab is IDENTITY}


def compose(p: S3Perm, q: S3Perm) -> S3Perm:
    """Rightmost-first product: ``compose(p, q)(x) == p(q(x))``."""
    return _MUL[p.image, q.image]


def inverse(p: S3Perm) -> S3Perm:
    return _INV[p.image]


def commutator(f: S3Perm, g: S3Perm) -> S3Perm:
    """g^-1 . f^-1 . g . f under the rightmost-first convention.

    Identity exactly when ``f`` and ``g`` commute.
    """
    return compose(compose(inverse(g), inverse(f)), compose(g, f))


def commutes(f: S3Perm, g: S3Perm) -> bool:
    return _MUL[f.image, g.image] is _MUL[g.image, f.image]


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of the color permutation group (order 1, 2, 3 or 6)."""

    elements: frozenset[S3Perm]
    _generators: tuple[S3Perm, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if IDENTITY not in self.elements:
            raise ValueError("subgroup must contain the identity")
        for p, q in itertools.product(self.elements, repeat=2):
            if compose(p, q) not in self.elements:
                raise ValueError("element set is not closed under composition")
        if self.order == 1:
            gens = ()
        elif self.order == 6:
            gens = (S3Perm.from_cycle_string("(12)"), S3Perm.from_cycle_string("(123)"))
        else:
            gens = (min(p for p in self.elements if not p.is_identity()),)
        object.__setattr__(self, "_generators", gens)

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def label(self) -> str:
        """Canonical name: "1" for trivial, a generator cycle, or "S3"."""
        if self.order == 1:
            return "1"
        if self.order == 6:
            return "S3"
        return self.generators()[0].cycle_string()

    def __iter__(self):
        return iter(sorted(self.elements))

    def generators(self) -> tuple[S3Perm, ...]:
        """A canonical minimal generating set, computed at construction."""
        return self._generators

    def __repr__(self) -> str:
        return f"Subgroup<{self.label}>"


def subgroup_generated(gens) -> Subgroup:
    """Closure of ``gens`` under composition (inverses follow by finiteness)."""
    closure = {IDENTITY} | set(gens)
    while True:
        new = {compose(p, q) for p in closure for q in closure} - closure
        if not new:
            return Subgroup(frozenset(closure))
        closure |= new


#: The six subgroups by (order, canonical label), each generated from its
#: generators; the s3-table-fidelity check compares them with an exhaustive
#: search over element subsets.
_SUBGROUPS: tuple[Subgroup, ...] = tuple(
    subgroup_generated(map(S3Perm.from_cycle_string, gens))
    for gens in ((), ("(12)",), ("(13)",), ("(23)",), ("(123)",), ("(12)", "(123)"))
)
TRIVIAL_SUBGROUP, FULL_SUBGROUP = _SUBGROUPS[0], _SUBGROUPS[-1]


def enumerate_subgroups() -> tuple[Subgroup, ...]:
    """All six subgroups, ordered by (order, canonical label)."""
    return _SUBGROUPS


def noncommuting_witness(h1: Subgroup, h2: Subgroup) -> tuple[S3Perm, S3Perm] | None:
    """First (f, g) in canonical scan order with f.g != g.f, if any."""
    for f in h1:
        for g in h2:
            if not commutes(f, g):
                return (f, g)
    return None
