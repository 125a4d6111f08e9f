import itertools

import pytest

from switchlab.s3 import (
    ALL_PERMS,
    FULL_SUBGROUP,
    IDENTITY,
    TRIVIAL_SUBGROUP,
    S3Perm,
    Subgroup,
    commutator,
    commutes,
    compose,
    enumerate_subgroups,
    inverse,
    noncommuting_witness,
    subgroup_generated,
)


def c(s):
    return S3Perm.from_cycle_string(s)


def brute_compose(p, q):
    # independent oracle: apply q, then p, via dict lookups
    qm = {x: q.image[x - 1] for x in (1, 2, 3)}
    pm = {x: p.image[x - 1] for x in (1, 2, 3)}
    return tuple(pm[qm[x]] for x in (1, 2, 3))


def test_compose_matches_oracle_exhaustively():
    for p, q in itertools.product(ALL_PERMS, repeat=2):
        assert compose(p, q).image == brute_compose(p, q)


# The definitions that the import-time tables replaced: products, inverses
# and parsing built and validated a fresh S3Perm on every call.
def _reference_compose(p, q):
    return S3Perm((p(q(1)), p(q(2)), p(q(3))))


def _reference_inverse(p):
    img = [0, 0, 0]
    for x in (1, 2, 3):
        img[p(x) - 1] = x
    return S3Perm((img[0], img[1], img[2]))


def _reference_commutator(f, g):
    fi, gi = _reference_inverse(f), _reference_inverse(g)
    return _reference_compose(_reference_compose(gi, fi), _reference_compose(g, f))


def _is_canonical(p):
    return any(p is q for q in ALL_PERMS)


def test_tables_match_reference_definitions():
    # fresh, equal but non-canonical instances look up the same entries
    fresh = [S3Perm(tuple(p.image)) for p in ALL_PERMS]
    for p, q in itertools.product(ALL_PERMS + tuple(fresh), repeat=2):
        assert compose(p, q) == _reference_compose(p, q)
        assert commutator(p, q) == _reference_commutator(p, q)
        assert commutes(p, q) == (_reference_compose(p, q) == _reference_compose(q, p))
        assert _is_canonical(compose(p, q)) and _is_canonical(commutator(p, q))
    for p in ALL_PERMS + tuple(fresh):
        assert inverse(p) == _reference_inverse(p) and _is_canonical(inverse(p))
    assert IDENTITY is ALL_PERMS[0]


def test_shared_instances_keep_equality_order_and_repr():
    for p in ALL_PERMS:
        parsed = S3Perm.from_cycle_string(" " + p.cycle_string() + " ")
        assert parsed is p
        assert parsed == S3Perm(p.image) and hash(parsed) == hash(S3Perm(p.image))
        assert repr(parsed) == f"S3Perm{p.cycle_string()!r}"
    assert repr(c("(123)")) == "S3Perm'(123)'"
    assert sorted(reversed(ALL_PERMS)) == list(ALL_PERMS)
    assert [p.image for p in ALL_PERMS] == sorted(itertools.permutations((1, 2, 3)))
    with pytest.raises(ValueError, match="unknown cycle string: '\\(21\\)'"):
        S3Perm.from_cycle_string("(21)")


# the twelve products displayed for the six non-commuting subgroup pairs
DISPLAYED_PRODUCTS = [
    ("(12)", "(123)", "(23)"),
    ("(123)", "(12)", "(13)"),
    ("(13)", "(123)", "(12)"),
    ("(123)", "(13)", "(23)"),
    ("(23)", "(123)", "(13)"),
    ("(123)", "(23)", "(12)"),
    ("(12)", "(13)", "(132)"),
    ("(13)", "(12)", "(123)"),
    ("(12)", "(23)", "(123)"),
    ("(23)", "(12)", "(132)"),
    ("(23)", "(13)", "(123)"),
    ("(13)", "(23)", "(132)"),
]


@pytest.mark.parametrize("a,b,expected", DISPLAYED_PRODUCTS)
def test_product_table(a, b, expected):
    assert compose(c(a), c(b)) == c(expected)


def test_identity_neutral_and_inverses():
    for p in ALL_PERMS:
        assert compose(p, IDENTITY) == p
        assert compose(IDENTITY, p) == p
        assert compose(p, inverse(p)) == IDENTITY
    assert inverse(c("(123)")) == c("(132)")
    assert inverse(c("(12)")) == c("(12)")
    assert inverse(IDENTITY) == IDENTITY


def test_associativity_exhaustive():
    for p, q, r in itertools.product(ALL_PERMS, repeat=3):
        assert compose(compose(p, q), r) == compose(p, compose(q, r))


def test_commutator_iff_commutes():
    for f, g in itertools.product(ALL_PERMS, repeat=2):
        assert (commutator(f, g) == IDENTITY) == commutes(f, g)


def test_commutator_values():
    assert commutator(c("(12)"), c("(12)")) == IDENTITY
    assert commutator(c("(123)"), c("(132)")) == IDENTITY

    # oracle: evaluate g^-1(f^-1(g(f(x)))) pointwise
    def oracle(f, g):
        fi, gi = inverse(f), inverse(g)
        return tuple(gi(fi(g(f(x)))) for x in (1, 2, 3))

    got = commutator(c("(123)"), c("(12)"))
    assert got.image == oracle(c("(123)"), c("(12)"))
    assert got == c("(132)")


def test_perm_validation():
    with pytest.raises(ValueError):
        S3Perm((1, 1, 3))
    with pytest.raises(ValueError):
        c("(1234)")
    with pytest.raises(ValueError):
        IDENTITY(0)


def test_cycle_string_round_trip():
    for p in ALL_PERMS:
        assert S3Perm.from_cycle_string(p.cycle_string()) == p
    assert {p.cycle_string() for p in ALL_PERMS} == {
        "()",
        "(12)",
        "(13)",
        "(23)",
        "(123)",
        "(132)",
    }


def test_enumerate_subgroups():
    subs = enumerate_subgroups()
    assert len(subs) == 6
    assert tuple(h.order for h in subs) == (1, 2, 2, 2, 3, 6)
    assert [h.label for h in subs] == ["1", "(12)", "(13)", "(23)", "(123)", "S3"]
    for h in subs:
        for p, q in itertools.product(h.elements, repeat=2):
            assert compose(p, q) in h
            assert inverse(p) in h


def test_subgroup_validation():
    with pytest.raises(ValueError):
        Subgroup(frozenset({c("(12)")}))  # no identity
    with pytest.raises(ValueError):
        Subgroup(frozenset({IDENTITY, c("(12)"), c("(13)")}))  # not closed


def test_subgroup_generated():
    assert subgroup_generated({c("(12)")}).order == 2
    assert subgroup_generated({c("(12)"), c("(13)")}) == FULL_SUBGROUP
    assert subgroup_generated(set()) == TRIVIAL_SUBGROUP
    nontrivial = [h for h in enumerate_subgroups() if h.order > 1]
    for h1, h2 in itertools.combinations(nontrivial, 2):
        assert subgroup_generated(h1.elements | h2.elements) == FULL_SUBGROUP


def test_elementwise_commute():
    by_label = {h.label: h for h in enumerate_subgroups()}
    assert noncommuting_witness(by_label["(12)"], by_label["(12)"]) is None
    assert noncommuting_witness(by_label["(12)"], by_label["(123)"]) is not None
    assert noncommuting_witness(by_label["(13)"], by_label["(23)"]) is not None
    # no two distinct nontrivial proper subgroups commute elementwise
    proper = [h for h in enumerate_subgroups() if h.order in (2, 3)]
    for h1, h2 in itertools.combinations(proper, 2):
        assert noncommuting_witness(h1, h2) is not None
        # the first pair in canonical order is the two generators
        f, g = noncommuting_witness(h1, h2)
        assert (f, g) == (h1.generators()[0], h2.generators()[0])
        assert f in h1 and g in h2 and compose(f, g) != compose(g, f)
    assert noncommuting_witness(by_label["(12)"], by_label["(12)"]) is None


def test_noncommuting_witness_is_none_exactly_for_commuting_pairs():
    # the all-pairs test the witness search replaced, over all 36 ordered pairs
    pairs = list(itertools.product(enumerate_subgroups(), repeat=2))
    commuting = [all(commutes(f, g) for f in h1 for g in h2) for h1, h2 in pairs]
    assert len(pairs) == 36 and sum(commuting) == 15
    for (h1, h2), expected in zip(pairs, commuting):
        assert (noncommuting_witness(h1, h2) is None) == expected, (h1, h2)
