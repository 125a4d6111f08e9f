import hypothesis.strategies as st
from hypothesis import settings

from switchlab.graphs import new_graph
from switchlab.s3 import ALL_PERMS

settings.register_profile("lab", max_examples=60, deadline=None, derandomize=True)
settings.load_profile("lab")

perms = st.sampled_from(ALL_PERMS)


@st.composite
def graphs(draw, min_m=0, max_m=4, min_n=0, max_n=4):
    m = draw(st.integers(min_m, max_m))
    n = draw(st.integers(min_n, max_n))
    rows = [
        [draw(st.integers(1, 3)) for _ in range(n)]
        for _ in range(m)
    ]
    return new_graph(m, n, rows)


def shifted_cubic_graph(q: int):
    """K_{q,q} colored by the cubic-residue class of i+j mod q; for q = 97
    every ordered triple pattern is realized on both sides."""
    cubes = {pow(x, 3, q) for x in range(1, q)}
    seed_noncube = next(x for x in range(2, q) if x not in cubes)
    label = {0: 1}
    for a in cubes:
        label[a] = 1
        label[seed_noncube * a % q] = 2
        label[seed_noncube * seed_noncube % q * a % q] = 3
    return new_graph(q, q, [[label[(i + j) % q] for j in range(q)] for i in range(q)])
