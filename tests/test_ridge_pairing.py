"""Validation's kept ridge pairing against the routes that rebuild from scratch.

A built-in pair has seeded vertices cut off, its lambda rebased by a matrix
of GL_n(Z) and its facets relabelled.  The dual bases and orientation
signs, which the pair's walk reads off the polytope's kept ridge pairing,
and the sorted edge graph and two-faces, which the polytope builds from
what its validation kept, must equal the reference routes:
test_charpair.reference_weights and reference_orientation_signs (Laplace
determinants and Fraction inverses at every vertex, and a walk comparing
the endpoint weights of every edge), test_polytope.reference_steps,
reference_adjacency and reference_two_faces (the ridges and faces paired
from the vertex sets).  The polytope is validated on its own first in
some examples, as `analyze` and `product` do, before the pair reads its
pairing.
The runs are derandomized and keep no example database.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_charpair import reference_orientation_signs, reference_weights, vertex_cuts
from test_polytope import (
    reference_adjacency,
    reference_steps,
    reference_two_faces,
)

from qtoric.charpair import (
    CharacteristicPair,
    cp_pair,
    cube_pair,
    hirzebruch_pair,
    polygon_pair,
    s2xs2_pair,
)
from qtoric.polytope import SimplePolytope

BASES = {
    "cp:2": lambda: cp_pair(2),
    "cp:4": lambda: cp_pair(4),
    "cube:3": lambda: cube_pair(3),
    "cube:4": lambda: cube_pair(4),
    "hirzebruch:3": lambda: hirzebruch_pair(3),
    "polygon:7": lambda: polygon_pair(7),
    "s2xs2": s2xs2_pair,
    "polygon:5*cp:2": lambda: polygon_pair(5).product_pair(cp_pair(2)),
    "hirzebruch:1*cube:2": lambda: hirzebruch_pair(1).product_pair(cube_pair(2)),
}


@st.composite
def unimodular(draw, n):
    """A matrix of GL_n(Z): signed row permutation, then row additions."""
    perm = draw(st.permutations(range(n)))
    flips = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    a = [[flips[i] if j == perm[i] else 0 for j in range(n)] for i in range(n)]
    if n > 1:
        for _ in range(draw(st.integers(0, 2 * n))):
            i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            k = draw(st.sampled_from((-2, -1, 1, 2)))
            a[i] = [x + k * y for x, y in zip(a[i], a[j])]
    return a


@st.composite
def pairs(draw):
    """(pair, how its polytope is first read): a built-in pair with vertex
    cuts, rebased and relabelled."""
    pair = BASES[draw(st.sampled_from(sorted(BASES)), label="base")]()
    cuts = draw(st.integers(0, 3), label="cuts")
    if cuts:
        pair = vertex_cuts(pair, cuts, draw(st.integers(0, 99), label="cut seed"))
    a = draw(unimodular(pair.n), label="rebasing")
    lam = [tuple(sum(r[k] * a[k][j] for k in range(pair.n)) for j in range(pair.n))
           for r in pair.lam]
    perm = draw(st.permutations(range(pair.m)), label="relabelling")
    rows, signs = [None] * pair.m, [None] * pair.m
    for i, j in enumerate(perm):
        rows[j], signs[j] = lam[i], pair.signs[i]
    poly = SimplePolytope(pair.n, [[perm[i] for i in v] for v in pair.polytope.vertices],
                          facet_count=pair.m)
    first = draw(st.sampled_from(("pair", "polytope", "analyze")), label="first read")
    return CharacteristicPair(poly, rows, signs), first


@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(pairs())
def test_kept_ridge_pairing_matches_the_reference_routes(case):
    pair, first = case
    poly = pair.polytope
    if first == "polytope":
        poly.require_valid()
    elif first == "analyze":
        poly.require_valid()
        poly.is_even()
        poly.is_vertex_graph_bipartite()
        assert len(poly.two_faces) == len(reference_two_faces(poly, reference_adjacency(poly)))
    assert pair.vertex_weights == reference_weights(pair)
    assert pair.orientation_signs == reference_orientation_signs(pair)
    steps, _ = reference_steps(poly.vertices, poly.n)
    assert poly.ridge_pairing() == tuple(tuple(map(tuple, half)) for half in steps)
    adj = reference_adjacency(poly)
    assert poly.vertex_adjacency() == adj
    faces = tuple(reference_two_faces(poly, adj))
    assert poly.two_faces == faces
    assert poly.is_even() == all(len(cycle) % 2 == 0 for _, cycle in faces)
