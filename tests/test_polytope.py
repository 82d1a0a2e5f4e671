import collections
import enum
import itertools
import random
import re
import subprocess
import sys

import pytest
from test_charpair import rp2_dual_pair, vertex_cuts
from test_cli import _limit_address_space

from qtoric import polytope
from qtoric.charpair import cp_pair, cube_pair

from qtoric.errors import (
    BudgetExceededError,
    StructureError,
    ValidationError,
)
from qtoric.polytope import (
    VALIDATION_BUDGET,
    FacetColoring,
    SimplePolytope,
    cube,
    facet_chromatic,
    greedy_coloring,
    interval,
    polygon,
    prism,
    simplex,
    int_vector,
    verify_coloring,
    _check_validation_work,
)


class _Level(enum.IntEnum):
    ONE = 1


@pytest.mark.parametrize("values", [[True], [1.0], ["1"], [None], [[1]], [_Level.ONE],
                                    [1, 2, False], 1, "12", None],
                         ids=repr)
def test_int_vector_refuses_anything_but_a_list_of_ints(values):
    with pytest.raises(StructureError, match="^v must be a list of integers, got "):
        int_vector(values, "v")


@pytest.mark.parametrize("values", [[], (1, 2), [-3], [0, 2 ** 80]], ids=repr)
def test_int_vector_accepts_lists_of_ints(values):
    out = int_vector(values, "v")
    assert out == tuple(values) and type(out) is tuple


def brute_force_chromatic(poly):
    """Independent oracle: try all colorings by exhaustive enumeration."""
    adj = poly.facet_adjacency()
    m = poly.facet_count
    for d in range(1, m + 1):
        for assignment in itertools.product(range(d), repeat=m):
            if all(assignment[i] != assignment[j]
                   for i in range(m) for j in adj[i] if i < j):
                return d
    return m


def corpus():
    polys = [cube(n) for n in range(1, 5)]
    polys += [simplex(n) for n in range(1, 5)]
    polys += [polygon(k) for k in range(3, 9)]
    polys += [prism(3), prism(4), cube(2).product(simplex(2))]
    return polys


# ----------------------------------------------------------------------
# validation


def test_cube3_counts():
    p = cube(3)
    assert p.validate().ok
    assert len(p.vertices) == 8
    assert p.facet_count == 6
    assert len(p.edges) == 12
    assert len(p.two_faces) == 6
    assert all(len(cycle) == 4 for _, cycle in p.two_faces)


def test_triangle_counts():
    p = simplex(2)
    assert p.validate().ok
    assert len(p.edges) == 3
    assert p.two_faces == (((), (0, 1, 2)),)


def test_simplicity_violation_reported():
    # a "triangle" whose vertex lists all three facets
    p = SimplePolytope(2, [(0, 1, 2), (0, 1), (1, 2)])
    report = p.validate()
    assert not report.ok
    assert any(c.name == "simplicity" and not c.passed for c in report.checks)
    with pytest.raises(ValidationError) as exc:
        p.require_valid()
    assert str(exc.value) == (
        "invalid polytope ?: simplicity: vertex (0, 1, 2) has 3 facets, expected 2; "
        "edge-graph-connected: edge graph is disconnected or undefined")
    assert exc.value.report is report


def test_structural_errors():
    with pytest.raises(StructureError):
        SimplePolytope(2, [(0, 0)])  # repeated facet in a vertex
    with pytest.raises(StructureError):
        SimplePolytope(2, [(0, 1), (0, 1)])  # duplicate vertex
    with pytest.raises(StructureError):
        SimplePolytope(2, [(0, 5)], facet_count=3)  # out of range


def test_duplicate_vertex_names_the_first_repeated_in_input_order():
    # [A, B, B, A]: B is the first to repeat, but A is the first listed that repeats
    with pytest.raises(StructureError, match=r"^duplicate vertex \(1, 2\)$"):
        SimplePolytope(2, [(2, 1), (0, 1), (1, 0), (1, 2)])


@pytest.mark.parametrize("make", [
    lambda: cube(16),
    lambda: simplex(160),
    lambda: polygon(10 ** 8),
    lambda: cube(40),
    lambda: cube(10 ** 21),
    lambda: cube(8).product(cube(8)),
    lambda: SimplePolytope(160, [[j for j in range(161) if j != i]
                                 for i in range(161)]).validate(),
], ids=["cube:16", "simplex:160", "polygon:10^8", "cube:40", "cube:10^21", "cube:8*cube:8",
        "160-simplex validate"])
def test_oversize_polytopes_exceed_the_validation_budget(make):
    """Refused from the vertex count before any vertex is built, or by
    validate before the ridges are paired."""
    with pytest.raises(BudgetExceededError, match="over the budget of %d" % VALIDATION_BUDGET):
        make()


def test_validation_budget_admits_cube_15_and_polygon_461538():
    _check_validation_work(2 ** 15, 15)
    _check_validation_work(461538, 2)
    with pytest.raises(BudgetExceededError):
        _check_validation_work(461539, 2)


@pytest.mark.parametrize("vertices,detail", [
    # cube:3 without its vertex (0, 1, 2): the ridge (0, 1) lies in one vertex
    (cube(3).vertices[1:], "facet set (0, 1) lies in 1 vertices, expected 2"),
    # cube:3 with a vertex (0, 1, 6) more: the ridge (0, 1) lies in three
    (cube(3).vertices + ((0, 1, 6),), "facet set (0, 1) lies in 3 vertices, expected 2"),
    # the ridge (0, 5) is listed a third time (by (0, 5, 6)) after (0, 1) was
    # listed alone, so the first ridge listed with a count other than 2 is (0, 1)
    (cube(3).vertices[1:] + ((0, 5, 6),), "facet set (0, 1) lies in 1 vertices, expected 2"),
    # a ridge listed four times is named with its full count
    (cube(3).vertices + ((0, 1, 6), (0, 1, 7)),
     "facet set (0, 1) lies in 4 vertices, expected 2"),
], ids=["one vertex", "three vertices", "one vertex listed before three",
        "four vertices"])
def test_edge_regularity_names_the_first_ridge_not_in_two_vertices(vertices, detail):
    report = SimplePolytope(3, vertices).validate()
    assert not report.ok
    assert [(c.name, c.detail) for c in report.failures()][0] == ("edge-regularity", detail)


def test_unused_facet_detected():
    p = SimplePolytope(1, [(0,), (1,)], facet_count=3)
    report = p.validate()
    assert any(c.name == "facet-coverage" and not c.passed for c in report.checks)


@pytest.mark.parametrize("vertices,message", [
    ([[0, 0], [1.0, 2]], "vertex 0 repeats a facet index: (0, 0)"),
    ([[1.0, 2], [0, 0]], "vertex 0 must be a list of integers, got [1.0, 2]"),
    ([[0, 1], [-1, 2]], "vertex 1 has a bad facet index -1"),
    ([[-1, 2], [0, 0]], "vertex 0 has a bad facet index -1"),
    ([[0, 0], [-1, 2]], "vertex 0 repeats a facet index: (0, 0)"),
    ([[], [0, -3], [True, 1]], "vertex 1 has a bad facet index -3"),
    ([[0, 1], [2, 1, 2]], "vertex 1 repeats a facet index: (1, 2, 2)"),
    ([[0, 1], 5], "vertex 1 must be a list of integers, got 5"),
    ([[0, 1], "12"], "vertex 1 must be a list of integers, got '12'"),
    ([[1, 0], [0, 1]], "duplicate vertex (0, 1)"),
    ([], "polytope needs at least one vertex"),
], ids=["repeat before float", "float before repeat", "negative", "negative before repeat",
        "repeat before negative", "empty vertex then negative then bool", "repeat",
        "scalar vertex", "string vertex", "duplicate", "no vertex"])
def test_vertex_errors_name_the_first_vertex_and_check_that_fails(vertices, message):
    with pytest.raises(StructureError, match="^%s$" % re.escape(message)):
        SimplePolytope(2, vertices)


@pytest.mark.parametrize("vertices,message", [
    ([[0], [10 ** 8]], "facet index 100000000 implies 100000001 facets, more than the 2 "
                       "facet incidences of the vertices can cover"),
    ([[0], [2]], "facet index 2 implies 3 facets, more than the 2 facet incidences of the "
                 "vertices can cover"),
], ids=["10^8", "2"])
def test_an_inferred_facet_count_over_the_incidences_is_refused_at_once(vertices, message):
    """Some facet would be unused, so no facet name is built; 10^8 names
    would take gigabytes."""
    with pytest.raises(StructureError, match="^%s$" % re.escape(message)):
        SimplePolytope(1, vertices)
    # as many facets as incidences is admitted
    assert SimplePolytope(1, [[0], [1]]).facet_count == 2


@pytest.mark.parametrize("top", [4, 10 ** 8], ids=["5 facets", "10^8 + 1 facets"])
def test_an_explicit_facet_count_past_twice_the_incidences_is_refused_at_once(top):
    """The vertices [0] and [top] with facet_count top + 1 and no names: more
    facets than incidences would be unused, so no facet name is built.  Run
    with 1 GiB of address space, which 10^8 names would overrun."""
    code = ("from qtoric.errors import StructureError\n"
            "from qtoric.polytope import SimplePolytope\n"
            "try:\n"
            "    SimplePolytope(1, [[0], [%d]], facet_count=%d)\n"
            "except StructureError as exc:\n"
            "    print(exc)\n" % (top, top + 1))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=30, preexec_fn=_limit_address_space)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == ("facet_count %d leaves at least %d facets unused, more than the 2 "
                           "facet incidences of the vertices\n" % (top + 1, top - 1))


@pytest.mark.parametrize("vertices, facet_count, unused", [
    ([[0], [1]], 4, [2, 3]),
    (cube(3).vertices, 7, [6]),
    (cube(3).vertices, 48, list(range(6, 48))),
], ids=["twice the incidences", "cube:3 and one more", "cube:3 and twice its incidences"])
def test_an_explicit_facet_count_up_to_twice_the_incidences_fails_facet_coverage(
        vertices, facet_count, unused):
    p = SimplePolytope(len(vertices[0]), vertices, facet_count=facet_count)
    assert [(c.name, c.detail) for c in p.validate().failures()] == [
        ("facet-coverage", "unused facets %r" % unused)]


def reference_steps(faces, n):
    """The two-pass ridge pairing: each ridge's (face, k) listings gathered
    in lists, then each ridge of two listings paired, or the first ridge
    listed with another count returned with that count."""
    ridges = {}
    for v, face in enumerate(faces):
        for ridge, i in zip(itertools.combinations(face, n - 1), range(n - 1, -1, -1)):
            ridges.setdefault(ridge, []).append((v, i))
    neighbours = [[0] * n for _ in faces]
    entered = [[0] * n for _ in faces]
    for ridge, ends in ridges.items():
        if len(ends) != 2:
            return None, (ridge, len(ends))
        (a, i), (b, j) = ends
        neighbours[a][i], entered[a][i] = b, faces[b][j]
        neighbours[b][j], entered[b][j] = a, faces[a][i]
    return (neighbours, entered), None


def perturbed(p, rng):
    """p's vertices with some removed and some random n-sets of facets (new
    or old) added, sorted as the constructor sorts them."""
    n, m = p.dim, p.facet_count
    verts = set(p.vertices)
    for _ in range(rng.randint(0, 2)):
        verts.discard(rng.choice(sorted(verts)))
    for _ in range(rng.randint(0 if verts != set(p.vertices) else 1, 3)):
        verts.add(tuple(sorted(rng.sample(range(m + 2), n))))
    return sorted(verts)


def test_one_pass_pairing_matches_the_two_pass_reference():
    """On valid incidences _steps pairs as the reference does; on perturbed
    ones it names the same first ridge with the same count."""
    rng = random.Random(26)
    bases = corpus() + [vertex_cuts(cube_pair(4), 5, 1).polytope,
                        vertex_cuts(cp_pair(3), 4, 2).polytope]
    counts = collections.Counter()
    for p in bases:
        assert polytope._steps(p.vertices, p.dim) == reference_steps(p.vertices, p.dim)
        for _ in range(20):
            faces = perturbed(p, rng)
            steps, bad = polytope._steps(faces, p.dim)
            assert (steps, bad) == reference_steps(faces, p.dim), (p.name, faces)
            counts[min(bad[1], 3) if bad else 2] += 1
    # ridges in one face, in three or more, and incidences that still pair all occur
    assert set(counts) == {1, 2, 3}, counts


def brute_force_facet_pairs(p):
    return {(i, j) for i, j in itertools.combinations(range(p.facet_count), 2)
            if any(i in v and j in v for v in p.vertices)}


def test_facet_pairs_are_the_brute_force_pairs():
    for p in corpus() + [vertex_cuts(cube_pair(4), 5, 1).polytope,
                         SimplePolytope(2, [(0, 1, 2), (0, 1), (1, 2)])]:
        pairs = p.facet_pairs()
        assert pairs == brute_force_facet_pairs(p), p.name
        assert p.facet_pairs() is pairs


def test_verify_coloring_on_an_unvalidated_polytope_names_the_first_pair_in_vertex_order():
    """Facets 1, 5 (in the first vertex) and 0, 3 (in the second) both share
    a colour; the pair named is the first in vertex order, not the least."""
    p = SimplePolytope(3, [(0, 3, 4), (0, 1, 5), (2, 3, 5)])
    bad = FacetColoring({0: 1, 1: 2, 2: 3, 3: 1, 4: 3, 5: 2}, 3)
    with pytest.raises(ValidationError, match="^facets 1,5 share a vertex but also color 2$"):
        verify_coloring(p, bad)
    assert verify_coloring(p, FacetColoring({0: 1, 1: 2, 2: 1, 3: 2, 4: 3, 5: 3}, 3))
    assert p._report is None  # nothing was validated


def test_edge_count_consistency():
    for p in corpus():
        p.require_valid()
        assert 2 * len(p.edges) == p.dim * len(p.vertices), p.name


# ----------------------------------------------------------------------
# the two-face walk against the old neighbour-filtering route


def reference_adjacency(p):
    """Ascending vertex-adjacency lists from the ridge map of vertex ids."""
    ridge_map = {}
    for vid, v in enumerate(p.vertices):
        for sub in itertools.combinations(v, p.dim - 1):
            ridge_map.setdefault(sub, []).append(vid)
    adj = [[] for _ in p.vertices]
    for a, b in ridge_map.values():
        adj[a].append(b)
        adj[b].append(a)
    return tuple(tuple(sorted(ns)) for ns in adj)


def reference_two_faces(p, adj):
    """The old `_trace_two_faces`: each face's members, their neighbours
    filtered to the face, and a walk from the lowest member."""
    n = p.dim
    if n < 2:
        return []
    face_vertices = {}
    for vid, v in enumerate(p.vertices):
        for sub in itertools.combinations(v, n - 2):
            face_vertices.setdefault(sub, []).append(vid)
    faces = []
    for sub in sorted(face_vertices):
        members = face_vertices[sub]
        if len(members) < 3:
            raise ValidationError("two-face %r has only %d vertices" % (sub, len(members)))
        mset = set(members)
        nbrs = {v: [w for w in adj[v] if w in mset] for v in members}
        if any(len(ns) != 2 for ns in nbrs.values()):
            raise ValidationError("two-face %r is not 2-regular" % (sub,))
        start = min(members)
        cycle = [start]
        prev, cur = None, start
        while True:
            a, b = nbrs[cur]
            nxt = b if a == prev else a
            if nxt == start:
                break
            if nxt in cycle:
                raise ValidationError("two-face %r cycle is not simple" % (sub,))
            cycle.append(nxt)
            prev, cur = cur, nxt
        if len(cycle) != len(mset):
            raise ValidationError("two-face %r is not a single cycle" % (sub,))
        faces.append((sub, tuple(cycle)))
    return faces


def relabelled(p, seed):
    """p with its facets permuted by a seeded non-identity permutation."""
    rng = random.Random(seed)
    perm = list(range(p.facet_count))
    while perm == sorted(perm):
        perm = rng.sample(range(p.facet_count), p.facet_count)
    return SimplePolytope(p.dim, [[perm[i] for i in v] for v in p.vertices],
                          facet_count=p.facet_count, name="%s relabelled" % p.name)


WALK_CASES = (
    [("cube:%d" % n, lambda n=n: cube(n)) for n in range(1, 10)]
    + [("simplex:%d" % n, lambda n=n: simplex(n)) for n in range(1, 8)]
    + [("polygon:%d" % k, lambda k=k: polygon(k)) for k in range(3, 9)]
    + [("prism:5", lambda: prism(5)),
       ("cube:3*polygon:5", lambda: cube(3).product(polygon(5))),
       ("polygon:6*polygon:4", lambda: polygon(6).product(polygon(4))),
       ("cp:4 with 3 vertex cuts", lambda: vertex_cuts(cp_pair(4), 3, 4).polytope),
       ("cube:5 with 24 vertex cuts", lambda: vertex_cuts(cube_pair(5), 24, 5).polytope),
       ("cube:6 relabelled", lambda: relabelled(cube(6), 1)),
       ("cube:3*polygon:5 relabelled", lambda: relabelled(cube(3).product(polygon(5)), 2)),
       ("cube:5 with 24 vertex cuts relabelled",
        lambda: relabelled(vertex_cuts(cube_pair(5), 24, 5).polytope, 3))]
)


def reference_lowest(p):
    """The old lowest-vertex map of `_trace_two_faces`, built at C level over
    every (vertex, two-face) incidence: facet complement -> the lowest vertex
    containing it (empty for n = 1)."""
    n = p.dim
    if n < 2:
        return {}
    verts = p.vertices
    down = range(len(verts) - 1, -1, -1)
    return dict(zip(
        itertools.chain.from_iterable(
            map(itertools.combinations, reversed(verts), itertools.repeat(n - 2))),
        itertools.chain.from_iterable(
            map(itertools.repeat, down, itertools.repeat(n * (n - 1) // 2)))))


# WALK_CASES and the benchmark's vertex-cut sizes, polygons and a long-polygon
# product: the inputs whose two-faces validation traces from per-facet masks
START_CASES = WALK_CASES + [
    ("cp:5 with 50 vertex cuts", lambda: vertex_cuts(cp_pair(5), 50, 1).polytope),
    ("cube:5 with 60 vertex cuts", lambda: vertex_cuts(cube_pair(5), 60, 1).polytope),
    ("polygon:9", lambda: polygon(9)),
    ("polygon:1001", lambda: polygon(1001)),
    ("polygon:40*cube:2", lambda: polygon(40).product(cube(2))),
]


@pytest.mark.parametrize("make", [m for _, m in START_CASES],
                         ids=[name for name, _ in START_CASES])
def test_traced_faces_start_at_the_old_maps_lowest_vertex(make):
    """Validation's traced faces (6 or more vertices) and every face of
    two_faces start where the old map said."""
    p = make()
    lowest = reference_lowest(p)
    large = sorted(sub for sub, size in p.two_face_sizes() if size >= 6)
    traced = list(p._trace_two_faces(large, p.ridge_pairing()))
    assert [sub for sub, _ in traced] == large
    assert [cycle[0] for _, cycle in traced] == [lowest[sub] for sub in large]
    assert [cycle[0] for _, cycle in p.two_faces] == [lowest[sub] for sub, _ in p.two_face_sizes()]


@pytest.mark.parametrize("make", [m for _, m in START_CASES],
                         ids=[name for name, _ in START_CASES])
def test_two_face_sizes_are_the_sorted_counts(make):
    p = make()
    assert p.two_face_sizes() == tuple(sorted(p.require_valid()._sizes.items()))


@pytest.mark.parametrize("make", [m for _, m in WALK_CASES],
                         ids=[name for name, _ in WALK_CASES])
def test_two_face_walk_matches_neighbour_filtering(make):
    p = make()
    adj = reference_adjacency(p)
    assert p.vertex_adjacency() == adj
    assert p.two_faces == tuple(reference_two_faces(p, adj))


# The dual of an icosahedron with two antipodal vertices identified (facets 0
# and 10 swapped): edge-regular, connected and 2-regular on every two-face,
# but the two-face of facet 10 is two disjoint pentagons.
SPLIT_FACE = [[0, 1, 5], [0, 1, 6], [0, 5, 9], [0, 6, 10], [0, 9, 10], [1, 2, 6],
              [1, 2, 10], [1, 5, 10], [2, 3, 7], [2, 3, 10], [2, 6, 7], [3, 4, 8],
              [3, 4, 10], [3, 7, 8], [4, 5, 9], [4, 5, 10], [4, 8, 9], [6, 7, 10],
              [7, 8, 10], [8, 9, 10]]


def test_two_face_of_several_cycles_fails():
    p = SimplePolytope(3, SPLIT_FACE)
    assert p.validate().as_dict() == {"ok": False, "checks": [
        {"name": "simplicity", "passed": True, "detail": ""},
        {"name": "edge-regularity", "passed": True, "detail": ""},
        {"name": "edge-graph-connected", "passed": True, "detail": ""},
        {"name": "facet-coverage", "passed": True, "detail": ""},
        {"name": "two-faces-polygonal", "passed": False,
         "detail": "two-face (10,) is not a single cycle"}]}
    # the old route names the same face
    with pytest.raises(ValidationError, match=r"^two-face \(10,\) is not a single cycle$"):
        reference_two_faces(p, reference_adjacency(p))
    with pytest.raises(ValidationError, match="two-faces-polygonal"):
        p.require_valid()


# The 3-cube on facets 0-5 (opposite facets 2k and 2k + 1; its vertices are
# the triangles of the octahedron on 0-5) with the vertices (0,2,4) and
# (1,3,5) each cut off by one shared new facet 6, so each of those triangles
# becomes a cone to 6: edge-regular and connected, with 12 vertices, but the
# two-face of facet 6 is two triangles, the smallest face that counting alone
# cannot clear.
TWO_TRIANGLES = [[0, 2, 5], [0, 3, 4], [0, 3, 5], [1, 2, 4], [1, 2, 5], [1, 3, 4],
                 [0, 2, 6], [0, 4, 6], [2, 4, 6], [1, 3, 6], [1, 5, 6], [3, 5, 6]]


def test_two_face_of_two_triangles_fails():
    p = SimplePolytope(3, TWO_TRIANGLES)
    report = p.validate()
    assert [c.name for c in report.failures()] == ["two-faces-polygonal"]
    assert report.checks[-1].detail == "two-face (6,) is not a single cycle"
    with pytest.raises(ValidationError, match=r"^two-face \(6,\) is not a single cycle$"):
        reference_two_faces(p, reference_adjacency(p))


def _refuse_trace(*args):
    raise AssertionError("a face was traced")


@pytest.mark.parametrize("make", [lambda: cube(9), lambda: simplex(7),
                                  lambda: cp_pair(4).polytope,
                                  lambda: cube(3).product(polygon(5))],
                         ids=["cube:9", "simplex:7", "cp:4", "cube:3*polygon:5"])
def test_faces_of_at_most_five_vertices_are_counted_not_traced(make, monkeypatch):
    p = make()
    monkeypatch.setattr(SimplePolytope, "_trace_two_faces", _refuse_trace)
    p.require_valid()
    assert p.is_even() == all(size % 2 == 0 for _, size in p.two_face_sizes())


@pytest.mark.parametrize("make", [lambda: polygon(6), lambda: SimplePolytope(3, SPLIT_FACE)],
                         ids=["polygon:6", "split-face"])
def test_faces_of_six_or_more_vertices_are_traced(make, monkeypatch):
    p = make()
    monkeypatch.setattr(SimplePolytope, "_trace_two_faces", _refuse_trace)
    with pytest.raises(AssertionError, match="a face was traced"):
        p.validate()


@pytest.mark.parametrize("make", [m for _, m in WALK_CASES],
                         ids=[name for name, _ in WALK_CASES])
def test_two_face_sizes_match_reference_cycles(make):
    p = make()
    assert p.two_face_sizes() == tuple(
        (sub, len(cycle)) for sub, cycle in reference_two_faces(p, reference_adjacency(p)))


# ----------------------------------------------------------------------
# adjacency


def test_square_adjacency_is_4_cycle():
    adj = polygon(4).facet_adjacency()
    assert adj[0] == {1, 3} and adj[2] == {1, 3}


def test_simplex_adjacency_complete():
    for n in (2, 3, 4):
        adj = simplex(n).facet_adjacency()
        for i in range(n + 1):
            assert adj[i] == set(range(n + 1)) - {i}


def test_cube3_adjacency_is_octahedral():
    # derived: facets i, i+3 are opposite, everything else meets
    adj = cube(3).facet_adjacency()
    for i in range(6):
        expected = set(range(6)) - {i, (i + 3) % 6}
        assert adj[i] == expected


# ----------------------------------------------------------------------
# evenness / bipartiteness


def test_is_even_examples():
    assert cube(2).is_even() and cube(3).is_even() and cube(4).is_even()
    assert not simplex(2).is_even()
    assert not simplex(3).is_even()
    assert polygon(6).is_even()
    assert not polygon(5).is_even()
    assert interval().is_even()  # vacuous for n = 1


def test_bipartite_examples():
    assert cube(3).is_vertex_graph_bipartite()
    assert not polygon(5).is_vertex_graph_bipartite()
    assert not simplex(3).is_vertex_graph_bipartite()


# ----------------------------------------------------------------------
# coloring


def test_chromatic_examples():
    assert facet_chromatic(cube(2))[0] == 2
    assert facet_chromatic(cube(4))[0] == 4
    assert facet_chromatic(simplex(3))[0] == 4
    assert facet_chromatic(polygon(6))[0] == 2
    assert facet_chromatic(polygon(5))[0] == 3
    assert facet_chromatic(prism(3))[0] == 4


def test_chromatic_of_a_long_odd_polygon():
    """The backtracking search keeps its own stack: the 1001-gon, whose
    failed 2-colouring search goes 1001 facets deep, has chromatic number 3."""
    p = polygon(1001)
    d, coloring = facet_chromatic(p)
    assert d == 3 == coloring.color_count
    assert verify_coloring(p, coloring)


def test_chromatic_against_brute_force():
    for p in [polygon(5), polygon(6), simplex(2), prism(3), cube(2)]:
        d, coloring = facet_chromatic(p)
        assert d == brute_force_chromatic(p), p.name
        verify_coloring(p, coloring)
        assert coloring.color_count == d


def test_coloring_deterministic():
    a = facet_chromatic(prism(4))[1]
    b = facet_chromatic(prism(4))[1]
    assert a.colors == b.colors


def test_budget_exceeded_is_inconclusive(monkeypatch):
    monkeypatch.setattr(polytope, "DEFAULT_NODE_BUDGET", 1)
    with pytest.raises(BudgetExceededError):
        facet_chromatic(polygon(5))


def test_bad_coloring_rejected():
    p = polygon(4)
    bad = FacetColoring({0: 1, 1: 1, 2: 2, 3: 2}, 2)
    with pytest.raises(ValidationError):
        verify_coloring(p, bad)


# ----------------------------------------------------------------------
# Joswig equivalence (the three conditions always agree)


def test_joswig_equivalence_on_corpus():
    for p in corpus():
        even = p.is_even()
        bip = p.is_vertex_graph_bipartite()
        d_min, _ = facet_chromatic(p)
        assert even == bip == (d_min == p.dim), p.name


# ----------------------------------------------------------------------
# products


def test_interval_product_is_square():
    sq = interval().product(interval())
    assert sq.dim == 2 and sq.facet_count == 4
    assert len(sq.vertices) == 4
    assert facet_chromatic(sq)[0] == 2


def test_square_times_interval_is_cube3():
    c = polygon(4).product(interval())
    assert c.dim == 3 and c.facet_count == 6 and len(c.vertices) == 8
    assert facet_chromatic(c)[0] == 3


def test_triangular_prism():
    p = simplex(2).product(interval())
    assert p.facet_count == 5 and len(p.vertices) == 6
    assert facet_chromatic(p)[0] == 4 == brute_force_chromatic(p)


def test_product_coloring_bound():
    for p1, p2 in [(polygon(5), interval()), (simplex(2), simplex(2))]:
        d1 = facet_chromatic(p1)[0]
        d2 = facet_chromatic(p2)[0]
        d = facet_chromatic(p1.product(p2))[0]
        assert d <= d1 + d2


def test_product_commutative_up_to_relabeling():
    nx = pytest.importorskip("networkx")

    def facet_graph(p):
        g = nx.Graph()
        g.add_nodes_from(range(p.facet_count))
        adj = p.facet_adjacency()
        for i in range(p.facet_count):
            for j in adj[i]:
                if i < j:
                    g.add_edge(i, j)
        return g

    for p1, p2 in [(polygon(4), interval()), (simplex(2), polygon(4))]:
        g_ab = facet_graph(p1.product(p2))
        g_ba = facet_graph(p2.product(p1))
        assert nx.is_isomorphic(g_ab, g_ba)


# ----------------------------------------------------------------------
# f- and h-vectors


H_VECTOR_CASES = (
    [("cube:%d" % n, lambda n=n: cube(n)) for n in range(3, 10)]
    + [("simplex:%d" % n, lambda n=n: simplex(n)) for n in range(1, 7)]
    + [("polygon:6^3", lambda: polygon(6).product(polygon(6)).product(polygon(6))),
       ("cube:3*polygon:5", lambda: cube(3).product(polygon(5))),
       ("prism:5*simplex:3", lambda: prism(5).product(simplex(3))),
       ("cp:4 with 3 vertex cuts", lambda: vertex_cuts(cp_pair(4), 3, 4).polytope),
       ("cube:5 with 60 vertex cuts", lambda: vertex_cuts(cube_pair(5), 60, 5).polytope),
       ("cp:5 with 50 vertex cuts", lambda: vertex_cuts(cp_pair(5), 50, 5).polytope),
       ("cube:6 relabelled", lambda: relabelled(cube(6), 1))]
)


@pytest.mark.parametrize("make", [m for _, m in H_VECTOR_CASES],
                         ids=[name for name, _ in H_VECTOR_CASES])
def test_h_vector_meets_dehn_sommerville(make):
    """The h-vector of a simple polytope is symmetric, h_k = h_{n-k}
    (Dehn-Sommerville), starts at h_0 = 1 and sums to the number of
    vertices, on cut inputs, relabelled polytopes and products alike."""
    p = make()
    p.require_valid()
    h = p.h_vector()
    assert len(h) == p.dim + 1
    assert h == h[::-1]
    assert h[0] == 1
    assert sum(h) == len(p.vertices)


def test_rp2_dual_validates_with_an_asymmetric_h_vector():
    """The dual of the 6-vertex RP^2 passes validation, but it is no
    sphere: its h-vector breaks Dehn-Sommerville."""
    p = rp2_dual_pair().polytope
    p.require_valid()
    assert p.h_vector() == (0, 6, 3, 1)


def test_h_vectors():
    assert simplex(2).h_vector() == (1, 1, 1)
    assert simplex(3).h_vector() == (1, 1, 1, 1)
    assert cube(3).h_vector() == (1, 3, 3, 1)
    assert polygon(4).h_vector() == (1, 2, 1)
    assert polygon(6).h_vector() == (1, 4, 1)


def test_f_vector_cube3():
    assert cube(3).f_vector() == (8, 12, 6, 1)


# ----------------------------------------------------------------------
# JSON round trip


def test_json_round_trip():
    p = prism(5)
    q = SimplePolytope.from_json_dict(p.to_json_dict())
    assert q.dim == p.dim and q.vertices == p.vertices
    assert q.facet_names == p.facet_names
