import itertools
import math
import random
from fractions import Fraction

import pytest

from qtoric import facering
from qtoric.charpair import (
    CharacteristicPair,
    _eliminate,
    cp_pair,
    cube_pair,
    hirzebruch_pair,
    polygon_pair,
    s2xs2_pair,
    sphere_pair,
)
from qtoric.cohomology import (
    BundleSpec,
    PointModel,
    QuasitoricModel,
    _linear_items,
    check_admissible,
    is_even_class,
)
from qtoric.errors import InternalConsistencyError, OracleUnavailableError, StructureError
from qtoric.polynomial import GradedPolynomial as GP
from qtoric.polynomial import monomials_of_degree
from test_charpair import dense_rebased, vertex_cuts


def test_cp1_normalization():
    m = sphere_pair().to_index_model()
    assert m.pair_monomial((0,)) == 1
    assert m.pair_monomial((1,)) == 1


def test_cp2_pairings():
    m = cp_pair(2).to_index_model()
    # all generators are cohomologous to the hyperplane class
    for mon in monomials_of_degree(3, 2):
        assert m.pair_monomial(mon) == 1, mon


def test_s2xs2_pairings():
    m = s2xs2_pair().to_index_model()
    assert m.pair_monomial((0, 1)) == 1
    assert m.pair_monomial((0, 2)) == 0  # opposite facets: non-face
    assert m.pair_monomial((1, 3)) == 0
    assert m.pair_monomial((0, 0)) == 0


def test_degree_mismatch_pairs_to_zero():
    m = cp_pair(2).to_index_model()
    assert m.pair_monomial((0,)) == 0
    assert m.pair_monomial((0, 1, 2)) == 0
    assert m.pair_top(GP.one()) == 0


def test_hirzebruch_pairing_independent_of_k():
    for k in range(4):
        m = hirzebruch_pair(k).to_index_model()
        cls = GP.linear([1, 0, 1, 0]).mul(GP.linear([0, 1, 0, 1]))
        assert m.pair_top(cls) == 4, k


def test_localization_two_seeds_agree():
    pair = hirzebruch_pair(2)
    m1 = QuasitoricModel(pair, seed=1)
    m2 = QuasitoricModel(pair, seed=999)
    for mon in monomials_of_degree(4, 2):
        assert m1.pair_monomial(mon) == m2.pair_monomial(mon), mon


def test_oracle_agreement():
    models = [
        cp_pair(2).to_index_model(),
        s2xs2_pair().to_index_model(),
        hirzebruch_pair(1).to_index_model(),
        cp_pair(3).to_index_model(),
        cube_pair(3).to_index_model(),
        polygon_pair(5).to_index_model(),
        sphere_pair().to_index_model(),
    ]
    for m in models:
        for mon in monomials_of_degree(m.gen_count, m.n):
            assert m.pair_monomial(mon) == m.ring_reduction_pairing(mon), (m.name, mon)


def test_ring_oracle_budget():
    """The top degree is priced past facering.PRICE, and the oracle refuses:
    cube:5 on its pairs of opposite facets alone (22050), (cp:2)^4, whose
    facets all meet, on its non-faces of three facets (36960)."""
    cp2 = cp_pair(2)
    for pair in (cube_pair(5), cp2.product_pair(cp2).product_pair(cp2).product_pair(cp2)):
        m = pair.to_index_model()
        with pytest.raises(OracleUnavailableError):
            m.ring_reduction_pairing(tuple(range(m.n)))


def _oracle_models():
    cube4 = cube_pair(4)
    return {"cube:4": cube4, "cube:4 rebased": dense_rebased(cube4, 3), "cp:6": cp_pair(6),
            "cp:10": cp_pair(10), "cp:4 with 2 vertex cuts": vertex_cuts(cp_pair(4), 2, 1)}


@pytest.mark.parametrize("name", list(_oracle_models()))
def test_ring_oracle_reaches_every_model_under_the_price(name):
    """Past n = 3: the top-pairing oracle, at both base vertices, pairs as
    the engine on seeded monomials, half of them a vertex's facets with one
    generator squared in place of another, half drawn freely."""
    m = _oracle_models()[name].to_index_model()
    rng = random.Random(name)
    nonzero = 0
    for _ in range(20):
        v = list(rng.choice(m.polytope.vertices))
        i, j = rng.sample(range(m.n), 2)
        v[i] = v[j]
        for mon in (tuple(sorted(v)), tuple(sorted(rng.choices(range(m.gen_count), k=m.n)))):
            value = m.ring_reduction_pairing(mon)
            assert value == m.pair_monomial(mon), mon
            nonzero += value != 0
    assert nonzero


def reference_minimal_nonfaces(model, max_size):
    """The minimal non-faces of at most max_size facets by brute force:
    every subset of the facets against every vertex."""
    verts = [set(v) for v in model.polytope.vertices]

    def is_face(S):
        return any(S <= v for v in verts)

    minimal = []
    for size in range(2, max_size + 1):
        for S in itertools.combinations(range(model.pair.m), size):
            if not is_face(set(S)) and all(is_face(set(S) - {i}) for i in S):
                minimal.append(S)
    return minimal


@pytest.mark.parametrize("pair", [
    cube_pair(3), cube_pair(4), cube_pair(5), cp_pair(3), cp_pair(4), polygon_pair(5),
    polygon_pair(6), polygon_pair(7), vertex_cuts(cp_pair(4), 3, 1),
    s2xs2_pair().product_pair(polygon_pair(5)),
], ids=["cube:3", "cube:4", "cube:5", "cp:3", "cp:4", "polygon:5", "polygon:6", "polygon:7",
        "cp:4 with 3 vertex cuts", "s2xs2 * polygon:5"])
def test_minimal_nonfaces_match_the_subset_search(pair):
    """The non-faces read off the faces are the brute-force search's, in
    its order, at every degree from 1 to n."""
    m = pair.to_index_model()
    for k in range(1, m.n + 1):
        assert facering._minimal_nonfaces(m, k) == reference_minimal_nonfaces(m, k), k


@pytest.mark.parametrize("pair,mutate", [
    (cube_pair(3), lambda nonfaces: nonfaces[1:]),
    (s2xs2_pair(), lambda nonfaces: nonfaces[1:]),
    (cp_pair(2), lambda nonfaces: nonfaces + [(0, 1)]),  # it has none of at most 2 facets
], ids=["cube:3 one dropped", "s2xs2 one dropped", "cp:2 one added"])
def test_ring_oracle_certifies_its_top_degree(pair, mutate, monkeypatch):
    """Mutants: a minimal non-face dropped leaves the top degree of the
    face ring more than one-dimensional, a spurious one added leaves it
    zero; the oracle refuses to pair in either."""
    minimal_nonfaces = facering._minimal_nonfaces
    monkeypatch.setattr(facering, "_minimal_nonfaces",
                        lambda model, k: mutate(minimal_nonfaces(model, k)))
    m = pair.to_index_model()
    with pytest.raises(InternalConsistencyError, match="top degree"):
        m.ring_reduction_pairing(tuple(range(m.n)))


def test_ring_oracle_compares_both_base_vertices(monkeypatch):
    """Mutant: the ring reads lambda_4 of CP^4 negated, while validation's
    dual bases are the true ones, so the two base vertices substitute
    differently and the oracle refuses to pair where they disagree."""
    m = cp_pair(4).to_index_model()
    monkeypatch.setattr(m.pair, "lam", m.pair.lam[:4] + (tuple(-x for x in m.pair.lam[4]),))
    with pytest.raises(InternalConsistencyError, match="first base vertex"):
        m.ring_reduction_pairing((1, 2, 3, 4))


def test_free_function_oracles():
    pair = cp_pair(2)
    assert pair.to_index_model().pair_monomial((0, 1)) == 1
    assert pair.to_index_model().ring_reduction_pairing((0, 0)) == 1


@pytest.mark.parametrize("mon", [(0, -1), (0, 9), (0.5, 1), (1.0, 1), (True, 1), ("a", 1)])
def test_both_pairing_routes_refuse_a_generator_outside_the_model(mon):
    """cp:2 has u_0..u_2: the ring's generator images would read u_-1 as
    u_2 and index past them at u_9, so each route refuses both first; a
    float, a bool or a string is no generator either."""
    m = cp_pair(2).to_index_model()
    for route in (m.pair_monomial, m.ring_reduction_pairing):
        with pytest.raises(StructureError, match="not a generator"):
            route(mon)


def test_the_ring_route_reduces_each_base_vertex_monomial_once(monkeypatch):
    """The remainders of u_v at the two base vertices are kept with the top
    degree, so a second pairing reduces only its own monomial."""
    calls = []
    remainder = facering._remainder
    monkeypatch.setattr(facering, "_remainder", lambda *a: calls.append(1) or remainder(*a))
    m = cube_pair(3).to_index_model()
    assert m.ring_reduction_pairing((0, 1, 2)) == m.pair_monomial((0, 1, 2))
    assert len(calls) == 4
    assert m.ring_reduction_pairing((1, 2, 3)) == m.pair_monomial((1, 2, 3))
    assert len(calls) == 6


def rank_of_pairing(model, k):
    """Rank of the pairing between degree-k and degree-(n-k) monomial spans
    (exponential in m: a reference for small models only)."""
    right = list(monomials_of_degree(model.gen_count, model.n - k))
    rows = [[model.pair_monomial(tuple(sorted(w1 + w2))) for w2 in right]
            for w1 in monomials_of_degree(model.gen_count, k)]
    scales = [math.lcm(*(x.denominator for x in row)) for row in rows]  # same rank
    return len(_eliminate([[int(x * c) for x in row] for row, c in zip(rows, scales)])[3])


def test_poincare_duality_ranks_match_h_vector():
    for pair in [cp_pair(2), s2xs2_pair(), hirzebruch_pair(1), cp_pair(3),
                 cube_pair(3)]:
        m = pair.to_index_model()
        h = pair.polytope.h_vector()
        for k in range(m.n + 1):
            assert rank_of_pairing(m, k) == h[k], (pair.name, k)


# ----------------------------------------------------------------------
# rational zero test


def test_zero_class_examples():
    m = s2xs2_pair().to_index_model()
    u = m.generators()
    assert m.is_zero_class(u[0] - u[2])  # linear relation of the standard pair
    assert not m.is_zero_class(u[0])
    assert m.is_zero_class(u[0].mul(u[2]))  # Stanley-Reisner monomial


def test_p1_of_full_split_is_zero():
    for pair in [cp_pair(3), cube_pair(2)]:
        m = pair.to_index_model()
        V = BundleSpec(list(m.tangent_roots), m.gen_count)
        W = BundleSpec.empty(m.gen_count)
        assert m.is_zero_class(V.p1() + W.p1() - m.p1_poly())


def test_colored_p1_matches_tangent_p1():
    # same-color facets never meet, so the cross terms die rationally
    m = cube_pair(3).to_index_model()
    classes = [GP.linear({i: 1, i + 3: 1}) for i in range(3)]
    V = BundleSpec(classes, m.gen_count)
    assert m.is_zero_class(V.p1() - m.p1_poly())


# ----------------------------------------------------------------------
# mod-2 oracle


def test_even_class_examples():
    s22 = s2xs2_pair().to_index_model()
    assert is_even_class(s22, [1, 0, 1, 0])  # u0 + u2
    assert is_even_class(s22, [0, 0, 0, 0])
    assert not is_even_class(s22, [1, 0, 0, 0])

    cp3 = cp_pair(3).to_index_model()
    assert is_even_class(cp3, [1, 1, 0, 0])  # u0 + u1 ~ 2h
    assert not is_even_class(cp3, [1, 0, 0, 0])  # h is odd


def test_even_class_accepts_polynomials():
    m = cp_pair(3).to_index_model()
    u = m.generators()
    assert is_even_class(m, u[0] + u[1])
    assert not is_even_class(m, u[2])


def test_mod2_linearity_properties():
    rng = random.Random(7)
    m = cube_pair(3).to_index_model()
    for _ in range(40):
        a = [rng.randrange(-2, 3) for _ in range(m.gen_count)]
        b = [rng.randrange(-2, 3) for _ in range(m.gen_count)]
        assert is_even_class(m, [2 * x for x in a])
        ea, eb = is_even_class(m, a), is_even_class(m, b)
        s = [x + y for x, y in zip(a, b)]
        if ea and eb:
            assert is_even_class(m, s)
        if ea != eb:
            assert not is_even_class(m, s)


def test_spin_detection():
    assert is_even_class(s2xs2_pair().to_index_model(),
                         s2xs2_pair().to_index_model().c1_vector)
    cp2 = cp_pair(2).to_index_model()
    assert not is_even_class(cp2, cp2.c1_vector)  # c1 = 3h is odd
    c3 = cube_pair(3).to_index_model()
    assert is_even_class(c3, c3.c1_vector)


# ----------------------------------------------------------------------
# admissibility


def test_cp3_split_admissible():
    m = cp_pair(3).to_index_model()
    u = m.generators()
    V = BundleSpec([u[0], u[1]], 4)
    W = BundleSpec([u[2], u[3]], 4)
    rep = check_admissible(m, V, W)
    assert rep.spin_c_exists and rep.w_is_spin and rep.p1_zero and rep.met


def test_cp3_bad_split_fails_mod2():
    m = cp_pair(3).to_index_model()
    u = m.generators()
    rep = check_admissible(m, BundleSpec([u[0]], 4),
                           BundleSpec([u[1], u[2], u[3]], 4))
    assert not rep.spin_c_exists and not rep.w_is_spin
    assert not rep.met


def test_colored_cube_admissible():
    m = cube_pair(3).to_index_model()
    classes = [GP.linear({i: 1, i + 3: 1}) for i in range(3)]
    rep = check_admissible(m, BundleSpec(classes, 6), BundleSpec.empty(6))
    assert rep.met


# ----------------------------------------------------------------------
# misc models


def test_point_model():
    pt = PointModel()
    assert pt.pair_monomial(()) == 1
    with pytest.raises(StructureError, match="not a generator"):
        pt.pair_monomial((0,))  # the point has no generator
    assert pt.is_even_vector(())


def test_point_model_series_is_exact():
    """An empty product pairs to 1 at q^0, as an exact Fraction, not a float."""
    series = PointModel().pair_series([], 2)
    assert series == [1, 0, 0] and all(type(c) is Fraction for c in series)


def test_generators_outside_the_model_are_refused():
    """cp:2 has u_0..u_2: a class or root over another generator is refused,
    not paired as zero, in every degree, also in one that is not paired."""
    m = cp_pair(2).to_index_model()
    u0, u9 = GP.generator(0), GP.generator(9)
    for pair in (lambda: m.pair_top(GP.generator(5) * GP.generator(5)),
                 lambda: m.pair_monomial((7, 7)),
                 lambda: m.is_zero_class(u0 * u9),
                 lambda: m.is_zero_class(u9 * u9 * u9),
                 lambda: m.pair_top(u0 + u9),
                 lambda: m.nonzero_face(u0 * u0 + u9),
                 lambda: m.pair_series([(("Q3",), [_linear_items(u9, 10)])], 0)):
        with pytest.raises(StructureError, match="not a generator"):
            pair()


def test_bundles_over_another_number_of_generators_are_refused():
    """A bundle's classes are checked over its own gen_count; the model's must match."""
    m = cp_pair(2).to_index_model()
    u4 = GP.generator(4)
    for V, W in ((BundleSpec([u4], 5), BundleSpec.empty(3)),
                 (BundleSpec.empty(3), BundleSpec([u4], 5))):
        with pytest.raises(StructureError, match="the model has 3"):
            check_admissible(m, V, W)


def test_memoization_returns_same_object_value():
    m = cp_pair(2).to_index_model()
    a = m.pair_monomial((0, 1))
    b = m.pair_monomial((1, 0))  # unsorted input, same monomial
    assert a == b == 1
