import itertools
import json
import random
from fractions import Fraction

import pytest

from qtoric.charpair import (
    cp_pair,
    cube_pair,
    hirzebruch_pair,
    polygon_pair,
    s2xs2_pair,
    sphere_pair,
)
from qtoric.cohomology import BundleSpec, PointModel, check_admissible
from qtoric.errors import (
    BudgetExceededError,
    HypothesisUnmetError,
    InternalConsistencyError,
    StructureError,
)
from qtoric.index import (
    ConnectedSumModel,
    ProductModel,
    _colored_pairing,
    _vertex_terms,
    admissible_splits,
    colored_classes,
    colored_index,
    elliptic_genus,
    exists_nonvanishing_signs,
    phi_c,
    series_product,
    tensor_extend,
    verify_connected_sum_formula,
    verify_exhaustive_split_vanishing,
    verify_product_formula,
    witten_genus,
)
from qtoric.polynomial import GradedPolynomial as GP
from qtoric.polynomial import monomials_of_degree
from qtoric.polytope import facet_chromatic
from qtoric.qseries import log_table
from test_charpair import dense_rebased

S2 = sphere_pair().to_index_model()
CP2 = cp_pair(2).to_index_model()
CP3 = cp_pair(3).to_index_model()
S2S2 = s2xs2_pair().to_index_model()
CUBE2 = cube_pair(2).to_index_model()
CUBE3 = cube_pair(3).to_index_model()


def coloring_of(model):
    d, coloring = facet_chromatic(model.polytope)
    assert d == model.n
    return coloring


# ----------------------------------------------------------------------
# phi_c basics


def test_phi_c_sphere_with_full_euler_class():
    r = phi_c(S2, [[1, 1]], None)
    assert r.series == [Fraction(2)] + [Fraction(0)] * 4
    assert r.admissibility.met


def test_phi_c_zero_root_in_v_kills_index():
    V = BundleSpec([GP.linear([1, 1]), GP.zero()], 2)
    r = phi_c(S2, V, None)
    assert r.is_zero()


def test_phi_c_flags_unmet_hypotheses_but_computes():
    u = CP3.generators()
    r = phi_c(CP3, BundleSpec([u[0]], 4), BundleSpec([u[1]], 4))
    assert not r.admissibility.met
    assert r.warnings


@pytest.mark.parametrize("q_order", [-1, True, 2.0, "3"])
def test_phi_c_rejects_bad_q_order(q_order):
    with pytest.raises(StructureError):
        phi_c(S2, None, None, q_order=q_order)


def test_phi_c_rejects_c1c_with_nonzero_v():
    with pytest.raises(StructureError):
        phi_c(S2, [[1, 1]], None, c1c=[0, 0])
    model = cp_pair(2).to_index_model()  # fresh: no points drawn yet
    with pytest.raises(StructureError, match="c1c is determined by V"):
        phi_c(model, [[1, 0, 0]], None, c1c=[1, 0, 0])
    assert model._point_sets is None  # refused before the zero test drew any point


def test_q2_spelling_has_the_q2prime_table():
    """e^{x/2} Q2(x) = x Q2'(x), so phi_c spells e(V) Q2'(V) as ("EXPHALF",
    "Q2"): its table is Q2PRIME's times the Euler class x, xpow 1 with the
    L_k of Q2PRIME (L_1 = 0) through one degree less, and c = 1."""
    for q_order in range(7):
        assert log_table(("EXPHALF", "Q2"), q_order, 0) == (1, 0, ())
        for n in range(1, 9):
            _, c, L = log_table(("Q2PRIME",), q_order, n - 1)
            assert log_table(("EXPHALF", "Q2"), q_order, n) == (1, c, L), (q_order, n)


# ----------------------------------------------------------------------
# the pairing budget


def _stub_pairing(model, monkeypatch):
    """Replace the model's characteristic numbers by zeros, recording how
    many exponent vectors each pairing pairs.  pair_series keeps its
    budget, which it checks before any number is paired, and still reads
    the points to pair from the Euler-class supports."""
    calls = []
    monkeypatch.setattr(model, "_characteristic_numbers", lambda indexed, monomials, points: (
        calls.append(len(monomials)) or [0] * len(monomials)))
    return calls


CP6_TWIST = {"W": [[0, 1, 0, 0, 0, 0, 0]], "c1c": [1, 0, 0, 0, 0, 0, 0]}


def test_pairing_budget_admits_cp6_twist_through_q302(monkeypatch):
    """CP^6 with W = u_1 and c1c = u_0 needs 9,964,584 steps at q^302:
    49,086 for the tables and 18 exponent vectors of 7 + 6 * 303^2 each."""
    model = cp_pair(6).to_index_model()
    calls = _stub_pairing(model, monkeypatch)
    assert phi_c(model, None, CP6_TWIST["W"], q_order=302, c1c=CP6_TWIST["c1c"]).is_zero()
    assert calls == [18]


@pytest.mark.parametrize("q_order", [303, 860])
def test_pairing_budget_refuses_cp6_twist_from_q303(q_order, monkeypatch):
    """10,030,302 steps at q^303; q^860 ran about a minute under the old budget."""
    model = cp_pair(6).to_index_model()
    calls = _stub_pairing(model, monkeypatch)
    with pytest.raises(BudgetExceededError, match="over the budget of 10000000"):
        phi_c(model, None, CP6_TWIST["W"], q_order=q_order, c1c=CP6_TWIST["c1c"])
    assert calls == []


@pytest.mark.parametrize("genus", [witten_genus, elliptic_genus])
def test_budget_counts_tables_where_no_exponent_vector_is_formed(genus, monkeypatch):
    """On cube:3 every L_k of the Witten and elliptic genus that fits in odd
    degree 3 vanishes, so pair_series forms no exponent vector and pairs
    nothing; the tables alone are then refused past the budget, before any
    is built, and built and admitted below it."""
    from qtoric import cohomology
    built, table = [], cohomology.log_table
    monkeypatch.setattr(cohomology, "log_table", lambda kinds, q_order, trunc: (
        built.append(q_order) or table(kinds, q_order, trunc)))
    calls = _stub_pairing(CUBE3, monkeypatch)
    with pytest.raises(BudgetExceededError, match="needs about 180000000180 steps"):
        genus(CUBE3, q_order=10 ** 9)
    assert built == [] and calls == []
    assert genus(CUBE3, q_order=1000).is_zero()
    assert built == [1000, 1000] and calls == []  # the tangent and the c1c tables


def test_pairing_price_stops_counting_past_the_budget(monkeypatch):
    """pair_series enumerates the exponent vectors lazily and stops at the
    first one past the budget, so a refusal forms no more of them than the
    budget admits: CP^40 with W = u_1 and c1c = u_0 has about 80,000 at q^4."""
    from qtoric import cohomology, qseries
    model = cp_pair(40).to_index_model()
    formed = _listing_vectors(monkeypatch)
    with pytest.raises(BudgetExceededError, match="over the budget"):
        phi_c(model, None, [[0, 1] + [0] * 39], q_order=4, c1c=[1] + [0] * 40)
    step = len(model.fixed_points()[0]) + 40 * 5 ** 2  # per vector, at 41 points
    remaining = cohomology.PAIRING_BUDGET - qseries._table_work([None] * 3, 40, 4)  # three groups
    assert [len(vectors) for vectors in formed] == [1 + remaining // step]


def test_zero_pairing_draws_no_generic_points():
    """The elliptic genus in odd n forms no exponent vector, so it pairs
    nothing: the budget and the pairing return before any point is drawn."""
    model = cp_pair(5).to_index_model()

    def refuse():
        raise AssertionError("generic points drawn")

    model._draw_fixed_points = refuse
    result = elliptic_genus(model, q_order=3)
    assert result.series == [0] * 4


def test_budget_counts_tables_with_more_euler_classes_than_n(monkeypatch):
    """Four Euler classes on CP^2 leave no degree for any row, so nothing
    is paired; the tables alone are refused at q^10^9."""
    calls = _stub_pairing(CP2, monkeypatch)
    with pytest.raises(BudgetExceededError, match="needs about 120000000120 steps"):
        phi_c(CP2, [[1, 0, 0]] * 4, None, q_order=10 ** 9)
    assert phi_c(CP2, [[1, 0, 0]] * 4, None, q_order=100).is_zero() and calls == []


ROUTE_MODELS = [CP3, CUBE3, S2S2, ProductModel(CP2, S2)]
ROUTE_IDS = ["cp:3", "cube:3", "s2xs2", "cp:2 x s2"]


def _routes(model):
    """Every route of phi_c, each with its number of groups: the merged
    tangent group of the elliptic genus and of phi_c(M; 0, TM) too."""
    line = [[1] + [0] * (model.gen_count - 1)]
    routes = [(2, lambda q: witten_genus(model, q)),
              (3, lambda q: phi_c(model, None, line, q_order=q, c1c=line[0])),
              (3, lambda q: phi_c(model, line, line, q_order=q)),
              (2, lambda q: phi_c(model, None, model.tangent_bundle(), q_order=q))]
    if model.is_even_vector(model.c1_vector):
        routes.append((2, lambda q: elliptic_genus(model, q)))
    return routes


def _listing_vectors(monkeypatch):
    """Record the exponent vectors of each top-level _exponent_vectors call."""
    from qtoric import cohomology
    formed, vectors = [], cohomology._exponent_vectors

    def listing(weights, total):
        formed.append([])
        for mu in vectors(weights, total):
            formed[-1].append(mu)
            yield mu

    monkeypatch.setattr(cohomology, "_exponent_vectors", lambda weights, total, start=0: (
        vectors(weights, total, start) if start else listing(weights, total)))
    return formed


@pytest.mark.parametrize("model", ROUTE_MODELS, ids=ROUTE_IDS)
def test_pairing_work_counts_the_exponent_vectors_formed(model, monkeypatch):
    """The price is the tables' work plus, per exponent vector pair_series
    forms, a step per point and n (q_order + 1)^2, on every route of phi_c
    and on a call that reads the kept tangent numbers: a budget of exactly
    that price admits the call, and one step less refuses it with the price
    as its figure."""
    from qtoric import cohomology, qseries
    formed = _listing_vectors(monkeypatch)
    n, points, budget = model.n, len(model.fixed_points()[0]), cohomology.PAIRING_BUDGET
    for q_order in range(4):
        for groups, route in _routes(model):
            series = route(q_order).series
            price = (qseries._table_work([None] * groups, n, q_order)
                     + len(formed[-1]) * (points + n * (q_order + 1) ** 2))
            monkeypatch.setattr(cohomology, "PAIRING_BUDGET", price)
            assert route(q_order).series == series
            monkeypatch.setattr(cohomology, "PAIRING_BUDGET", price - 1)
            with pytest.raises(BudgetExceededError, match="needs about %d steps" % price):
                route(q_order)
            monkeypatch.setattr(cohomology, "PAIRING_BUDGET", budget)
    assert any(formed)


@pytest.mark.parametrize("model", ROUTE_MODELS, ids=ROUTE_IDS)
def test_each_pairing_forms_its_exponent_vectors_once(model, monkeypatch):
    """phi_c describes the integrand, and pair_series builds, prices and
    pairs it in one pass: one _exponent_vectors enumeration per call, and
    the numbers are paired on the very vectors that enumeration formed."""
    formed = _listing_vectors(monkeypatch)
    paired = []
    numbers = model._characteristic_numbers
    monkeypatch.setattr(model, "_characteristic_numbers", lambda indexed, monomials, points: (
        paired.append((len(formed) - 1, monomials)) or numbers(indexed, monomials, points)))
    calls = 0
    for q_order in range(3):
        for _, route in _routes(model):
            route(q_order)
            calls += 1
            assert len(formed) == calls
    assert paired and all(monomials == formed[i] for i, monomials in paired)


@pytest.mark.parametrize("k, route, q_order, figure", [
    (2, lambda m, q: witten_genus(m, q), 10 ** 9, 120000000120),
    (2, lambda m, q: witten_genus(m, q), 3000, 18156053),
    (6, lambda m, q: phi_c(m, None, [[0, 1, 0, 0, 0, 0, 0]], q_order=q), 406, 10004944),
], ids=["witten cp:2 q^10^9", "witten cp:2 q^3000", "index cp:6 W q^406"])
def test_refusal_comes_before_any_point_is_paired(k, route, q_order, figure, monkeypatch):
    """The CLI's three budget refusals, in process, with their figures: on
    the tables' work alone and on the vectors' alike, no point is paired,
    nor are the Euler-class supports read to choose the points."""
    model = cp_pair(k).to_index_model()

    def refuse(*args):
        raise AssertionError("a point was paired")

    monkeypatch.setattr(model, "_characteristic_numbers", refuse)
    monkeypatch.setattr(model, "_supporting", refuse)
    with pytest.raises(BudgetExceededError,
                       match="q_order %d: the pairing needs about %d steps, over the budget "
                             "of 10000000" % (q_order, figure)):
        route(model, q_order)


# ----------------------------------------------------------------------
# the signature check


@pytest.mark.parametrize("model, signature", [
    (CP2, 1), (S2S2, 0), (CUBE2, 0), (cp_pair(4).to_index_model(), 1),
    (hirzebruch_pair(1).to_index_model(), 0), (ProductModel(CP2, CP2), 1),
    (ConnectedSumModel(CP2, CP2, 1), 2), (ConnectedSumModel(CP2, CP2, -1), 0),
    (PointModel(), 1)], ids=["cp:2", "s2xs2", "cube:2", "cp:4", "hirzebruch:1",
                             "cp:2 x cp:2", "cp:2 # cp:2", "cp:2 # -cp:2", "point"])
def test_tangent_twist_constant_is_the_signature(model, signature):
    """phi_c(M; 0, TM) at q^0 is 2^(#roots - n) sigma(M), and the vertex
    signs sum to sigma(M) at both point sets."""
    extras = len(model.tangent_roots) - model.n
    series = phi_c(model, None, model.tangent_bundle(), q_order=1).series
    assert series[0] == 2 ** extras * signature
    assert [sum(1 if den > 0 else -1 for _, den in pts)
            for pts in model.fixed_points()] == [signature] * 2


def test_signature_check_refuses_a_wrong_constant(monkeypatch):
    """A q^0 that is not 2^(#roots - n) sum_v sign(den_v) is a bug, whether
    the numbers were just paired or read from the kept ones."""
    model = s2xs2_pair().to_index_model()
    pair = model.pair_series
    monkeypatch.setattr(model, "pair_series", lambda plan, q_order: [
        c + 1 for c in pair(plan, q_order)])
    with pytest.raises(InternalConsistencyError, match="vertex signs sum to 0"):
        elliptic_genus(model, q_order=1)
    monkeypatch.undo()
    witten_genus(model, q_order=1)
    assert elliptic_genus(model, q_order=1).is_zero()
    ((key, numbers),) = model._tangent_numbers.items()
    model._tangent_numbers[key] = [c + 1 for c in numbers]
    with pytest.raises(InternalConsistencyError, match="vertex signs sum to 0"):
        elliptic_genus(model, q_order=1)


# ----------------------------------------------------------------------
# genera


def test_witten_genus_sphere_vanishes():
    assert witten_genus(S2).is_zero()


def test_witten_genus_cp2_leading_term_is_ahat():
    r = witten_genus(CP2)
    assert r.series[0] == Fraction(-1, 8)
    assert not r.admissibility.met  # CP^2 is not Spin and p1 != 0


def test_witten_genus_s2xs2_vanishes():
    assert witten_genus(S2S2).is_zero()
    # parity: a product of two vanishing factors
    prod = ProductModel(S2, S2)
    assert witten_genus(prod).is_zero()


def test_elliptic_genus_s2xs2_vanishes():
    r = elliptic_genus(S2S2)
    assert r.is_zero()


def test_elliptic_genus_q0_is_signature():
    # independent signature of S^2 x S^2 from the intersection form on H^2
    basis = [(0,), (1,)]  # u0, u1 span H^2 after the relations
    gram = [[S2S2.pair_monomial(tuple(sorted(a + b))) for b in basis] for a in basis]
    # [[0,1],[1,0]] has signature 0
    assert gram == [[0, 1], [1, 0]]
    assert elliptic_genus(S2S2).series[0] == 0


def test_elliptic_genus_refuses_non_spin():
    with pytest.raises(HypothesisUnmetError):
        elliptic_genus(CP2)


def test_elliptic_genus_cube2():
    assert elliptic_genus(CUBE2).is_zero()


# ----------------------------------------------------------------------
# colored indices


def test_colored_index_cubes():
    for n, model in [(2, CUBE2), (3, CUBE3)]:
        r = colored_index(model, coloring_of(model))
        assert r.constant_in_q()
        assert r.series[0] == 2 ** n
        assert r.meta["predicted_constant"] == 2 ** n


def test_colored_index_hirzebruch():
    for k in range(4):
        model = hirzebruch_pair(k).to_index_model()
        r = colored_index(model, coloring_of(model))
        assert r.constant_in_q()
        assert r.series[0] == 4


def test_colored_index_sign_sensitivity_on_sphere():
    # interval with lambda (1),(1): relation u0 = u1, so signs (+,-) kill the class
    from qtoric.charpair import CharacteristicPair
    from qtoric.polytope import interval
    pair = CharacteristicPair(interval(), [(1,), (1,)], name="s2-allplus")
    model = pair.to_index_model()
    d, coloring = facet_chromatic(pair.polytope)
    r = colored_index(model, coloring, signs=[1, -1])
    assert r.constant_in_q()
    # for this pair u0 + u1 pairs to 0 and u0 - u1 pairs to +-2
    values = {tuple(s): colored_index(model, coloring, signs=list(s)).series[0]
              for s in [(1, 1), (1, -1)]}
    assert sorted(abs(v) for v in values.values()) == [0, 2]


def test_colored_index_random_signs_stay_constant_and_match_pairing():
    rng = random.Random(42)
    for model in [CUBE2, CUBE3, hirzebruch_pair(2).to_index_model(),
                  polygon_pair(6).to_index_model()]:
        coloring = coloring_of(model)
        for _ in range(2):
            signs = [rng.choice((1, -1)) for _ in range(model.gen_count)]
            r = colored_index(model, coloring, signs)
            assert r.constant_in_q(), model.name
            assert r.series[0] == r.meta["predicted_constant"], model.name


def test_colored_index_exhaustive_signs_cube2():
    # every one of the 2^4 sign vectors keeps the series constant in q
    coloring = coloring_of(CUBE2)
    values = []
    for mask in range(16):
        signs = [1 - 2 * ((mask >> b) & 1) for b in range(4)]
        r = colored_index(CUBE2, coloring, signs)
        assert r.constant_in_q()
        assert r.series[0] == r.meta["predicted_constant"]
        values.append(r.series[0])
    assert max(abs(v) for v in values) == 4


@pytest.mark.parametrize("route", [
    lambda: colored_index(CUBE3, coloring_of(CUBE3), [1, -1, 1, 1, -1, 1]),
    lambda: elliptic_genus(S2S2, q_order=2),
    lambda: phi_c(CP3, None, [[0, 1, 0, 0]], q_order=2),
], ids=["colored_index", "elliptic_genus", "phi_c"])
def test_as_dict_round_trips_through_json(route):
    """as_dict writes each Fraction, the colored index's predicted constant
    too, as a string, so the dict round-trips through json; meta keeps its
    Fractions."""
    result = route()
    out = result.as_dict()
    assert json.loads(json.dumps(out)) == out
    for key, value in result.meta.items():
        assert out[key] == (str(value) if isinstance(value, Fraction) else value)
    constant = result.meta.get("predicted_constant")
    assert constant is None or (isinstance(constant, Fraction)
                                and out["predicted_constant"] == str(result.series[0]))


def test_colored_index_needs_n_colors():
    model = CP2  # triangle needs 3 colors but n = 2
    d, coloring = facet_chromatic(model.polytope)
    assert d == 3
    with pytest.raises(HypothesisUnmetError):
        colored_index(model, coloring)


def test_exists_nonvanishing_signs():
    ok, signs = exists_nonvanishing_signs(CUBE2, coloring_of(CUBE2))
    assert ok and signs == (1, 1, 1, 1)
    hexm = polygon_pair(6).to_index_model()
    ok, signs = exists_nonvanishing_signs(hexm, coloring_of(hexm))
    assert ok
    r = colored_index(hexm, coloring_of(hexm), list(signs))
    assert r.series[0] != 0


def test_identically_zero_vertex_sum_is_an_internal_fault(monkeypatch):
    """Two vertices with one monomial and opposite signs cancel at every sign
    vector, which the coloring lemma rules out."""
    from qtoric import index
    monkeypatch.setattr(index, "_vertex_terms", lambda model, coloring: [(1, 0b1010), (-1, 0b1010)])
    with pytest.raises(InternalConsistencyError, match="coloring lemma"):
        exists_nonvanishing_signs(CUBE2, coloring_of(CUBE2))


# The route the vertex sum replaced, kept as the reference: the product of
# the n color classes expanded into monomials and paired by pair_top at the
# model's generic points, and the sign search over it.


def reference_colored_pairing(model, coloring, signs):
    prod = GP.one()
    for cls in colored_classes(model, coloring, signs):
        prod = prod.mul(cls, model.n)
    return model.pair_top(prod)


def reference_nonvanishing_signs(model, coloring):
    pinned = {facets[0] for facets in coloring.color_classes()}
    rest = [i for i in range(model.gen_count) if i not in pinned]
    for mask in range(2 ** len(rest)):
        signs = [1] * model.gen_count
        for b, i in enumerate(rest):
            if (mask >> b) & 1:
                signs[i] = -1
        if reference_colored_pairing(model, coloring, signs) != 0:
            return True, tuple(signs)
    return None


def _colored_corpus():
    pairs = ([cube_pair(n) for n in range(2, 6)]
             + [hirzebruch_pair(k) for k in range(4)]
             + [polygon_pair(k) for k in (4, 6, 8)]
             + [s2xs2_pair(), cube_pair(2).product_pair(polygon_pair(6)),
                dense_rebased(cube_pair(4), 4)]
             # products whose least nonzero sign mask comes late: 51, 15 and 12
             + [polygon_pair(6).product_pair(polygon_pair(6)),
                polygon_pair(4).product_pair(polygon_pair(6)).product_pair(cube_pair(2)),
                s2xs2_pair().product_pair(polygon_pair(6)).product_pair(cube_pair(1))])
    rng = random.Random(2024)
    omni = [p.with_signs([rng.choice((1, -1)) for _ in range(p.m)]) for p in pairs]
    return [(p.name + ("" if p is q else " omni"), q)
            for p, q in zip(pairs + pairs, pairs + omni)]


COLORED_CORPUS = _colored_corpus()


@pytest.mark.parametrize("name,pair", COLORED_CORPUS, ids=[name for name, _ in COLORED_CORPUS])
def test_colored_vertex_sum_matches_reference(name, pair):
    model = pair.to_index_model()
    coloring = coloring_of(model)
    m = model.gen_count
    if m <= 8:
        sign_vectors = [[1 - 2 * ((mask >> b) & 1) for b in range(m)] for mask in range(2 ** m)]
    else:
        rng = random.Random(m)
        sign_vectors = [[rng.choice((1, -1)) for _ in range(m)] for _ in range(24)]
    terms = _vertex_terms(model, coloring)
    for signs in sign_vectors:
        negative = sum(1 << i for i, s in enumerate(signs) if s < 0)
        assert (_colored_pairing(terms, negative)
                == reference_colored_pairing(model, coloring, signs)), (name, signs)
    for signs in sign_vectors[:3]:
        r = colored_index(model, coloring, signs, q_order=0)
        assert r.meta["predicted_constant"] == reference_colored_pairing(model, coloring, signs)
        assert r.series[0] == r.meta["predicted_constant"], (name, signs)
    assert exists_nonvanishing_signs(model, coloring) == \
        reference_nonvanishing_signs(model, coloring), name


# ----------------------------------------------------------------------
# product models


def test_product_model_matches_product_pair():
    pp = sphere_pair().product_pair(sphere_pair()).to_index_model()
    pm = ProductModel(S2, S2)
    assert pm.n == pp.n and pm.gen_count == pp.gen_count
    for mon in monomials_of_degree(4, 2):
        assert pm.pair_monomial(mon) == pp.pair_monomial(mon), mon
    assert pm.euler == pp.euler == 4


def test_product_with_point_model_is_identity():
    pm = ProductModel(S2, PointModel())
    for mon in monomials_of_degree(2, 1):
        assert pm.pair_monomial(mon) == S2.pair_monomial(mon)
    assert pm.euler == S2.euler


def test_product_formula_five_combinations():
    s2_colored = ([[1, 1]], None)
    cube2_colored = ([[1, 0, 1, 0], [0, 1, 0, 1]], None)
    cp3_split = ([[1, 0, 0, 0], [0, 1, 0, 0]], [[0, 0, 1, 0], [0, 0, 0, 1]])
    h1 = hirzebruch_pair(1).to_index_model()
    h1_colored = ([[1, 0, 1, 0], [0, 1, 0, 1]], None)
    combos = [
        (S2, *s2_colored, S2, *s2_colored),
        (S2, *s2_colored, CUBE2, *cube2_colored),
        (CUBE2, *cube2_colored, h1, *h1_colored),
        (CP3, *cp3_split, S2, *s2_colored),
        (S2, None, None, S2, *s2_colored),
        (S2S2, None, None, S2, None, None),
    ]
    for m1, V1, W1, m2, V2, W2 in combos:
        rep = verify_product_formula(m1, V1, W1, m2, V2, W2)
        assert rep["equal"], (m1.name, m2.name, rep)


def test_product_formula_is_cauchy_product():
    # nontrivial q-dependence on both sides still multiplies correctly
    r1 = witten_genus(CP2).series
    prod = ProductModel(CP2, CP2)
    r = witten_genus(prod)
    assert r.series == series_product(r1, r1)
    assert any(c != 0 for c in r.series[1:])


# ----------------------------------------------------------------------
# connected sums


def test_connected_sum_needs_matching_dimensions():
    with pytest.raises(StructureError):
        ConnectedSumModel(S2, CP2)
    with pytest.raises(StructureError):
        ConnectedSumModel(S2, S2)  # n = 1 < 2


def test_connected_sum_pairing_rules():
    sm = ConnectedSumModel(CUBE2, S2S2)
    u = sm.generators()
    # pure left, pure right, and mixed classes
    assert sm.pair_monomial((0, 1)) == CUBE2.pair_monomial((0, 1))
    assert sm.pair_monomial((4, 5)) == S2S2.pair_monomial((0, 1))
    assert sm.pair_monomial((0, 4)) == 0
    flipped = ConnectedSumModel(CUBE2, S2S2, orientation_sign=-1)
    assert flipped.pair_monomial((4, 5)) == -S2S2.pair_monomial((0, 1))
    assert sm.euler == CUBE2.euler + S2S2.euler - 2


def test_connected_sum_additive_pairing_of_sums():
    sm = ConnectedSumModel(CUBE2, S2S2)
    left = GP.linear([1, 0, 1, 0, 0, 0, 0, 0]).mul(GP.linear([0, 1, 0, 1, 0, 0, 0, 0]))
    right = GP.linear([0, 0, 0, 0, 1, 0, 1, 0]).mul(GP.linear([0, 0, 0, 0, 0, 1, 0, 1]))
    a = sm.pair_top(left + right)
    assert a == CUBE2.pair_top(GP.linear([1, 0, 1, 0]).mul(GP.linear([0, 1, 0, 1]))) \
        + S2S2.pair_top(GP.linear([1, 0, 1, 0]).mul(GP.linear([0, 1, 0, 1])))


def test_tensor_extend_padding():
    sm = ConnectedSumModel(CUBE2, CP2)
    V1 = BundleSpec([GP.linear([1, 0, 1, 0]), GP.linear([0, 1, 0, 1])], 4)
    V2 = BundleSpec([GP.linear([1, 0, 0])], 3)
    V = tensor_extend(sm, V1, V2)
    assert V.dim == 2
    # first class restricts to both sides, second only to the left
    assert V.classes[0] == GP.linear([1, 0, 1, 0, 1, 0, 0])
    assert V.classes[1] == GP.linear([0, 1, 0, 1, 0, 0, 0])
    empty = tensor_extend(sm, BundleSpec.empty(4), BundleSpec.empty(3))
    assert empty.dim == 0


def test_connected_sum_formula_equal_dims():
    V = [[1, 0, 1, 0], [0, 1, 0, 1]]
    rep = verify_connected_sum_formula(CUBE2, V, None, CUBE2, V, None)
    assert rep["equal"] and rep["hypotheses_met"]
    assert rep["case"] == "equal dimensions"
    assert rep["lhs"] == ["8", "0", "0", "0", "0"]


def test_connected_sum_formula_single_term_case():
    # V2/W2 on CP^2 built like the exhaustive split: its own index vanishes
    V1 = [[1, 0, 1, 0], [0, 1, 0, 1]]
    V2, W2 = [[1, 0, 0]], [[0, 1, 0], [0, 0, 1]]
    split = verify_exhaustive_split_vanishing(CP2, [0])
    assert split["hypotheses_met"] and split["is_zero"]
    rep = verify_connected_sum_formula(CUBE2, V1, None, CP2, V2, W2)
    assert rep["case"] == "dim V1 > dim V2"
    assert rep["equal"] and rep["hypotheses_met"]
    # 2^{dim W2} * 4 = 16
    assert rep["lhs"][0] == "16"


def test_connected_sum_formula_orientation_flip():
    V = [[1, 0, 1, 0], [0, 1, 0, 1]]
    rep = verify_connected_sum_formula(CUBE2, V, None, CUBE2, V, None,
                                       orientation_sign=-1)
    assert rep["equal"]
    assert rep["lhs"][0] == "0"  # 4 - 4


def test_connected_sum_both_zero():
    rep = verify_connected_sum_formula(CP2, [[1, 0, 0]], [[0, 1, 0], [0, 0, 1]],
                                       CP2, [[1, 0, 0]], [[0, 1, 0], [0, 0, 1]])
    assert rep["equal"]
    assert all(c == "0" for c in rep["lhs"])


# ----------------------------------------------------------------------
# exhaustive split vanishing


def test_splits_cp3():
    rep = verify_exhaustive_split_vanishing(CP3, [0, 1])
    assert rep["hypotheses_met"] and rep["is_zero"]


SPLIT_CASES = (
    [("cp:%d" % n, lambda n=n: cp_pair(n)) for n in range(2, 5)]
    + [("cube:%d" % n, lambda n=n: cube_pair(n)) for n in range(2, 5)]
    + [("hirzebruch:%d" % k, lambda k=k: hirzebruch_pair(k)) for k in (1, 2)]
    + [("s2xs2", s2xs2_pair)]
    + [("polygon:%d" % k, lambda k=k: polygon_pair(k)) for k in range(5, 8)]
    + [("cube:2*cp:2", lambda: cube_pair(2).product_pair(cp_pair(2))),
       ("polygon:5*cp:2", lambda: polygon_pair(5).product_pair(cp_pair(2))),
       ("cube:3 mixed signs", lambda: cube_pair(3).with_signs([1, -1, -1, 1, 1, -1])),
       ("dense cp:3", lambda: dense_rebased(cp_pair(3), 3))])


def lambda_mu_complements(pair):
    """The complements of the supports of lambda mu mod 2, mu in GF(2)^n."""
    expected = set()
    for mu in itertools.product((0, 1), repeat=pair.n):
        odd = [sum(a * b for a, b in zip(row, mu)) % 2 for row in pair.lam]
        expected.add(tuple(i for i in range(pair.m) if not odd[i]))
    return expected


def reference_admissible_splits(model):
    """admissible_splits as it was: check_admissible on all 2^m subsets."""
    m = len(model.tangent_roots)
    out = []
    for size in range(m + 1):
        for S in itertools.combinations(range(m), size):
            V = BundleSpec([model.tangent_roots[i] for i in S], model.gen_count)
            W = BundleSpec([model.tangent_roots[i] for i in range(m) if i not in S],
                           model.gen_count)
            if check_admissible(model, V, W).met:
                out.append(S)
    return out


@pytest.mark.parametrize("build", [b for _, b in SPLIT_CASES], ids=[k for k, _ in SPLIT_CASES])
def test_admissible_splits_are_the_complements_of_lambda_mu(build):
    """For an exhaustive split p1(V + W - TM) vanishes identically, and both
    mod-2 hypotheses say that the complement's indicator is lambda mu mod 2
    for some mu in GF(2)^n; lambda mod 2 has rank n, so there are 2^n splits."""
    pair = build()
    expected = lambda_mu_complements(pair)
    splits = admissible_splits(pair.to_index_model())
    assert len(splits) == 2 ** pair.n == len(expected)
    assert sorted(splits) == sorted(expected)


PAIRED_SPLIT_CASES = [
    ("cp:2 x hirzebruch:1", lambda: ProductModel(CP2, hirzebruch_pair(1).to_index_model())),
    ("cp:2 # cp:2", lambda: ConnectedSumModel(CP2, CP2)),
    ("cube:3 # -cp:3", lambda: ConnectedSumModel(CUBE3, CP3, -1)),
    ("point", PointModel),
]


@pytest.mark.parametrize(
    "build", [lambda b=b: b().to_index_model() for _, b in SPLIT_CASES]
    + [b for _, b in PAIRED_SPLIT_CASES],
    ids=[k for k, _ in SPLIT_CASES] + [k for k, _ in PAIRED_SPLIT_CASES])
def test_admissible_splits_match_the_reference_loop(build):
    model = build()
    assert admissible_splits(model) == reference_admissible_splits(model)


def test_admissible_splits_check_no_hypothesis(monkeypatch):
    """m = 16 at the parent meant 65,536 check_admissible calls."""
    from qtoric import index
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return check_admissible(*args, **kwargs)

    monkeypatch.setattr(index, "check_admissible", spy)
    pair = polygon_pair(6).product_pair(polygon_pair(6)).product_pair(polygon_pair(4))
    splits = admissible_splits(pair.to_index_model())
    assert calls == []
    assert len(splits) == 64 and set(splits) == lambda_mu_complements(pair)


def test_admissible_splits_budget():
    """m * 2^r entries: cp:18 has 19 * 2^18 <= PAIRING_BUDGET, cp:19 20 * 2^19 > it."""
    splits = admissible_splits(cp_pair(18).to_index_model())
    assert len(splits) == 2 ** 18 and splits[-1] == tuple(range(19))
    with pytest.raises(BudgetExceededError, match="budget"):
        admissible_splits(cp_pair(19).to_index_model())


def test_splits_s2xs2_all_admissible():
    splits = admissible_splits(S2S2)
    assert (0, 2) in splits and (1, 3) in splits
    for S in splits:
        rep = verify_exhaustive_split_vanishing(S2S2, S)
        assert rep["is_zero"], S


def test_splits_cube3_all_admissible():
    splits = admissible_splits(CUBE3)
    assert len(splits) == 8
    for S in splits:
        rep = verify_exhaustive_split_vanishing(CUBE3, S)
        assert rep["is_zero"], S


def test_split_with_unmet_hypotheses_reports_only():
    rep = verify_exhaustive_split_vanishing(CP3, [0])
    assert not rep["hypotheses_met"]
    # no assertion on the value; the report still carries the series


# ----------------------------------------------------------------------
# trivial-summand laws at the index level


def test_appending_trivial_line_to_w_doubles():
    V = [[1, 0, 1, 0], [0, 1, 0, 1]]
    base = phi_c(CUBE2, V, None)
    doubled = phi_c(CUBE2, V, BundleSpec([GP.zero()], 4))
    assert doubled.series == [2 * c for c in base.series]


def test_multiplicativity_through_q4_with_w():
    # elliptic-style W on one factor
    rep = verify_product_formula(S2, None, BundleSpec(list(S2.tangent_roots), 2),
                                 S2, [[1, 1]], None)
    assert rep["equal"]
