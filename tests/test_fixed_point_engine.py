"""The fixed-point engine against the routes it replaced.

The first oracle below is the route the engine superseded, written out here
so that it no longer lives in the library: the integrand is expanded into
monomials by the multivariate bundle_series product, and each top-degree
monomial is localized on its own, summed over the vertices containing its
support at a generic point drawn here (not the model's).  Product and
connected-sum pairings split a monomial the way those models used to.
Every series coefficient, pairing and zero test must agree exactly.

The second, reference_pair_series, is the engine's dense point loop, which
evaluated every root of every group at every point and carried the whole
q-series through each point, in one truncated exponential per point
(_exp_numerator).  The library evaluates only the roots supported at a
point, gives q-free characteristic numbers there and assembles the series
once; it must give the same series on every call.

The third, reference_nonzero_face, is the zero test as it was: each point
set read a class through its own frozenset support index and built its own
face table of every face of complementary size, and the two tables had to
list the same faces.  The library finds every face from its own points,
lazily and in their order, and at n >= 3 the public zero test hands a
class's degree-4 part to the face ring first, so it may name another face;
it must give the same zero/nonzero answer, and a face it names must pair
nonzero.

The last section checks check_admissible's route at n >= 3, p1 = 0 decided
in degree 4 of the face ring (facering), against the engine's zero test on
every model kind, under rebasing and relabelling, on two mutants of the
ring, past its price and for its rank certificate; and at n = 2, where
degree 4 is the top degree, against the engine's top pairing.
"""

import math
import random
import types
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest

from qtoric import cohomology, facering, polytope
from qtoric.charpair import (
    CharacteristicPair,
    cp_pair,
    cube_pair,
    hirzebruch_pair,
    polygon_pair,
    s2xs2_pair,
)
from qtoric.cohomology import (
    _ZERO,
    DEFAULT_SEED,
    AdmissibilityReport,
    BundleSpec,
    PointModel,
    QuasitoricModel,
    _agree,
    _linear_items,
    _monomial_value,
    _p1_terms,
    _vector_items,
    check_admissible,
)
from qtoric.errors import InternalConsistencyError
from qtoric.index import (
    ConnectedSumModel,
    ProductModel,
    colored_index,
    elliptic_genus,
    phi_c,
    verify_exhaustive_split_vanishing,
    witten_genus,
)
from qtoric.polynomial import GradedPolynomial as GP
from qtoric.polytope import facet_chromatic
from qtoric.qseries import bundle_series, log_table, root_factor
from test_charpair import dense_rebased, vertex_cuts

Q_ORDER = 2


def _quasitoric(spec, seed=DEFAULT_SEED):
    family, _, k = spec.partition(":")
    pair = {"cp": lambda: cp_pair(int(k)), "cube": lambda: cube_pair(int(k)),
            "hirzebruch": lambda: hirzebruch_pair(int(k)),
            "polygon": lambda: polygon_pair(int(k)), "s2xs2": s2xs2_pair}[family]()
    return QuasitoricModel(pair, seed=seed)


def _models():
    out = {spec: _quasitoric(spec)
           for spec in ("cp:2", "cp:3", "cp:4", "cp:5", "hirzebruch:1", "s2xs2", "cube:3")}
    out["polygon:6 x cp:2"] = ProductModel(_quasitoric("polygon:6"), _quasitoric("cp:2"))
    out["cp:2 # cp:2"] = ConnectedSumModel(_quasitoric("cp:2"), _quasitoric("cp:2"), 1)
    out["cp:2 # -cp:2"] = ConnectedSumModel(_quasitoric("cp:2"), _quasitoric("cp:2"), -1)
    out["point"] = PointModel()
    return out


MODELS = _models()


# ----------------------------------------------------------------------
# the monomial route


class OldPairing:
    """Per-monomial localization at a generic point of the oracle's own."""

    def __init__(self, model, seed=7):
        self.model = model
        self.memo = {}
        if isinstance(model, QuasitoricModel):
            rng = random.Random(seed)
            data = list(zip(model.polytope.vertices, model.pair.vertex_weights))
            while True:
                t = [rng.randint(-50, 50) for _ in range(model.n)]
                weights = [dict(zip(v, (sum(a * b for a, b in zip(w, t)) for w in ws)))
                           for v, ws in data]
                if all(all(x.values()) for x in weights):
                    break
            self.weights = weights
        elif isinstance(model, (ProductModel, ConnectedSumModel)):
            self.left = OldPairing(model.left, seed + 1)
            self.right = OldPairing(model.right, seed + 2)

    def monomial(self, mon):
        mon = tuple(sorted(mon))
        if mon not in self.memo:
            self.memo[mon] = self._monomial(mon)
        return self.memo[mon]

    def _monomial(self, mon):
        model = self.model
        if len(mon) != model.n:
            return Fraction(0)
        if isinstance(model, PointModel):
            return Fraction(1)
        if isinstance(model, QuasitoricModel):
            signs, total = model.pair.signs, Fraction(0)
            for vid, x in enumerate(self.weights):
                if not set(mon) <= set(x):
                    continue
                num, den = 1, model.pair.orientation_signs[vid]
                for i in mon:
                    num *= signs[i] * x[i]
                for w in x.values():
                    den *= w
                total += Fraction(num, den)
            return total
        off = model.offset
        left = tuple(i for i in mon if i < off)
        right = tuple(i - off for i in mon if i >= off)
        if isinstance(model, ProductModel):
            return self.left.monomial(left) * self.right.monomial(right)
        if not right:
            return self.left.monomial(left)
        if not left:
            return model.sign * self.right.monomial(right)
        return Fraction(0)

    def top(self, poly):
        return sum((c * self.monomial(mon) for mon, c in poly.terms.items()
                    if len(mon) == self.model.n), Fraction(0))

    def is_zero(self, poly):
        n, m = self.model.n, self.model.gen_count
        for d in poly.degrees_present():
            if d > n:
                continue
            part = poly.homogeneous_part(d)
            for w in combinations_with_replacement(range(m), n - d):
                if self.top(part.mul(GP({w: Fraction(1)}))) != 0:
                    return False
        return True


def old_phi_c(model, V=(), W=(), c1c=None, via_q2=False, q_order=Q_ORDER):
    n = model.n
    V = [GP.linear(v) for v in V]
    W = [GP.linear(w) for w in W]
    if not V:
        integrand = root_factor("EXPHALF", GP.linear(c1c or []), q_order, n)
    elif via_q2:
        integrand = (bundle_series("EXPHALF", V, q_order, n)
                     * bundle_series("Q2", V, q_order, n))
    else:
        euler = GP.one()
        for x in V:
            euler = euler.mul(x, n)
        integrand = bundle_series("Q2PRIME", V, q_order, n) * euler
    integrand = integrand * bundle_series("Q1", model.tangent_roots, q_order, n)
    integrand = integrand * bundle_series("AHAT", model.tangent_roots, q_order, n)
    if W:
        integrand = integrand * bundle_series("Q3", W, q_order, n)
    oracle = OldPairing(model)
    return [oracle.top(c) for c in integrand.coeffs]


# ----------------------------------------------------------------------
# the dense point loop


def _exp_numerator(E, top):
    """top! * [s^top] of exp(sum_{k=1..top} E[k](q) s^k), E[k] lists of q coefficients.

    F = exp(sum E_k s^k) obeys k F_k = sum_{i=1..k} i E_i F_{k-i}, so
    g_k = k! F_k obeys g_k = sum_i i (k-1)!/(k-i)! E_i g_{k-i}: integer
    arithmetic for integer E, products truncated in q.
    """
    N = len(E[0]) - 1
    nonzero = {i for i in range(1, top + 1) if any(E[i])}
    g = [[1] + [0] * N]
    for k in range(1, top + 1):
        acc = [0] * (N + 1)
        falling = 1  # (k-1)! / (k-i)!
        for i in range(1, k + 1):
            if i > 1:
                falling *= k - i + 1
            if i not in nonzero:
                continue
            f = g[k - i]
            for a, e in enumerate(E[i]):
                if e:
                    e *= i * falling
                    for b in range(N + 1 - a):
                        acc[a + b] += e * f[b]
        g.append(acc)
    return g[top]


def reference_pair_series(model, plan, q_order):
    """IndexModel.pair_series as it was: each (kinds, roots) of the plan
    read from its table, every root of every group evaluated at every
    point, an Euler-class root that is zero there zeroes the point through
    the product of x^xpow, and each point carries the whole q-series
    through one truncated exponential, in integers after scaling s by the
    common denominator delta of the L_k."""
    groups = [(log_table(kinds, q_order, model.n), roots) for kinds, roots in plan if roots]
    top = model.n - sum(table[0] * len(roots) for table, roots in groups)
    if top < 0:
        return [_ZERO] * (q_order + 1)
    delta = math.lcm(*(x.denominator for (_, _, L), _ in groups
                       for row in L[:top] for x in row))
    scaled = [[[int(x * delta ** k) for x in row] for k, row in enumerate(L[:top], 1)]
              for (_, _, L), _ in groups]
    values = []
    for pts in model.fixed_points():
        common = math.lcm(*(den for _, den in pts))
        total = [0] * (q_order + 1)
        for vals, den in pts:
            pref = 1
            E = [[0] * (q_order + 1) for _ in range(top + 1)]
            for ((xpow, _, _), roots), L in zip(groups, scaled):
                xs = [sum(a * vals.get(i, 0) for i, a in root) for root in roots]
                if xpow:
                    for x in xs:
                        pref *= x ** xpow
                powers = xs
                for k in range(1, top + 1):
                    pk = sum(powers)
                    if pk:
                        E[k] = [e + pk * l for e, l in zip(E[k], L[k - 1])]
                    powers = [y * x for y, x in zip(powers, xs)]
            if pref:
                pref *= common // den
                total = [t + pref * g for t, g in zip(total, _exp_numerator(E, top))]
        values.append([Fraction(t, common) for t in total])
    scale = Fraction(math.prod(c ** len(roots) for (_, c, _), roots in groups),
                     math.factorial(top) * delta ** top)
    return [x * scale for x in _agree(values, "series coefficients")]


# ----------------------------------------------------------------------
# the zero test with a support index and a face table per point set


def _reference_weights(model, part):
    """IndexModel._weights as it was: each term is evaluated at the points
    that a frozenset support index lists for all of its generators."""
    scale = math.lcm(*(c.denominator for c in part.terms.values()))
    terms = [(mon, int(c * scale)) for mon, c in part.terms.items()]
    out = []
    for pts in model.fixed_points():
        common = math.lcm(*(den for _, den in pts))
        support = {}
        for p, (vals, _) in enumerate(pts):
            for i in vals:
                support.setdefault(i, set()).add(p)
        support = {i: frozenset(ps) for i, ps in support.items()}
        acc = {}
        for mon, c in terms:
            at = (frozenset.intersection(*(support.get(i, frozenset()) for i in set(mon)))
                  if mon else range(len(pts)))
            for p in at:
                acc[p] = acc.get(p, 0) + c * _monomial_value(mon, pts[p][0])
        weights = {p: v * (common // pts[p][1]) for p, v in acc.items() if v}
        out.append((pts, weights, common * scale))
    return out


def reference_pair_top(model, poly):
    values = [Fraction(sum(weights.values()), common) for _, weights, common
              in _reference_weights(model, poly.homogeneous_part(model.n))]
    return _agree(values, "pairing of %r", poly)


def _faces(pts, k):
    """The k-element faces (k generators all nonzero at some point) -> their
    points, read off one point set alone."""
    out = {}
    for p, (vals, _) in enumerate(pts):
        for S in combinations(sorted(vals), k):
            out.setdefault(S, []).append(p)
    return out


def reference_nonzero_face(model, poly):
    """IndexModel.nonzero_face as it was: a face table per point set, the
    two tables compared, then the sorted faces tried up to the first one
    that pairs nonzero."""
    n = model.n
    for d in poly.degrees_present():
        if d > n:
            continue
        part = poly.homogeneous_part(d)
        weighted = _reference_weights(model, part)
        if not any(weights for _, weights, _ in weighted):
            continue
        faces = [_faces(pts, n - d) for pts, _, _ in weighted]
        if faces[0].keys() != faces[1].keys():
            raise InternalConsistencyError(
                "faces of size %d differ between generic points" % (n - d))
        for S in sorted(faces[0]):
            (a, den_a), (b, den_b) = [
                (sum(weights[p] * _monomial_value(S, pts[p][0])
                     for p in at[S] if p in weights), common)
                for (pts, weights, common), at in zip(weighted, faces)]
            if a * den_b != b * den_a:
                raise InternalConsistencyError("pairing of %r with u_%r disagrees" % (part, S))
            if a:
                return S
    return None


def _assert_zero_test_matches_reference(model, poly, face):
    assert (face is None) == (reference_nonzero_face(model, poly) is None), poly
    if face is not None:
        assert model.pair_top(poly.mul(GP({face: Fraction(1)}))) != 0, (poly, face)
    assert model.pair_top(poly) == reference_pair_top(model, poly), poly


# ----------------------------------------------------------------------
# series


def _unit(model, *gens):
    return [[1 if i == g else 0 for i in range(model.gen_count)] for g in gens]


@pytest.mark.parametrize("name", list(MODELS))
def test_witten_and_elliptic_match_monomial_route(name):
    model = MODELS[name]
    assert witten_genus(model, Q_ORDER).series == old_phi_c(model)
    tangent = [r.integer_vector(model.gen_count) for r in model.tangent_roots]
    twisted = old_phi_c(model, W=tangent)
    assert phi_c(model, None, model.tangent_bundle(), q_order=Q_ORDER).series == twisted
    if model.is_even_vector(model.c1_vector):
        scale = Fraction(1, 2 ** (len(tangent) - model.n))
        assert elliptic_genus(model, Q_ORDER).series == [c * scale for c in twisted]


@pytest.mark.parametrize("name", [k for k in MODELS if k != "point"])
def test_twisted_phi_c_matches_monomial_route(name):
    model = MODELS[name]
    m = model.gen_count
    V = _unit(model, 0) + _unit(model, m - 1)
    W = _unit(model, 1)
    expected = old_phi_c(model, V=V)
    assert old_phi_c(model, V=V, via_q2=True) == expected
    assert phi_c(model, V, None, q_order=Q_ORDER).series == expected
    assert phi_c(model, V, W, q_order=Q_ORDER).series == old_phi_c(model, V=V, W=W)
    c1c = list(model.c1_vector)
    assert (phi_c(model, None, W, q_order=Q_ORDER, c1c=c1c).series
            == old_phi_c(model, W=W, c1c=c1c))


def test_euler_route_beyond_top_degree_is_zero():
    model = MODELS["cp:2"]
    V = _unit(model, 0, 1, 2)  # e(V) has degree 3 > n
    series = phi_c(model, V, None, q_order=Q_ORDER).series
    assert series == old_phi_c(model, V=V) == [0] * (Q_ORDER + 1)
    assert old_phi_c(model, V=V, via_q2=True) == series


def test_point_model_series():
    point = MODELS["point"]
    assert phi_c(point, None, None, q_order=3, c1c=[]).series == [1, 0, 0, 0]


def _sparse_models():
    out = dict(MODELS)
    out["cube:3 x cp:2"] = ProductModel(_quasitoric("cube:3"), _quasitoric("cp:2"))
    out["cube:3 # cube:3"] = ConnectedSumModel(_quasitoric("cube:3"), _quasitoric("cube:3"), 1)
    out["cube:4 with 3 vertex cuts"] = QuasitoricModel(vertex_cuts(cube_pair(4), 3, 4))
    return out


SPARSE_MODELS = _sparse_models()


@pytest.mark.parametrize("name", list(SPARSE_MODELS))
def test_pair_series_matches_dense_point_loop(name, monkeypatch):
    """Every pair_series call of the index routes gives the dense loop's series.

    On a product or a connected sum the other side's generators are absent
    at a point; V and W span several generators; a linear relation as V is
    zero in cohomology, so its Euler class and the series vanish.
    """
    model = SPARSE_MODELS[name]
    engine = model.pair_series
    calls = []

    def checked(plan, q_order):
        series = engine(plan, q_order)
        assert series == reference_pair_series(model, plan, q_order), (name, plan)
        calls.append(q_order)
        return series

    monkeypatch.setattr(model, "pair_series", checked)
    m = model.gen_count
    spin = model.is_even_vector(model.c1_vector)
    relations = [BundleSpec([r], m) for r in _relations(model)]
    for q_order in range(7):
        witten_genus(model, q_order)
        phi_c(model, None, model.tangent_bundle(), q_order=q_order)
        if spin:
            elliptic_genus(model, q_order)
        if not m:
            continue
        spread = [[1 if i in (0, 3 % m) else 0 for i in range(m)]]
        V = spread + _unit(model, m - 1)
        W = [[1 if i in (1 % m, m - 1) else 0 for i in range(m)]]
        phi_c(model, V, W, q_order=q_order)
        phi_c(model, spread, None, q_order=q_order)
        for relation in relations:
            series = phi_c(model, relation, W, q_order=q_order).series
            assert series == [0] * (q_order + 1), (name, relation.classes)
        verify_exhaustive_split_vanishing(model, range(0, m, 2), q_order)
        verify_exhaustive_split_vanishing(model, [m - 1], q_order)
    assert set(calls) == set(range(7))


def _assembly_cases(seed):
    """(branch, model, plan) for each branch of pair_series' integer
    assembly, on fresh models, the twists' coefficients drawn from seed."""
    rng = random.Random(seed)

    def draw(model, *gens):  # positive on the given generators, so nonzero on CP^n
        return _linear_items(GP.linear([rng.randint(1, 3) if i in gens else 0
                                        for i in range(model.gen_count)]), model.gen_count)

    cp3, cp4, cp4_w, cp4_v = (_quasitoric(spec) for spec in ("cp:3", "cp:4", "cp:4", "cp:4"))
    s2 = ProductModel(_quasitoric("cp:1"), _quasitoric("cp:3"))
    zero = [()]
    return [
        ("odd row", cp3, [(("Q1", "AHAT"), cp3.tangent_items), (("EXPHALF",), [draw(cp3, 0)])]),
        ("W twist", cp4_w, [(("Q1", "AHAT"), cp4_w.tangent_items), (("EXPHALF",), zero),
                            (("Q3",), [draw(cp4_w, 1), draw(cp4_w, 2, 3)])]),
        ("two V roots on one generator", cp4_v,
         [(("Q1", "AHAT"), cp4_v.tangent_items),
          (("EXPHALF", "Q2"), [draw(cp4_v, 0), draw(cp4_v, 0, 4)])]),
        ("an exponent of 2", cp4, [(("Q1", "AHAT"), cp4.tangent_items), (("EXPHALF",), zero)]),
        ("all numbers zero", s2, [(("Q1", "AHAT"), s2.tangent_items), (("EXPHALF",), zero)]),
    ]


@pytest.mark.parametrize("q_order", [0, 1, 7, 25])
def test_integer_assembly_matches_dense_point_loop(q_order, monkeypatch):
    """pair_series sums its series in integers (qseries.assemble: each L
    row scaled over its own denominator, one common denominator for the
    sum).  On every branch of that assembly it gives the dense loop's
    series: an odd row (L_1 = 1/2 of e^{c1c/2}, the only row of odd
    weight, so on CP^3 a nonzero series reads it), a W twist (Q3, c = 2
    per root), a V with two roots on one generator, an exponent vector
    with mu_v = 2 (p_2^2 on CP^4), and S^2 x CP^3, whose numbers are all
    zero and whose series is Fraction zeros."""
    for branch, model, plan in _assembly_cases(q_order + 1):
        seen = []
        numbers = model._characteristic_numbers
        monkeypatch.setattr(model, "_characteristic_numbers", lambda *args: (
            seen.append((args[1], numbers(*args))) or seen[-1][1]))
        series = model.pair_series(plan, q_order)
        assert series == reference_pair_series(model, plan, q_order), (branch, q_order)
        assert all(type(c) is Fraction for c in series) and len(series) == q_order + 1
        ((monomials, values),) = seen
        assert any(values) == any(series) == (branch != "all numbers zero"), branch
        if branch == "odd row":
            assert model.n % 2 and log_table(("EXPHALF",), q_order, 1)[2][0][0] == Fraction(1, 2)
        if branch == "an exponent of 2":
            assert any(e == 2 and value for mu, value in zip(monomials, values) for _, e in mu)


# ----------------------------------------------------------------------
# the points an Euler class is paired at


class _Recording(list):
    """A point set that records which of its points are read."""

    def __init__(self, pts, seen):
        super().__init__(pts)
        self.seen = seen

    def __getitem__(self, p):
        self.seen.add(p)
        return super().__getitem__(p)

    def __iter__(self):
        self.seen.update(range(len(self)))
        return super().__iter__()


def _visited_points(model, monkeypatch):
    """Per _characteristic_numbers call, the points it read from either set."""
    visits, numbers = [], model._characteristic_numbers

    def visiting(*args):
        sets, seen = model._point_sets, set()
        model._point_sets = tuple(_Recording(pts, seen) for pts in sets)
        try:
            return numbers(*args)
        finally:
            model._point_sets = sets
            visits.append(sorted(seen))

    monkeypatch.setattr(model, "_characteristic_numbers", visiting)
    return visits


EULER_MODELS = {  # a model, generators on no common point and on some
    # cube:3 takes three: two Euler roots leave degree 1, which no row fills
    "cube:3": lambda: (_quasitoric("cube:3"), (0, 1, 3), (0, 1, 2)),
    "cube:4 rebased": lambda: (QuasitoricModel(dense_rebased(cube_pair(4), 6), seed=12),
                               (1, 5), (1, 2)),
    "cube:2 x cp:2": lambda: (ProductModel(_quasitoric("cube:2"), _quasitoric("cp:2", 15)),
                              (0, 2), (0, 1)),
}


@pytest.mark.parametrize("name", list(EULER_MODELS))
def test_euler_class_pairs_only_the_points_supporting_it(name, monkeypatch):
    """e(V) = u_a u_b is zero off the points that contain both generators,
    so the pairing reads only those: none for opposite facets, which share
    no vertex (the series is zero), and exactly the points on both for
    adjacent ones, where the series is the dense loop's: nonzero where
    e(V) is a top class (of cube:3, or of cube:2 in the product), zero on
    cube:4.  On cube:3 V takes three generators, with and without an
    opposite pair."""
    model, opposite, adjacent = EULER_MODELS[name]()
    supports = [set(vals) for vals, _ in model.fixed_points()[0]]
    visits = _visited_points(model, monkeypatch)
    for q_order in range(3):
        for pair in (opposite, adjacent):
            V = _unit(model, *pair)
            series = phi_c(model, V, None, q_order=q_order).series
            plan = [(("Q1", "AHAT"), model.tangent_items),
                    (("EXPHALF", "Q2"), BundleSpec.from_vectors(V, model.gen_count).items)]
            assert series == reference_pair_series(model, plan, q_order), (pair, q_order)
            assert visits[-1] == [p for p, support in enumerate(supports)
                                  if set(pair) <= support], (pair, q_order)
        assert any(series) == (name != "cube:4 rebased")
    assert len(visits) == 6 and visits[0::2] == [[]] * 3


# ----------------------------------------------------------------------
# the merged tangent group and the kept tangent numbers


def _route_models():
    """Builders of fresh models, so that each test starts with no kept numbers."""
    out = {spec: (lambda spec=spec: _quasitoric(spec))
           for spec in ("cp:2", "cp:3", "cp:4", "cube:2", "cube:3", "cube:4", "s2xs2",
                        "hirzebruch:1", "hirzebruch:2")}
    out["cp:3 rebased"] = lambda: QuasitoricModel(dense_rebased(cp_pair(3), 5), seed=11)
    out["cube:4 rebased"] = lambda: QuasitoricModel(dense_rebased(cube_pair(4), 6), seed=12)
    out["cp:2 with 2 vertex cuts"] = lambda: QuasitoricModel(vertex_cuts(cp_pair(2), 2, 7),
                                                             seed=13)
    out["cube:3 with 3 vertex cuts"] = lambda: QuasitoricModel(vertex_cuts(cube_pair(3), 3, 8),
                                                               seed=14)
    out["cube:2 x cp:2"] = lambda: ProductModel(_quasitoric("cube:2"), _quasitoric("cp:2", 15))
    out["cube:2 # -cp:2"] = lambda: ConnectedSumModel(_quasitoric("cube:2"),
                                                      _quasitoric("cp:2", 16), -1)
    return out


ROUTE_MODELS = _route_models()


def _tangent_twist(model, q_order):
    """The elliptic genus of a Spin model, else phi_c(M; 0, TM): both pair
    the one merged group over the tangent roots."""
    if model.is_even_vector(model.c1_vector):
        return elliptic_genus(model, q_order).series
    return phi_c(model, None, model.tangent_bundle(), q_order=q_order).series


@pytest.mark.parametrize("name", list(ROUTE_MODELS))
def test_merged_tangent_group_matches_the_unmerged_groups(name):
    """phi_c(M; 0, TM) pairs ("Q1", "AHAT", "Q3") over the tangent roots as
    one group; pair_series on the two groups it replaces, and the monomial
    route, give the same series."""
    model = ROUTE_MODELS[name]()
    roots = model.tangent_items
    merged = phi_c(model, None, model.tangent_bundle(), q_order=Q_ORDER).series
    unmerged = model.pair_series([(("Q1", "AHAT"), roots), (("Q3",), roots)], Q_ORDER)
    tangent = [r.integer_vector(model.gen_count) for r in model.tangent_roots]
    assert merged == unmerged == old_phi_c(model, W=tangent)


@pytest.mark.parametrize("name", list(ROUTE_MODELS))
def test_witten_and_tangent_twist_agree_in_either_order(name):
    """The Witten genus and the tangent twist share the kept numbers; the
    order in which a model is asked for them changes no coefficient."""
    witten_first, twist_first = ROUTE_MODELS[name](), ROUTE_MODELS[name]()
    witten = witten_genus(witten_first, 2).series
    twist = _tangent_twist(witten_first, 1)
    assert _tangent_twist(twist_first, 1) == twist
    assert witten_genus(twist_first, 2).series == witten
    assert witten_first._tangent_numbers == twist_first._tangent_numbers
    # other kinds form other k rows, so they key other numbers: L_1 alone
    exphalf = [(("EXPHALF",), witten_first.tangent_items)]
    assert witten_first.pair_series(exphalf, 2) == ROUTE_MODELS[name]().pair_series(exphalf, 2)


@pytest.mark.parametrize("name", list(ROUTE_MODELS))
def test_kept_tangent_numbers_evaluate_no_point(name, monkeypatch):
    """After the first tangent pairing, the Witten genus and the tangent
    twist at any q-order read the kept numbers: the point loop runs once
    (never in odd n, where no exponent vector is formed)."""
    model, reference = ROUTE_MODELS[name](), ROUTE_MODELS[name]()
    loop = model._characteristic_numbers
    runs, once = [], [1] if model.n % 2 == 0 else []
    monkeypatch.setattr(model, "_characteristic_numbers",
                        lambda *args: runs.append(1) or loop(*args))
    witten_genus(model, 2)
    assert runs == once
    for q_order in (1, 3):
        assert _tangent_twist(model, q_order) == _tangent_twist(reference, q_order)
        assert witten_genus(model, q_order).series == witten_genus(reference, q_order).series
    assert runs == once


@pytest.mark.parametrize("name", list(ROUTE_MODELS))
def test_twisted_root_lists_are_not_kept(name):
    """Only the tangent roots alone are kept: a twist W other than TM, a
    nonzero c1c, an Euler class (of a zero class too, which leaves the
    tangent roots the only nonzero ones) and a split add no entry."""
    model = ROUTE_MODELS[name]()
    m = model.gen_count
    tangent = [r.integer_vector(m) for r in model.tangent_roots]
    phi_c(model, None, _unit(model, 1), q_order=Q_ORDER)
    phi_c(model, None, tangent[:-1], q_order=Q_ORDER)
    phi_c(model, None, tangent, q_order=Q_ORDER, c1c=list(model.c1_vector))
    phi_c(model, _unit(model, 0) + _unit(model, m - 1), None, q_order=Q_ORDER)
    phi_c(model, tangent, None, q_order=Q_ORDER)
    assert phi_c(model, [[0] * m], None, q_order=Q_ORDER).is_zero()
    verify_exhaustive_split_vanishing(model, [m - 1], Q_ORDER)
    assert not model._tangent_numbers
    witten_genus(model, Q_ORDER)
    assert len(model._tangent_numbers or ()) == (model.n % 2 == 0)


# ----------------------------------------------------------------------
# pairings and zero tests


def _relations(model):
    """Linear classes that vanish in the model's cohomology."""
    if isinstance(model, QuasitoricModel):
        pair = model.pair
        return [GP.linear({i: pair.lam[i][j] * pair.signs[i] for i in range(pair.m)})
                for j in range(model.n)]
    if isinstance(model, (ProductModel, ConnectedSumModel)):
        return (_relations(model.left)
                + [r.shift_generators(model.offset) for r in _relations(model.right)])
    return []


def _random_class(model, rng, zero):
    """A mixed-degree class; a zero one is a combination of relation multiples."""
    m, n = model.gen_count, model.n
    out = GP.zero()
    relations = _relations(model)
    for _ in range(3):
        d = rng.randint(0, n)
        mon = tuple(sorted(rng.randrange(m) for _ in range(d)))
        term = GP({mon: Fraction(rng.randint(-3, 3), rng.randint(1, 2))})
        if zero:
            term = term.mul(rng.choice(relations))
        out = out + term
    return out


def _zero_test_models():
    out = {k: v for k, v in MODELS.items() if k != "point"}
    out["cube:4"] = _quasitoric("cube:4")
    out["cube:5"] = _quasitoric("cube:5")
    out["cube:3 x cp:2"] = ProductModel(_quasitoric("cube:3"), _quasitoric("cp:2"))
    out["cube:3 # cube:3"] = ConnectedSumModel(_quasitoric("cube:3"), _quasitoric("cube:3"), 1)
    return out


ZERO_TEST_MODELS = _zero_test_models()
ZERO_TRIALS = 30  # per model: 14 models, 420 classes in all


@pytest.mark.parametrize("name", list(ZERO_TEST_MODELS))
def test_is_zero_class_matches_complement_loop(name):
    """The face-monomial zero test against pairing with every complement."""
    model = ZERO_TEST_MODELS[name]
    oracle = OldPairing(model)
    rng = random.Random(2024)
    seen = set()
    for trial in range(ZERO_TRIALS):
        poly = _random_class(model, rng, zero=trial % 2 == 0)
        expected = oracle.is_zero(poly)
        assert model.is_zero_class(poly) == expected, poly
        assert model.pair_top(poly) == oracle.top(poly)
        witness = model.nonzero_face(poly)
        assert (witness is None) == expected, poly
        if witness is not None:
            # a face: every generator of the witness is nonzero at some point
            for pts in model.fixed_points():
                assert any(set(witness) <= set(vals) for vals, _ in pts), witness
            assert oracle.top(poly.mul(GP({witness: Fraction(1)}))) != 0, (poly, witness)
        seen.add(expected)
    assert seen == {True, False}


@pytest.mark.parametrize("name", list(ZERO_TEST_MODELS))
def test_nonzero_face_matches_reference_on_seeded_classes(name):
    """The seeded classes of test_is_zero_class_matches_complement_loop."""
    model = ZERO_TEST_MODELS[name]
    rng = random.Random(2024)
    for trial in range(ZERO_TRIALS):
        poly = _random_class(model, rng, zero=trial % 2 == 0)
        _assert_zero_test_matches_reference(model, poly, model.nonzero_face(poly))


ZERO_TEST_TWIST_MODELS = {**SPARSE_MODELS,
                          "dense cube:4": QuasitoricModel(dense_rebased(cube_pair(4), 4))}


@pytest.mark.parametrize("name", list(ZERO_TEST_TWIST_MODELS))
def test_nonzero_face_matches_reference_on_twists(name, monkeypatch):
    """Every p1(V + W - TM) that the twists of
    test_pair_series_matches_dense_point_loop form in check_admissible, as
    an integer quadratic form, goes through the engine's zero test, which
    must match the reference."""
    model = ZERO_TEST_TWIST_MODELS[name]
    p1_terms, classes = cohomology._p1_terms, []
    monkeypatch.setattr(cohomology, "_p1_terms",
                        lambda plus, minus: classes.append(p1_terms(plus, minus)) or classes[-1])
    m = model.gen_count
    witten_genus(model, 0)
    phi_c(model, None, model.tangent_bundle(), q_order=0)
    if model.is_even_vector(model.c1_vector):
        elliptic_genus(model, 0)
    if m:
        spread = [[1 if i in (0, 3 % m) else 0 for i in range(m)]]
        V = spread + _unit(model, m - 1)
        W = [[1 if i in (1 % m, m - 1) else 0 for i in range(m)]]
        phi_c(model, V, W, q_order=0)
        phi_c(model, spread, None, q_order=0)
        for relation in _relations(model):
            phi_c(model, BundleSpec([relation], m), W, q_order=0)
        verify_exhaustive_split_vanishing(model, range(0, m, 2), 0)
        verify_exhaustive_split_vanishing(model, [m - 1], 0)
    assert classes
    for terms in classes:
        _assert_zero_test_matches_reference(model, GP(terms), model._nonzero_face(terms, terms))


def _monomial_on_no_point(model):
    """A top-degree monomial whose generators share no point, or None."""
    supports = [set(vals) for vals, _ in model.fixed_points()[0]]
    return next((mon for mon in combinations_with_replacement(range(model.gen_count), model.n)
                 if not any(set(mon) <= support for support in supports)), None)


@pytest.mark.parametrize("name", list(SPARSE_MODELS))
def test_pair_top_matches_reference(name):
    """pair_top reads the zero test's pairing with the empty face, which
    every point contains; it gives the old sum over all points on seeded
    classes, on classes whose top part is zero, and on terms that share no
    point."""
    model = SPARSE_MODELS[name]
    assert list(model._every_face(0)) == [((), list(range(len(model.fixed_points()[0]))))]
    if model.gen_count:
        rng = random.Random(5)
        classes = [_random_class(model, rng, zero=trial % 2 == 0) for trial in range(10)]
        classes.append(GP.one() + GP.generator(0))  # n >= 2: no top part
    else:
        classes = [GP.one(), GP({(): Fraction(-3, 2)})]
    classes.append(GP.zero())
    mon = _monomial_on_no_point(model)
    if mon is not None:
        lone = GP({mon: Fraction(5, 3)})
        vertex = GP({tuple(sorted(model.fixed_points()[0][0][0])): Fraction(1)})
        assert model.pair_top(lone) == 0
        assert model.pair_top(lone + vertex) == model.pair_top(vertex) != 0
        classes += [lone, lone + vertex]
    for poly in classes:
        assert model.pair_top(poly) == reference_pair_top(model, poly), poly


def _yielded_faces(monkeypatch):
    """Record (model, k, face) for each face that _every_face yields, as it
    yields it."""
    every_face, seen = cohomology.IndexModel._every_face, []

    def recording(self, k):
        for S, points in every_face(self, k):
            seen.append((self, k, S))
            yield S, points

    monkeypatch.setattr(cohomology.IndexModel, "_every_face", recording)
    return seen


def _point_lcms(model, monkeypatch):
    """The math.lcm calls cohomology makes over any of the model's point
    denominators (the class's own coefficient lcm is left out)."""
    dens = {den for pts in model.fixed_points() for _, den in pts}
    calls = []

    def lcm(*args):
        if dens & set(args):
            calls.append(args)
        return math.lcm(*args)

    spy = types.SimpleNamespace(**{name: getattr(math, name) for name in dir(math)
                                   if not name.startswith("_")})
    spy.lcm = lcm
    monkeypatch.setattr(cohomology, "math", spy)
    return calls


def _own_weights(model, S):
    """Per point set, the lcm of the denominators at the points containing
    S and the weights u_S(p) lcm / den_p there, from the model's points."""
    out = []
    for pts in model.fixed_points():
        at = [(vals, den) for vals, den in pts if set(S) <= set(vals)]
        common = math.lcm(*(den for _, den in at))
        out.append((common, [math.prod(vals[i] for i in S) * (common // den) for vals, den in at]))
    return out


@pytest.mark.parametrize("spec", ["cube:5", "cp:4"])
def test_basis_faces_keep_their_weights(spec, monkeypatch):
    """A face's weights do not depend on the class, so the face keeps them,
    built the first time it is paired: a second engine zero test of p1(M)
    (_nonzero_face; the public one decides p1 of cube:5 in the face ring)
    takes no lcm over point denominators and gives the same witness (none
    on cube:5, where p1 = 0).  The weights are the model's own, and
    pair_top, whose empty face spans every point, keeps none."""
    model, other = _quasitoric(spec), _quasitoric(spec, seed=3)
    vertex = GP({tuple(sorted(model.fixed_points()[0][0][0])): Fraction(1)})
    p1 = model.p1_poly()
    lcms = _point_lcms(model, monkeypatch)
    model.pair_top(vertex)
    assert len(lcms) == 2 and model._face_weights is None
    first = model._nonzero_face(p1.terms, p1)
    assert len(lcms) == 2 + 2 * len(model._face_weights)
    assert (first is None) == (spec == "cube:5")
    del lcms[:]
    assert model._nonzero_face(p1.terms, p1) == first and lcms == []
    kept = dict(model._face_weights)
    model.pair_top(vertex)
    assert len(lcms) == 2 and model._face_weights == kept
    assert other._nonzero_face(p1.terms, p1) == first
    for m in (model, other):
        assert m._face_weights and all(weights == _own_weights(m, S)
                                       for S, weights in m._face_weights.items())


COMPOSED_MODELS = {
    "cube:3 # -cp:3": ConnectedSumModel(_quasitoric("cube:3"), _quasitoric("cp:3"), -1),
    "(cp:2 # cp:2) x cp:1": ProductModel(
        ConnectedSumModel(_quasitoric("cp:2"), _quasitoric("cp:2"), 1), _quasitoric("cp:1")),
    "point x cube:3": ProductModel(PointModel(), _quasitoric("cube:3")),
    "(cube:2 x cp:1) x cp:2": ProductModel(
        ProductModel(_quasitoric("cube:2"), _quasitoric("cp:1")), _quasitoric("cp:2")),
}
FACE_MODELS = {**ZERO_TEST_MODELS, **ZERO_TEST_TWIST_MODELS, **COMPOSED_MODELS}


@pytest.mark.parametrize("name", [name for name, model in FACE_MODELS.items()
                                  if isinstance(model, (ProductModel, ConnectedSumModel))])
def test_composed_bases_match_all_faces(name):
    """A product's or connected sum's zero test, over the faces its own
    points show and the face ring's degree 4 where it has a presentation,
    decides zero-ness as the reference's every face of complementary size
    does; it may name another face, but one that pairs nonzero."""
    model = FACE_MODELS[name]
    rng = random.Random(11)
    seen = set()
    for trial in range(20):
        poly = _random_class(model, rng, zero=trial % 2 == 0)
        face = model.nonzero_face(poly)
        assert model.is_zero_class(poly) == (face is None)
        _assert_zero_test_matches_reference(model, poly, face)
        seen.add(face is None)
    assert seen == {True, False}


def _expected_faces(model, k):
    """The faces of size k of a model, read off its structure: its
    polytope's faces of codimension k (polytope._faces), the empty face
    alone for the point, the factors' faces joined for a product and the
    summands' faces side by side for a connected sum."""
    if isinstance(model, QuasitoricModel):
        return set(polytope._faces(model.polytope.vertices, k))
    if isinstance(model, PointModel):
        return {()} if k == 0 else set()
    off = model.offset
    if isinstance(model, ProductModel):
        return {L + tuple(i + off for i in R) for j in range(k + 1)
                for L in _expected_faces(model.left, j)
                for R in _expected_faces(model.right, k - j)}
    return _expected_faces(model.left, k) | {tuple(i + off for i in R)
                                              for R in _expected_faces(model.right, k)}


EVERY_FACE_MODELS = {
    "point": PointModel(),
    "cp:3": _quasitoric("cp:3"),
    "cube:4": _quasitoric("cube:4"),
    "cube:4 with 3 vertex cuts": SPARSE_MODELS["cube:4 with 3 vertex cuts"],
    "cube:3 x cp:2": ZERO_TEST_MODELS["cube:3 x cp:2"],
    "point x cube:3": COMPOSED_MODELS["point x cube:3"],
    "cube:3 # -cp:3": COMPOSED_MODELS["cube:3 # -cp:3"],
    "cp:2 # cp:2": MODELS["cp:2 # cp:2"],
    "(cp:2 # cp:2) x cp:1": COMPOSED_MODELS["(cp:2 # cp:2) x cp:1"],
}


@pytest.mark.parametrize("name", list(EVERY_FACE_MODELS))
def test_every_face_yields_each_face_once_with_its_points(name):
    """_every_face(k) yields each face of size k exactly once, with exactly
    the points containing it, ascending, for every k from 0 (the empty
    face, with every point) to n (the points themselves, both summands' for
    a connected sum): the faces the model's structure gives and the k-sets
    that the points' supports show."""
    model = EVERY_FACE_MODELS[name]
    supports = [set(vals) for vals, _ in model.fixed_points()[0]]
    for k in range(model.n + 1):
        faces = list(model._every_face(k))
        names = [S for S, _ in faces]
        assert len(set(names)) == len(names)
        assert set(names) == _expected_faces(model, k) == {
            S for support in supports for S in combinations(sorted(support), k)}
        for S, points in faces:
            assert points == [p for p, support in enumerate(supports) if set(S) <= support], S
    assert list(model._every_face(0)) == [((), list(range(len(supports))))]
    assert len(list(model._every_face(model.n))) == len(supports)


def _quadratic_class(model, rng, zero):
    """A seeded class of degree 2 with Fraction coefficients; a zero one is
    a sum of linear relations times linear classes."""
    m = model.gen_count
    out = GP.zero()
    for _ in range(rng.randint(1, 3)):
        i, j = sorted(rng.randrange(m) for _ in range(2))
        term = GP({(i, j): Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))})
        if zero:
            term = GP({(i,): term.terms[(i, j)]}).mul(rng.choice(_relations(model)))
        out = out + term
    return out


DEGREE4_MODELS = {  # a model, and whether the face ring presents its degree 4
    "cube:4": (_quasitoric("cube:4"), True),
    "cp:4": (_quasitoric("cp:4"), True),
    "cube:4 with 3 vertex cuts": (SPARSE_MODELS["cube:4 with 3 vertex cuts"], True),
    "cube:3 # -cp:3": (COMPOSED_MODELS["cube:3 # -cp:3"], True),
    "cube:3 x cp:2": (ZERO_TEST_MODELS["cube:3 x cp:2"], True),
    "cube:5 with 5 vertex cuts": (QuasitoricModel(vertex_cuts(cube_pair(5), 5, 1)), True),
    "cube:5 with 10 vertex cuts": (QuasitoricModel(vertex_cuts(cube_pair(5), 10, 1)), False),
    "(cp:2 # cp:2) x cp:1": (COMPOSED_MODELS["(cp:2 # cp:2) x cp:1"], False),
}


@pytest.mark.parametrize("name", list(DEGREE4_MODELS))
def test_degree4_route_matches_the_engine(name, monkeypatch):
    """The public zero test of a degree-2 class at n >= 3 asks the face
    ring first and names the engine's own first face (_nonzero_face), on
    seeded classes with Fraction coefficients; where the ring has a
    presentation a zero class tries no face at all.  Past PRICE (cube:5
    with 10 vertex cuts), and for a product with a connected sum of n = 2,
    there is no presentation, and the faces decide."""
    model, presented = DEGREE4_MODELS[name]
    assert (facering._presentations(model) is not None) is presented
    ring, asked = facering.degree4_zero, []
    monkeypatch.setattr(facering, "degree4_zero",
                        lambda *args: asked.append(1) or ring(*args))
    faces = _yielded_faces(monkeypatch)
    rng = random.Random(name)
    seen = set()
    for trial in range(16):
        poly = _quadratic_class(model, rng, zero=trial % 2 == 0)
        engine = model._nonzero_face(poly.terms, poly)
        del faces[:], asked[:]
        face = model.nonzero_face(poly)
        assert face == engine, poly
        assert asked == ([1] if poly.terms else [])
        if face is None and presented:
            assert faces == []
        seen.add(face is None)
    assert seen == {True, False}


@pytest.mark.parametrize("model, poly, d", [
    (_quasitoric("cube:4"), GP({(0, 1): Fraction(1)}), 2),
    (_quasitoric("cube:4"), GP.generator(2), 1),
    (MODELS["cp:4"], MODELS["cp:4"].p1_poly(), 2),
    (COMPOSED_MODELS["(cp:2 # cp:2) x cp:1"], GP({(0, 6): Fraction(1, 2)}), 2),
    (COMPOSED_MODELS["cube:3 # -cp:3"], GP.generator(7), 1),
], ids=["cube:4 u0 u1", "cube:4 u2", "cp:4 p1", "(cp:2 # cp:2) x cp:1", "cube:3 # -cp:3 u7"])
def test_a_nonzero_class_yields_no_face_after_its_witness(model, poly, d, monkeypatch):
    """The faces are found lazily: a nonzero class of degree d stops at its
    witness, the last face yielded, and no later face is found."""
    faces = _yielded_faces(monkeypatch)
    face = model.nonzero_face(poly)
    assert face is not None and faces[-1] == (model, model.n - d, face)
    assert len(faces) < len(list(model._every_face(model.n - d)))


def test_p1_of_cube_10_is_decided_without_a_face(monkeypatch):
    """p1 of cube:10 is zero in degree 4 of the face ring, so the public
    zero test drops it there and yields no face at all."""
    model = _quasitoric("cube:10")
    faces = _yielded_faces(monkeypatch)
    assert model.is_zero_class(model.p1_poly())
    assert faces == []


def test_a_class_the_ring_finds_nonzero_yields_no_face(monkeypatch):
    """u_0 u_1 of cube:6 is nonzero in degree 4 of the face ring, so the
    public zero test answers at once, asking the ring once and yielding no
    face; nonzero_face still finds the engine's witness."""
    model, poly = _quasitoric("cube:6"), GP({(0, 1): Fraction(1)})
    ring, asked = facering.degree4_zero, []
    monkeypatch.setattr(facering, "degree4_zero", lambda *args: asked.append(1) or ring(*args))
    faces = _yielded_faces(monkeypatch)
    assert model.is_zero_class(poly) is False
    assert faces == [] and asked == [1]
    assert model.nonzero_face(poly) == model._nonzero_face(poly.terms, poly) is not None


@pytest.mark.parametrize("name, zero", [("cube:6", True), ("cp:4", False)])
def test_check_admissible_hands_the_ring_its_p1_form_uncopied(name, zero, monkeypatch):
    """p1(V + W - TM) is purely quadratic, so check_admissible asks the
    face ring once with the very form it keeps for the witness, not a copy
    of its quadratic part."""
    model = _quasitoric(name) if name.startswith("cube") else MODELS[name]
    ring, asked = facering.degree4_zero, []
    monkeypatch.setattr(facering, "degree4_zero",
                        lambda m, terms: asked.append(terms) or ring(m, terms))
    empty = BundleSpec.empty(model.gen_count)
    report = check_admissible(model, empty, empty)
    assert report.p1_zero is zero
    assert len(asked) == 1 and asked[0] is report._pending[1]


def test_p1_witness():
    empty = BundleSpec.empty
    cube = _quasitoric("cube:7")
    report = check_admissible(cube, empty(cube.gen_count), empty(cube.gen_count))
    assert report.p1_zero and report.p1_witness is None
    cp4 = MODELS["cp:4"]
    report = check_admissible(cp4, empty(cp4.gen_count), empty(cp4.gen_count))
    assert not report.p1_zero
    face = cp4.nonzero_face(-cp4.p1_poly())
    assert len(face) == cp4.n - 2
    assert report.p1_witness == tuple(cp4.gen_labels[i] for i in face)
    assert "p1_witness" not in report.as_dict()


def test_part_zero_at_every_point_tries_no_face(monkeypatch):
    """The p1 test of a colouring twist: p1(V) - p1(TM) is a sum of cross
    terms u_i u_j of same-coloured facets, which share no vertex, so the
    engine tries no face, not even when the witness is read (the report's
    comparison reads it)."""
    model = _quasitoric("cube:6")
    _, coloring = facet_chromatic(model.polytope)
    faces = _yielded_faces(monkeypatch)
    result = colored_index(model, coloring, q_order=1)
    assert result.admissibility == AdmissibilityReport(
        spin_c_exists=True, w_is_spin=True, p1_zero=True, c1c_vector=(1,) * 12)
    assert faces == [] and model._face_weights is None


# ----------------------------------------------------------------------
# generic points


@pytest.mark.parametrize("spec", ["cp:3", "hirzebruch:1", "cube:3"])
def test_series_do_not_depend_on_seed(spec):
    V = [[1] + [0] * (_quasitoric(spec).gen_count - 1)]
    results = set()
    for seed in (DEFAULT_SEED, 1, 99991):
        model = _quasitoric(spec, seed)
        product = ProductModel(model, _quasitoric("cp:2", seed + 1))
        results.add((tuple(witten_genus(model, 3).series),
                     tuple(phi_c(model, V, None, q_order=3).series),
                     tuple(witten_genus(product, 2).series)))
    assert len(results) == 1


def test_disagreeing_points_raise():
    model = _quasitoric("cp:2")
    first, second = model._draw_fixed_points()
    model._draw_fixed_points = lambda: (first, [(vals, 2 * den) for vals, den in second])
    message = (r"pairing of the degree-2 part of GradedPolynomial\(u0\*u1\) with u_\(\) "
               r"disagrees between generic points: 1 vs 1/2")
    with pytest.raises(InternalConsistencyError, match=message):
        model.pair_monomial((0, 1))
    with pytest.raises(InternalConsistencyError):
        witten_genus(model, 1)
    with pytest.raises(InternalConsistencyError, match=message):
        model.is_zero_class(GP.generator(0).mul(GP.generator(1)))


def test_disagreeing_faces_raise():
    model = _quasitoric("cp:2")
    first, second = model._draw_fixed_points()
    model._draw_fixed_points = lambda: (first, second[:-1])
    with pytest.raises(InternalConsistencyError):
        model.is_zero_class(GP.one())  # the vertices, as faces of size n
    # a class that is zero at every point of one set only
    model = _quasitoric("cp:2")
    model._draw_fixed_points = lambda: (first, [({}, den) for _, den in second])
    with pytest.raises(InternalConsistencyError):
        model.is_zero_class(GP.generator(0))


def test_fixed_points_are_drawn_once():
    """Two fixed_points calls return the same kept tuple of both sets."""
    model = _quasitoric("cp:3")
    draws = []
    draw = model._draw_fixed_points
    model._draw_fixed_points = lambda: draws.append(1) or draw()
    points = model.fixed_points()
    assert model.fixed_points() is points and draws == [1]
    assert len(points) == 2 and points == draw()


def _moved_generator(model):
    """The second point set with one generator of one point moved to another."""
    first, second = model._draw_fixed_points()
    vals, den = second[0]
    (_, x), *rest = vals.items()
    j = next(j for j in range(model.gen_count) if j not in vals)
    return first, [({**dict(rest), j: x}, den)] + second[1:]


@pytest.mark.parametrize("call", [
    lambda model: model.pair_top(GP.generator(0).mul(GP.generator(1)).mul(GP.generator(2))),
    lambda model: model.is_zero_class(GP.generator(0)),
    lambda model: witten_genus(model, 1).admissibility.p1_witness,
    lambda model: model.fixed_points(),
], ids=["pair_top", "is_zero_class", "witten_genus", "fixed_points"])
def test_moved_support_raises(call):
    """Same length, one generator moved at one point: the shared support
    pattern is broken, whatever asks for the points first, fixed_points
    itself included."""
    model = _quasitoric("cp:3")
    sets = _moved_generator(model)
    assert len(sets[0]) == len(sets[1])
    model._draw_fixed_points = lambda: sets
    with pytest.raises(InternalConsistencyError, match="supports"):
        call(model)


# ----------------------------------------------------------------------
# p1 = 0 in degree 4 of the face ring


def _ring_models():
    """Every model kind at n >= 3: quasitoric models, odd n among them, their
    GL_n(Z)-rebased twins, a product pair, a cut input, products (with the
    point and with a factor of n = 1) and connected sums of n >= 3."""
    out = {}
    for spec in ("cube:3", "cube:4", "cp:3", "cp:4", "cp:5"):
        model = _quasitoric(spec)
        out[spec] = model
        out[spec + " rebased"] = QuasitoricModel(dense_rebased(model.pair, 3))
    out["hirzebruch:2 * cube:3"] = QuasitoricModel(hirzebruch_pair(2).product_pair(cube_pair(3)))
    out["cube:4 with 3 vertex cuts"] = QuasitoricModel(vertex_cuts(cube_pair(4), 3, 4))
    out["cube:3 x cp:2"] = ProductModel(_quasitoric("cube:3"), _quasitoric("cp:2"))
    out["polygon:6 x cp:1"] = ProductModel(_quasitoric("polygon:6"), _quasitoric("cp:1"))
    out["point x cube:3"] = ProductModel(PointModel(), _quasitoric("cube:3"))
    out["cube:3 # -cp:3"] = ConnectedSumModel(_quasitoric("cube:3"), _quasitoric("cp:3"), -1)
    out["(cube:3 # cube:3) x cp:2"] = ProductModel(
        ConnectedSumModel(_quasitoric("cube:3"), _quasitoric("cube:3"), 1), _quasitoric("cp:2"))
    return out


RING_MODELS = _ring_models()


def _twists(model, rng, count):
    """Seeded (V, W) item lists: tangent roots, often in opposite pairs, so
    that p1(V + W - TM) is often zero, and random classes."""
    m, roots = model.gen_count, model.tangent_items
    out = []
    for t in range(count):
        if t % 3 == 0:
            V, W = [], []
        elif t % 3 == 1:
            chosen = rng.sample(roots, rng.randint(0, len(roots)))
            V, W = chosen[::2], chosen[1::2]
        else:
            V, W = [], []
            for _ in range(rng.randint(1, 3)):
                vec = [0] * m
                for i in rng.sample(range(m), min(m, rng.randint(1, 3))):
                    vec[i] = rng.choice((1, -1, 2))
                rng.choice((V, W)).append(_vector_items(vec))
        out.append((BundleSpec._of_items(V, m), BundleSpec._of_items(W, m)))
    return out


@pytest.mark.parametrize("name", list(RING_MODELS))
def test_degree4_ring_decides_p1_as_the_engine(name):
    """On seeded twists the ring's p1_zero, at two base vertices, is the
    engine's, and the witness read later is the engine's first face."""
    model = RING_MODELS[name]
    assert facering._presentations(model) is not None
    seen = set()
    for V, W in _twists(model, random.Random(name), 24):
        p1 = _p1_terms(V.items + W.items, model.tangent_items)
        face = model._nonzero_face(p1, p1)
        report = check_admissible(model, V, W)
        assert report.p1_zero == (face is None) == (facering.degree4_zero(model, p1) is not False)
        assert report.p1_witness == (None if face is None
                                     else tuple(model.gen_labels[i] for i in face))
        seen.add(report.p1_zero)
    assert seen == {True, False}


def _zero_products(model):
    """Quadratic monomials that vanish in H^4, each the image of a relation:
    u_i u_j for facets i, j of a quasitoric part that do not meet, the right
    part's shifted, and in a connected sum every mixed product."""
    if isinstance(model, QuasitoricModel):
        meeting = model.polytope.facet_pairs()
        return [S for S in combinations(range(model.gen_count), 2) if S not in meeting]
    off = model.offset
    out = _zero_products(model.left) + [(i + off, j + off) for i, j in _zero_products(model.right)]
    if isinstance(model, ConnectedSumModel):
        out += [(i, j) for i in range(off) for j in range(off, model.gen_count)]
    return out


def _joined_models():
    """Products and a connected sum of n = 3 whose parts have a pivot value
    d != +-1: hirzebruch:2's is -2 and 2 at its two base vertices."""
    h2 = "hirzebruch:2"
    return {
        "hirzebruch:2 x hirzebruch:2": ProductModel(_quasitoric(h2), _quasitoric(h2)),
        "hirzebruch:2 x polygon:5": ProductModel(_quasitoric(h2), _quasitoric("polygon:5")),
        "polygon:7 x hirzebruch:2": ProductModel(_quasitoric("polygon:7"), _quasitoric(h2)),
        "(hirzebruch:2 x cp:1) # itself": ConnectedSumModel(
            *[ProductModel(_quasitoric(h2), _quasitoric("cp:1")) for _ in range(2)], 1)}


@pytest.mark.parametrize("name", list(_joined_models()))
def test_joined_tables_rescale_both_sides(name):
    """A join's rows are at the scale d_L d_R: each side's rows are scaled by
    the other side's d.  On seeded quadratic forms with halves among their
    coefficients, a sum of products that vanish (_zero_products) and that
    sum plus one monomial, the ring decides as the engine's zero test; a join
    that leaves one side's rows at its own d finds such sums nonzero."""
    model = _joined_models()[name]
    assert {-2, 2} <= {d for part in (model.left, model.right)
                       for _, _, d, _ in facering._presentations(part)}
    rng, zeros = random.Random(name), _zero_products(model)
    pairs = list(combinations_with_replacement(range(model.gen_count), 2))
    seen = set()
    for _ in range(16):
        form = {mon: rng.choice((1, -2, Fraction(1, 2), Fraction(-3, 2)))
                for mon in rng.sample(zeros, rng.randint(1, 3))}
        for extra in ({}, {rng.choice(pairs): Fraction(1, 2)}):
            terms = {mon: form.get(mon, 0) + extra.get(mon, 0) for mon in {**form, **extra}}
            terms = {mon: c for mon, c in terms.items() if c}
            zero = facering.degree4_zero(model, terms)
            assert zero is (model._nonzero_face(terms, terms) is None)
            assert zero or extra
            seen.add(zero)
    assert seen == {True, False}


def test_hirzebruch_squared_is_admissible_with_no_twist():
    """p1(T(H_2 x H_2)) = 0, decided in the joined table of two parts whose
    d is -2 and 2, with no witness."""
    model = _joined_models()["hirzebruch:2 x hirzebruch:2"]
    empty = BundleSpec.empty(model.gen_count)
    report = check_admissible(model, empty, empty)
    assert report.p1_zero is True and report.p1_witness is None


def _unimodular(n, rng):
    """A seeded matrix in GL_n(Z): the identity under a few row operations."""
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1, 2))
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        if rng.random() < 0.3:
            a[i] = [-x for x in a[i]]
    return a


@pytest.mark.parametrize("spec", ["cube:3", "cube:4", "cp:4", "hirzebruch:2 * cube:3"])
def test_p1_zero_ignores_rebasing_and_relabelling(spec):
    """Property: a GL_n(Z) change of lambda basis and a relabelling of the
    facets (the twists relabelled with them) describe the same manifold
    and the same bundles, so p1_zero does not change, over seeded draws."""
    from test_relabel import relabelled
    base = RING_MODELS[spec].pair
    rng = random.Random(spec)
    for _ in range(6):
        a = _unimodular(base.n, rng)
        lam = [[sum(r[k] * a[k][j] for k in range(base.n)) for j in range(base.n)]
               for r in base.lam]
        perm = rng.sample(range(base.m), base.m)
        twin = QuasitoricModel(relabelled(CharacteristicPair(base.polytope, lam, base.signs),
                                          perm))
        model = QuasitoricModel(base)
        for V, W in _twists(model, rng, 6):
            moved = [BundleSpec._of_items([tuple(sorted((perm[i], x) for i, x in items))
                                           for items in bundle.items], base.m)
                     for bundle in (V, W)]
            assert (check_admissible(model, V, W).p1_zero
                    == check_admissible(twin, *moved).p1_zero)


def test_a_dropped_product_of_facets_that_do_not_meet_raises(monkeypatch):
    """Mutant: the ring is told that opposite facets 0 and 4 of cube:4 meet,
    so it drops u_0 u_4, which p1(TM) = 0 needs.  Both base vertices then
    agree on the wrong answer, and reading the witness, which the engine
    finds, raises."""
    model = _quasitoric("cube:4")
    meeting = model.polytope.facet_pairs()
    monkeypatch.setattr(model.polytope, "facet_pairs", lambda: meeting | {(0, 4)})
    empty = BundleSpec.empty(model.gen_count)
    report = check_admissible(model, empty, empty)
    assert report.p1_zero is False
    with pytest.raises(InternalConsistencyError, match="engine finds the witness None"):
        report.p1_witness


def test_a_flipped_lambda_sign_raises(monkeypatch):
    """Mutant: the ring reads lambda_4 of CP^4 negated, while validation's
    dual bases are the true ones.  Vertex 0 then substitutes u_b = -u_4,
    the last vertex the true u_b = u_4, and on V = u_0 + u_4, u_1 (where
    p1(V - TM) = 4 - 5 + 1 = 0) the two base vertices disagree."""
    model = _quasitoric("cp:4")
    lam = list(model.pair.lam)
    lam[4] = tuple(-x for x in lam[4])
    monkeypatch.setattr(model.pair, "lam", tuple(lam))
    V = BundleSpec.from_vectors([[1, 0, 0, 0, 1], [0, 1, 0, 0, 0]], 5)
    with pytest.raises(InternalConsistencyError, match="first base vertex"):
        check_admissible(model, V, BundleSpec.empty(5))


@pytest.mark.parametrize("name", [name for name, model in RING_MODELS.items()
                                  if isinstance(model, QuasitoricModel)])
def test_degree4_relations_have_full_rank(name, monkeypatch):
    """The free certificate: one independent relation per pair of facets
    that do not meet, so dim H^4 = C(m - n + 1, 2) - that count = h_2.  A
    kernel that loses a pivot is refused when the presentation is built."""
    model = RING_MODELS[name]
    meeting = model.polytope.facet_pairs()
    apart = math.comb(model.gen_count, 2) - len(meeting)
    size = model.gen_count - model.n
    assert math.comb(size + 1, 2) - apart == model.polytope.h_vector()[2]
    for _, _, _, pivots in facering._presentations(model):
        assert len(pivots) == apart  # the killed coordinates' empty rows included
    eliminate, lost = facering._eliminate, []

    def one_pivot_lost(rows):
        sign, d, reduced, pivots = eliminate(rows)
        lost.extend(pivots[-1:])
        return sign, d, reduced, pivots[:-1]

    monkeypatch.setattr(facering, "_eliminate", one_pivot_lost)
    try:
        facering._presentations(QuasitoricModel(model.pair))
    except InternalConsistencyError as error:
        assert lost and "independent relations" in str(error)
    else:
        assert not lost


def test_past_the_price_the_engine_decides_alone(monkeypatch):
    """cube:5 with 10 vertex cuts prices past facering.PRICE: no
    presentation is built and the engine decides at once, with the witness
    it always gave; with the price lifted the ring agrees."""
    pair = vertex_cuts(cube_pair(5), 10, 1)
    model = QuasitoricModel(pair)
    engine, calls = model._nonzero_face, []
    monkeypatch.setattr(model, "_nonzero_face", lambda *args: calls.append(1) or engine(*args))
    empty = BundleSpec.empty(model.gen_count)
    report = check_admissible(model, empty, empty)
    assert facering._presentations(model) is None and calls == [1]
    p1 = _p1_terms([], model.tangent_items)
    face = engine(p1, p1)
    assert report.p1_zero is (face is None) is False
    assert report.p1_witness == tuple(model.gen_labels[i] for i in face) and calls == [1]
    monkeypatch.setattr(facering, "PRICE", 10 ** 9)
    lifted = QuasitoricModel(pair)
    assert facering.degree4_zero(lifted, p1) is False


def test_n_at_most_2_keeps_the_empty_face_pairing(monkeypatch):
    """At n <= 2, p1 lies in the top degree or beyond: the engine pairs it
    with the empty face alone, and no degree-4 presentation is asked for."""
    monkeypatch.setattr(facering, "degree4_zero", lambda *args: pytest.fail("ring asked"))
    faces = _yielded_faces(monkeypatch)
    for spec, zero in (("cp:2", False), ("hirzebruch:1", True), ("cp:1", True)):
        model = _quasitoric(spec)
        empty = BundleSpec.empty(model.gen_count)
        report = check_admissible(model, empty, empty)
        assert report.p1_zero is zero and model._face_weights is None
    assert {(k, S) for _, k, S in faces} <= {(0, ())}


@pytest.mark.parametrize("spec", ["cp:2", "s2xs2", "hirzebruch:0", "hirzebruch:1",
                                  "hirzebruch:2", "hirzebruch:3", "polygon:5", "polygon:6"])
def test_at_n_2_degree_4_is_the_top_degree(spec):
    """At n = 2 the ring's degree-4 presentation, the one the top-pairing
    oracle reduces in, decides zero as the engine's top pairing does, on
    seeded quadratic forms f and on b f - a g, which pairs to zero (a, b
    the pairings of f and of another form g)."""
    model = _quasitoric(spec)
    rng = random.Random(spec)
    pairs = list(combinations_with_replacement(range(model.gen_count), 2))

    def pairing(form):
        value = model.pair_top(GP({mon: Fraction(c) for mon, c in form.items()}))
        assert value.denominator == 1
        return int(value)

    seen = set()
    for _ in range(12):
        f, g = ({mon: rng.randint(-3, 3) for mon in rng.sample(pairs, rng.randint(1, 4))}
                for _ in range(2))
        a, b = pairing(f), pairing(g)
        combined = {mon: b * f.get(mon, 0) - a * g.get(mon, 0) for mon in set(f) | set(g)}
        for form in (f, combined):
            form = {mon: c for mon, c in form.items() if c}
            zero = facering.degree4_zero(model, form)
            assert zero is (pairing(form) == 0)
            seen.add(zero)
    assert seen == {True, False}
