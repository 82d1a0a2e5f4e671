"""Index models: one fixed-point pairing engine and characteristic-class tests.

A model packages everything the index pipeline needs from a closed oriented
manifold whose rational cohomology is generated in degree two: the
half-dimension n, labeled degree-2 generators, the stable tangent roots, a
mod-2 test for degree-2 integral classes, and its fixed-point data.

The fixed-point data are two independently drawn generic point sets, which
share one support pattern (the same points with the same nonzero
generators, checked once when they are drawn); only the values differ.  At
each point every generator u_i is a number (0 off its support) and there is
a denominator, so that <f, [M]> = sum over the points of f / denominator for
every class f of degree n.  For a quasitoric model the points are the
vertices of the orbit polytope (exact localization at a generic rational t);
a product model takes the Cartesian product of its factors' points, a
connected sum the union of its summands' points, and the point model the
single point ({}, 1).

Every pairing runs on that one engine, at both point sets, which must agree
exactly (the sum is a constant; a disagreement is reported as a bug, never
returned).  A class pairs with the monomial u_S of a face S at the points
containing S only, which only the engine finds (_every_face).  pair_top is
the pairing with the empty face, u_() = 1; is_zero_class pairs a class
against every face of the complementary degree, whose monomials span that
degree of H*(M; Q).  The faces are found lazily from the points
themselves, each k-set of a point's own generators once, so one generator
serves every model kind, and a nonzero class stops at its first nonzero
face.  At n >= 3 the public zero test first hands a class's degree-4 part
to the face ring (facering.degree4_zero), which drops it when it is zero
and answers at once when it is not (_ring_first).
A face of size k > 0 keeps its weights u_S(p) lcm / den_p per point set,
built the first time it is paired, so a later zero test only evaluates the
class; the empty face spans every point and builds its weights per call.
pair_series takes a whole product of per-root factors, (kinds, roots) with
the roots integer items, and prices, builds and pairs it in one pass,
reading it at the points only as q-free characteristic numbers, products of
the roots' power sums, from which qseries.assemble sums the q-series in
integers.  It visits only the points where every Euler-class root can be
nonzero, read off the generators' support masks (none for e(V) of two opposite facets),
evaluates only the roots supported at a point, and drops a point at which
an Euler-class root still vanishes.  The model keeps the numbers of its own
tangent roots when they are the only nonzero roots and carry no Euler class
(the Witten genus, the elliptic genus, phi_c(M; 0, TM)), paired once per
model in either order; twisted root lists are paired afresh each call.

The mod-2 test needs no elimination: each model keeps one basis of its even
degree-2 classes mod 2 (IndexModel.is_even_vector), a quasitoric model's
read off the dual basis at one vertex, cached by validation.
check_admissible decides p1 = 0 by the same ring-first rule, and the
engine's zero test finds the witness only when it is read
(AdmissibilityReport.p1_witness).  facering's top-pairing oracle
(QuasitoricModel.ring_reduction_pairing) is a second route that only the
tests compare with the engine.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction
from operator import mul

from .charpair import DEFAULT_SEED
from .errors import BudgetExceededError, InternalConsistencyError, StructureError
from .polynomial import GradedPolynomial, _linear_items, _p1_terms, _vector_items
from .polytope import _containing, int_vector
from .qseries import _table_work, assemble, log_table

_POINT_LO = 10 ** 3
_POINT_HI = 10 ** 6

_ZERO = Fraction(0)

# The most work pair_series takes on: 3.4e5 for Witten at q^400 on CP^2, 1.8e6 for W
# on cube:14 at q^4, 1.7e7 (0.23 s; 8.0e7 at q^860, 0.96 s) for CP^6 with W = u_1, c1c =
# u_0 at q^400, and 9.2e6 (2.9 s) for the tables alone of Witten on cube:3 at q^90000
# (in-process wall times on a 2-vCPU Xeon, Python 3.11).
# It also caps index.admissible_splits at m * 2^r entries: cp:18 has 5.0e6, cp:19 1.05e7.
PAIRING_BUDGET = 10 ** 7


def _int_class(cls, gen_count, what):
    """A degree-2 class, a GradedPolynomial or a list of ints, as an integer tuple."""
    if isinstance(cls, GradedPolynomial):
        return cls.integer_vector(gen_count)
    vec = int_vector(cls, what)
    if len(vec) != gen_count:
        raise StructureError("%s %r has length %d, expected %d" % (what, vec, len(vec), gen_count))
    return vec


# ----------------------------------------------------------------------
# bundle specifications


class BundleSpec:
    """A sum of line bundles, each given by its first Chern class, an
    integral linear class in the gen_count generators, checked here and
    kept as integer items (_linear_items)."""

    def __init__(self, classes, gen_count: int):
        classes = list(classes)
        if not all(isinstance(c, GradedPolynomial) for c in classes):
            raise StructureError("bundle classes must be GradedPolynomial")
        self.items = [_linear_items(c, gen_count) for c in classes]
        self.gen_count = gen_count

    @classmethod
    def _of_items(cls, items, gen_count: int) -> "BundleSpec":
        spec = cls.__new__(cls)
        spec.items, spec.gen_count = list(items), gen_count
        return spec

    @classmethod
    def empty(cls, gen_count: int) -> "BundleSpec":
        return cls._of_items([], gen_count)

    @classmethod
    def from_vectors(cls, vectors, gen_count: int) -> "BundleSpec":
        if not isinstance(vectors, (list, tuple)):
            raise StructureError("bundle spec must be a list of coefficient vectors, got %r"
                                 % (vectors,))
        return cls._of_items([_vector_items(_int_class(vec, gen_count, "bundle vector"))
                              for vec in vectors], gen_count)

    @property
    def dim(self) -> int:
        return len(self.items)

    @property
    def classes(self):
        return [GradedPolynomial({(i,): a for i, a in items}) for items in self.items]

    def c1_vector(self):
        vec = [0] * self.gen_count
        for items in self.items:
            for i, a in items:
                vec[i] += a
        return tuple(vec)

    def p1(self) -> GradedPolynomial:
        return GradedPolynomial(_p1_terms(self.items, ()))

    def to_vectors(self):
        out = []
        for items in self.items:
            vec = [0] * self.gen_count
            for i, a in items:
                vec[i] = a
            out.append(vec)
        return out

    def __repr__(self):
        return "BundleSpec(%d line bundles over %d generators)" % (self.dim, self.gen_count)


# ----------------------------------------------------------------------
# the abstract model


class IndexModel:
    """Interface shared by quasitoric, product, connected-sum and point models.

    Concrete subclasses set: n, gen_labels, tangent_items (the stable tangent
    roots, integer items), c1_vector (integers), euler, name, even_basis,
    and implement _draw_fixed_points.  Every pairing runs on the
    fixed-point engine below, at both point sets, which must agree exactly,
    and the zero test tries the faces that the points show (_every_face).
    """

    n: int
    gen_labels: list
    tangent_items: list
    c1_vector: tuple
    euler: int
    name: str
    even_basis: tuple  # see is_even_vector

    _point_sets = None
    _masks = None  # generator -> bitset of the points supporting it
    _face_weights = None  # face of size k > 0 -> per point set, its _weights
    _tangent_numbers = None  # the k rows formed -> pair_series' numbers of the tangent roots

    @property
    def gen_count(self) -> int:
        return len(self.gen_labels)

    @property
    def tangent_roots(self) -> list:
        return self.tangent_bundle().classes

    def generators(self):
        return [GradedPolynomial.generator(i) for i in range(self.gen_count)]

    def _draw_fixed_points(self):
        """Two generic point sets, each a list of (values {generator: x}, denominator)."""
        raise NotImplementedError

    def is_even_vector(self, vec) -> bool:
        """True iff sum a_i u_i vanishes in mod-2 cohomology.

        even_basis spans the even degree-2 classes mod 2, as (own generator,
        bitmask over the generators) pairs, each class the only one that
        contains its own generator.  Adding the classes whose own generator
        is odd in a clears a there, so a is even iff nothing is left.
        """
        if len(vec) != self.gen_count:
            raise StructureError("vector length %d, expected %d" % (len(vec), self.gen_count))
        rest = sum(1 << i for i, a in enumerate(vec) if a % 2)
        for g, mask in self.even_basis:
            if vec[g] % 2:
                rest ^= mask
        return not rest

    def fixed_points(self):
        """The two generic point sets, drawn once and kept.

        Each is a list of (values {generator: x}, denominator): at a point a
        generator u_i takes the value values.get(i, 0), and <f, [M]> = sum
        over the points of f(values) / denominator for any class f of
        degree n.  Both sets must list the same points with the same nonzero
        generators (only the values differ); that one support pattern is
        checked here, when they are drawn.
        """
        if self._point_sets is None:
            first, second = self._draw_fixed_points()
            if [vals.keys() for vals, _ in first] != [vals.keys() for vals, _ in second]:
                raise InternalConsistencyError(
                    "the generic point sets differ in their points or supports")
            self._point_sets = (first, second)
        return self._point_sets

    def pair_top(self, poly: GradedPolynomial) -> Fraction:
        """<poly, [M]>: its degree-n part's pairing with u_() = 1, the one
        face of size 0, which every point contains (_face_pairings), so a
        model that only pairs top-degree classes tries no other face."""
        self._own_terms(poly.terms)
        for _, value in self._face_pairings(poly, poly.homogeneous_part(self.n).terms, 0):
            return value
        return _ZERO

    def pair_monomial(self, mon) -> Fraction:
        return self.pair_top(GradedPolynomial({tuple(sorted(mon)): Fraction(1)}))

    def nonzero_face(self, poly: GradedPolynomial):
        """The first face S whose monomial u_S pairs nonzero with poly, or None.

        By Poincare duality a class of degree d <= n is zero in H*(M; Q)
        exactly when it pairs to zero with all of H^{2(n-d)}, which the
        monomials u_S of the faces S of size n - d span (H*(M; Q) is the
        face ring modulo a linear system of parameters; Davis-Januszkiewicz;
        Buchstaber-Panov, Toric Topology, ch. 3).  The degree-4 part goes to
        the face ring first (_ring_first) and is dropped when the ring finds
        it zero.  Every other part, and one that the ring finds nonzero or
        cannot present, tries every face of the complementary size, lazily,
        in the order of _every_face, up to its first nonzero face
        (_nonzero_face).  u_S is nonzero only at the points containing S,
        and the class is evaluated only there, once per point
        (_face_pairings); each face must pair the same at both point sets.
        Terms whose generators share no point vanish at every point and are
        dropped first, so a part made only of them tries no face.
        """
        return self._nonzero_face(self._ring_first(self._own_terms(poly.terms))[1], poly)

    def _ring_first(self, terms):
        """(zero, rest): the face ring's verdict on the degree-4 part of the
        class {monomial: coefficient} (facering.degree4_zero, exact),
        None at n <= 2, without it or without a presentation; rest drops it if zero."""
        quadratic = {mon: c for mon, c in terms.items() if len(mon) == 2}
        if not quadratic or self.n <= 2:
            return None, terms
        from .facering import degree4_zero
        zero = degree4_zero(self, quadratic)
        return zero, {mon: c for mon, c in terms.items() if len(mon) != 2} if zero else terms

    def _nonzero_face(self, terms, poly):
        """nonzero_face of the class {monomial: coefficient}, named poly, on
        the engine alone: every part tries its faces, none goes to the ring."""
        n = self.n
        parts = {}
        for mon, c in terms.items():
            if len(mon) <= n:  # beyond top degree: zero automatically
                parts.setdefault(len(mon), {})[mon] = c
        for d in sorted(parts):
            for S, value in self._face_pairings(poly, parts[d], n - d):
                if value:
                    return S
        return None

    def _face_pairings(self, poly, terms, k):
        """One (S, pairing) per face S of size k from _every_face, lazily: the
        pairing of u_S with terms, poly's part of degree n - k, summed over
        S's points with S's _weights, which do not depend on the class: a
        face of size k > 0 keeps them, built the first time it is paired;
        the empty face's span every point and are built per call."""
        point_sets = self.fixed_points()
        masks = self._support_masks()
        full = (1 << len(point_sets[0])) - 1
        scale, constant, by_first = _indexed_terms(
            {mon: c for mon, c in terms.items() if _containing(mon, masks, full)})
        if not constant and not by_first:
            return
        if k and self._face_weights is None:
            self._face_weights = {}
        kept = self._face_weights if k else {}
        values = [{}, {}]  # per point set: point -> the part there, times scale
        for S, points in self._every_face(k):
            weights = kept.get(S)
            if weights is None:
                weights = kept[S] = [_weights(S, points, pts) for pts in point_sets]
            sums = []
            for pts, cache, (common, ws) in zip(point_sets, values, weights):
                total = 0
                for p, w in zip(points, ws):
                    v = cache.get(p)
                    if v is None:
                        v = cache[p] = _evaluate(pts[p][0], constant, by_first)
                    if v:
                        total += v * w
                sums.append(Fraction(total, common * scale) if total else _ZERO)  # most are 0
            yield S, _agree(sums, "pairing of the degree-%d part of %r with u_%r",
                            self.n - k, poly, S)

    def _own_terms(self, terms):
        """The monomials terms, refused unless each is over the model's
        generators 0..gen_count - 1 only."""
        for mon in terms:
            for i in mon:
                if not 0 <= i < self.gen_count:
                    raise StructureError("u_%d is not a generator of %s (u_0..u_%d)"
                                         % (i, self.name, self.gen_count - 1))
        return terms

    def _support_masks(self):
        """Per generator, the bitset of the points supporting it; built once."""
        if self._masks is None:
            self._masks = {}
            for p, (vals, _) in enumerate(self.fixed_points()[0]):
                for i in vals:
                    self._masks[i] = self._masks.get(i, 0) | 1 << p
        return self._masks

    def _supporting(self, roots):
        """The points, ascending, where every root (its generators) can be
        nonzero: the AND over the roots of the OR of their generators'
        masks, off which a root is zero.  Every point for no root."""
        count = len(self.fixed_points()[0])
        if not roots:
            return range(count)
        masks, support = self._support_masks(), (1 << count) - 1
        for gens in roots:
            either = 0
            for i in gens:
                either |= masks.get(i, 0)
            support &= either
        return _bits(support)

    def _every_face(self, k):
        """Every face of size k once, lazily, with the points containing it,
        ascending, which only this method finds: for each point in order,
        each k-set of the point's own generators not yielded before.  The
        empty face comes once, with every point."""
        points = self.fixed_points()[0]
        masks, full = self._support_masks(), (1 << len(points)) - 1
        seen = set()
        for vals, _ in points:
            for S in itertools.combinations(sorted(vals), k):
                if S not in seen:
                    seen.add(S)
                    yield S, _bits(_containing(S, masks, full))

    def is_zero_class(self, poly: GradedPolynomial) -> bool:
        """Rational zero test: poly pairs to zero with every face monomial
        of complementary degree (see nonzero_face); False at once when the
        face ring finds its degree-4 part nonzero."""
        zero, terms = self._ring_first(self._own_terms(poly.terms))
        return zero is not False and self._nonzero_face(terms, poly) is None

    def pair_series(self, plan, q_order: int) -> list:
        """Top-degree pairing of prod over plan of prod_{x in roots} F(x), per q^j.

        plan: (kinds, roots), roots integer items, F(x) = prod_K root_factor(K,
        x) = x^xpow c exp(sum_k L_k(q) x^k), c a number, from its table
        (xpow, c, L) = qseries.log_table(kinds, q_order, n).  With p_gk the
        k-th power sum of group g's roots, e = prod x^xpow, C = prod
        c^#roots, the product is e C exp(sum L^g_k p_gk), and its pairing is
        C times sum_mu <e p^mu, [M]> prod (L^g_k)^mu_gk / mu_gk!, mu over the
        exponent vectors of weight sum k mu_gk = n - deg e in the variables
        (g, k) with L^g_k nonzero and a nonzero root in g.  So the points
        give only these q-free characteristic numbers (_characteristic_numbers,
        agreed at both point sets), and the series is assembled once, in
        integers (qseries.assemble); a group's rows k <= n - deg e are
        planned as its roots are indexed.

        One pass, priced as it goes: past PAIRING_BUDGET steps it raises
        BudgetExceededError before any point is paired, on the tables' work
        (qseries._table_work) before they are built, or on the exponent
        vectors as they are formed, a step per point and n (q_order + 1)^2
        each.  It pairs the vectors it formed; with none it draws no point.

        Only the points where e can be nonzero are paired, read off the
        support masks once a vector is admitted (_supporting over the roots
        of the groups with xpow > 0, the Euler classes), each point set's
        lcm taken over them alone; with none left no point is evaluated.
        At a point only the roots supported there are evaluated: each group
        is indexed by generator, and the point's own nonzero generators are
        walked through that index.  The Euler-class groups come first, and
        a point at which one of their roots still vanishes is dropped.

        When the model's tangent roots are the only group with a nonzero
        root and no group has xpow > 0, the numbers are <p^mu(TM), [M]>,
        whatever the kinds: they are kept per tuple of k rows formed, and a
        later call forming the same rows (the Witten genus after the
        elliptic genus, or the other way round) reads them without
        evaluating a point.
        """
        plan = [(kinds, roots) for kinds, roots in plan if roots]
        work = _table_work(plan, self.n, q_order)
        _check_work(work, q_order)
        groups = sorted(((log_table(kinds, q_order, self.n), roots) for kinds, roots in plan),
                        key=lambda g: g[0][0] == 0)
        top = self.n - sum(xpow * len(roots) for (xpow, _, _), roots in groups)
        indexed, rows, live, euler = [], [], [], []
        for (xpow, _, L), roots in groups:
            by_gen = {}
            for r, items in enumerate(roots):
                for i, a in items:
                    by_gen.setdefault(i, []).append((r, a))
                if xpow:
                    euler.append([i for i, _ in items])
            self._own_terms([by_gen])  # its generators, as one monomial
            ks = [k for k in range(1, top + 1) if any(L[k - 1])] if by_gen else []
            indexed.append((xpow, len(roots), by_gen, ks))
            rows += [(k, L[k - 1]) for k in ks]
            if by_gen:
                live.append(list(roots))
        monomials = []
        for mu in _exponent_vectors([k for k, _ in rows], top):
            if not monomials:
                step = len(self.fixed_points()[0]) + self.n * (q_order + 1) ** 2
            monomials.append(mu)
            _check_work(work + step * len(monomials), q_order)
        if not monomials:  # top < 0, or an odd top with only even k
            return [_ZERO] * (q_order + 1)
        points = self._supporting(euler)
        if top == self.n and live == [self.tangent_items]:
            if self._tangent_numbers is None:
                self._tangent_numbers = {}
            key = tuple(k for k, _ in rows)
            if key not in self._tangent_numbers:
                self._tangent_numbers[key] = self._characteristic_numbers(
                    indexed, monomials, points)
            numbers = self._tangent_numbers[key]
        else:
            numbers = self._characteristic_numbers(indexed, monomials, points)
        C = math.prod(c ** len(roots) for (_, c, _), roots in groups)
        return assemble([row for _, row in rows], [(number * C, mu) for number, mu
                                                   in zip(numbers, monomials) if number], q_order)

    def _characteristic_numbers(self, indexed, monomials, points):
        """The q-free numbers <e p^mu, [M]> of pair_series, one per exponent
        vector mu, from the groups as pair_series indexes them, summed over
        the given points, off which e is zero; both point sets must agree.
        Each set is weighted as the empty face over those points (_weights)."""
        numbers = []
        for pts in self.fixed_points():
            common, weights = _weights((), points, pts)
            sums = [0] * len(monomials)
            for point, weight in zip(points, weights):
                vals = pts[point][0]
                pref, p = 1, []
                for xpow, count, by_gen, ks in indexed:
                    acc = {}
                    for i, v in vals.items():
                        for r, a in by_gen.get(i, ()):
                            acc[r] = acc.get(r, 0) + a * v
                    xs = [x for x in acc.values() if x]
                    if xpow:
                        if len(xs) < count:
                            pref = 0
                            break
                        for x in xs:
                            pref *= x ** xpow
                    p += [sum(x ** k for x in xs) for k in ks]
                if pref:
                    pref *= weight
                    for j, mu in enumerate(monomials):
                        sums[j] += pref * math.prod(p[v] ** e for v, e in mu)
            numbers.append([Fraction(s, common) for s in sums])
        return _agree(numbers, "characteristic numbers")

    def p1_poly(self) -> GradedPolynomial:
        return self.tangent_bundle().p1()

    def tangent_bundle(self) -> BundleSpec:
        return BundleSpec._of_items(self.tangent_items, self.gen_count)

    def __repr__(self):
        return "%s(%s, n=%d, m=%d)" % (
            type(self).__name__, self.name or "?", self.n, self.gen_count)


def _check_work(work, q_order):
    """Refuse a pairing whose work is past PAIRING_BUDGET."""
    if work > PAIRING_BUDGET:
        raise BudgetExceededError("q_order %d: the pairing needs about %d steps, over the "
                                  "budget of %d" % (q_order, work, PAIRING_BUDGET))


def _agree(values, what, *args):
    """The common value of both generic point sets; a disagreement is a bug."""
    first, second = values
    if first != second:
        raise InternalConsistencyError(
            "%s disagrees between generic points: %s vs %s"
            % (what % args, first, second))
    return first


def _bits(mask):
    """The positions of the set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _weights(S, points, pts):
    """u_S at the points of one point set that contain S, over their
    denominators: their lcm and, per point, u_S(p) lcm / den_p."""
    common = math.lcm(*(pts[p][1] for p in points))
    return common, [_monomial_value(S, pts[p][0]) * (common // pts[p][1]) for p in points]


def _indexed_terms(terms):
    """A class {monomial: coefficient} times the lcm of its denominators, as
    that lcm, its constant and its other terms indexed by first generator."""
    scale = math.lcm(*(c.denominator for c in terms.values()))
    constant, by_first = int(terms.get((), 0) * scale), {}
    for mon, c in terms.items():
        if mon:
            by_first.setdefault(mon[0], []).append((mon[1:], int(c * scale)))
    return scale, constant, by_first


def _evaluate(vals, constant, by_first):
    """A class at a point (see _indexed_terms): each of the point's own
    generators walked through the terms that start with it."""
    v = constant
    for i, x in vals.items():
        for rest, c in by_first.get(i, ()):
            for j in rest:
                c *= vals.get(j, 0)
            v += c * x
    return v


def _monomial_value(mon, vals):
    v = 1
    for i in mon:
        v *= vals[i]
    return v


def _exponent_vectors(weights, total, start=0):
    """The exponent vectors mu with sum_v weights[v] mu_v = total over the
    variables v >= start, each as its pairs (v, mu_v) with mu_v > 0, lazily."""
    if total == 0:
        yield ()
    for v in range(start, len(weights)):
        for e in range(1, total // weights[v] + 1):
            for rest in _exponent_vectors(weights, total - e * weights[v], v + 1):
                yield ((v, e),) + rest


class PointModel(IndexModel):
    """The one-point model: n = 0, pairing of the empty monomial is 1."""

    even_basis = ()

    def __init__(self):
        self.n = 0
        self.gen_labels = []
        self.tangent_items = []
        self.c1_vector = ()
        self.euler = 1
        self.name = "point"

    def _draw_fixed_points(self):
        return [({}, 1)], [({}, 1)]


# ----------------------------------------------------------------------
# quasitoric models via localization


class QuasitoricModel(IndexModel):
    """Index model of a characteristic pair, backed by fixed-point localization.

    Generators u_i correspond to facets; u_i restricts at a vertex to
    signs_i times the dual covector of its lambda row there, and to 0 at
    vertices away from the facet.  The per-vertex orientation signs come
    from the pair's validation walk, which fixes the base vertex (the
    lexicographically first one) to +1; this pins the fundamental class so
    that <u_1, [CP^1]> = +1 for the standard pair and makes the
    localization sums exactly the pairings against the linear relations
    sum_i lambda_ij * signs_i * u_i = 0.
    """

    def __init__(self, pair, seed: int = DEFAULT_SEED):
        pair.require_valid()
        self.pair = pair
        self.polytope = pair.polytope
        self.n = pair.n
        self.gen_labels = list(pair.polytope.facet_names)
        self.tangent_items = [((i, s),) for i, s in enumerate(pair.signs)]
        self.c1_vector = tuple(pair.signs)
        self.euler = len(pair.polytope.vertices)
        self.name = pair.name
        self.seed = seed

    # -- fixed-point data ------------------------------------------------

    def _draw_point_data(self, rng):
        """A point t with no zero weight, and the generator values there.

        u_i restricts at a vertex on facet i to signs_i * <w_i, t>, w_i its
        tangent weight there; the denominator is eps_v * prod_i <w_i, t>.
        """
        signs, eps = self.pair.signs, self.pair.orientation_signs
        for _ in range(50):
            t = tuple(rng.randint(_POINT_LO, _POINT_HI) for _ in range(self.n))
            data = []
            ok = True
            for v, weights, den in zip(self.polytope.vertices, self.pair.vertex_weights, eps):
                vals = {}
                for facet, w in zip(v, weights):
                    x = sum(map(mul, w, t))
                    if x == 0:
                        ok = False
                        break
                    vals[facet] = signs[facet] * x
                    den *= x
                if not ok:
                    break
                data.append((vals, den))
            if ok:
                return t, data
        raise InternalConsistencyError("could not draw a generic evaluation point")

    def _draw_fixed_points(self):
        rng = random.Random(self.seed)
        t1, first = self._draw_point_data(rng)
        t2, second = self._draw_point_data(rng)
        while t2 == t1:
            t2, second = self._draw_point_data(rng)
        return first, second

    @functools.cached_property
    def even_basis(self) -> tuple:
        """lambda w_k mod 2 for each facet v_k of the base vertex, w_k the
        dual basis validation kept there: odd at v_k, even at its other
        facets.  They span the lambda mu mod 2, the even classes, since
        H^2(M; Z) = Z^m / lambda Z^n (Davis-Januszkiewicz)."""
        return tuple(
            (k, sum(1 << i for i, row in enumerate(self.pair.lam)
                    if sum(map(mul, row, w)) % 2))
            for k, w in zip(self.polytope.vertices[0], self.pair.vertex_weights[0]))

    def ring_reduction_pairing(self, mon) -> Fraction:
        """Pairing via linear elimination and face-ring reduction
        (facering.top_pairing), independent of the localization route: it
        uses only the linear relations, the face ideal and the base-vertex
        normalization; a generator outside the model's is refused first."""
        from .facering import top_pairing
        self._own_terms([mon])
        return top_pairing(self, mon)


def is_even_class(model: IndexModel, cls) -> bool:
    """True iff the integral degree-2 class vanishes in mod-2 cohomology."""
    return model.is_even_vector(_int_class(cls, model.gen_count, "class vector"))


class AdmissibilityReport:
    """The index-theorem hypotheses.  p1_witness names (by generator labels)
    the first face S of the engine's zero test (IndexModel._nonzero_face)
    whose monomial u_S pairs nonzero with p1(V + W - TM), or is None when
    p1 vanishes; given pending = (model, p1 form) it is found when first read,
    must agree with p1_zero and decides a p1_zero of None.  as_dict leaves it out."""

    def __init__(self, spin_c_exists: bool, w_is_spin: bool, p1_zero: bool,
                 c1c_vector: tuple, p1_witness: tuple = None, pending=None):
        self.spin_c_exists = spin_c_exists
        self.w_is_spin = w_is_spin
        self.p1_zero = p1_zero
        self.c1c_vector = c1c_vector
        self._pending = pending
        if pending is None:
            self.p1_witness = p1_witness
        elif p1_zero is None:
            self.p1_zero = self.p1_witness is None

    @functools.cached_property
    def p1_witness(self):
        (model, p1), self._pending = self._pending, None
        face = model._nonzero_face(p1, p1)
        if self.p1_zero not in (None, face is None):
            raise InternalConsistencyError("p1 of %s: p1_zero %s, but the engine finds the "
                                           "witness %r" % (model.name, self.p1_zero, face))
        return None if face is None else tuple(model.gen_labels[i] for i in face)

    def __eq__(self, other):
        return (type(other) is AdmissibilityReport and self.p1_witness == other.p1_witness
                and vars(self) == vars(other))

    @property
    def met(self) -> bool:
        return self.spin_c_exists and self.w_is_spin and self.p1_zero

    def as_dict(self):
        return {
            "spin_c_exists": self.spin_c_exists,
            "w_is_spin": self.w_is_spin,
            "p1_zero": self.p1_zero,
            "hypotheses_met": self.met,
        }


def check_admissible(model: IndexModel, V: BundleSpec, W: BundleSpec,
                     c1c=None) -> AdmissibilityReport:
    """The three index-theorem hypotheses for (V, W) over the model.

    c1(V) must reduce to w_2(M) mod 2 (so a Spin^c structure with
    c1^c = c1(V) exists), W must be Spin, and p1(V + W - TM) must vanish
    rationally.  p1(V + W - TM) is built in one pass from the first Chern
    classes of the line bundles, as an integer quadratic form, and decided
    by the face ring where it can (IndexModel._ring_first), else by the
    engine's zero test.
    """
    if V.gen_count != model.gen_count or W.gen_count != model.gen_count:
        raise StructureError("V and W are over %d and %d generators, the model has %d"
                             % (V.gen_count, W.gen_count, model.gen_count))
    if V.dim:
        c1c_vec = V.c1_vector()
    elif c1c is not None:
        c1c_vec = _int_class(c1c, model.gen_count, "c1c")
    else:
        c1c_vec = (0,) * model.gen_count
    diff = [a - b for a, b in zip(c1c_vec, model.c1_vector)]
    spin_c = model.is_even_vector(diff)
    w_spin = model.is_even_vector(W.c1_vector())
    p1 = _p1_terms(V.items + W.items, model.tangent_items)
    return AdmissibilityReport(spin_c, w_spin, model._ring_first(p1)[0], tuple(c1c_vec),
                               pending=(model, p1))
