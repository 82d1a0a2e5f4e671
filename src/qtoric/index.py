"""The twisted index of a Spin^c Dirac operator as a truncated q-series.

phi_c(M; V, W) is evaluated cohomologically: the top-degree pairing of

    e(V) * Q2'(V) * Q1(TM) * Q3(W) * Ahat(TM)          (V a sum of lines)
    e^{c1c/2}    * Q1(TM) * Q3(W) * Ahat(TM)           (V = 0)

per power of q, all over exact rationals.  phi_c only describes the
integrand, as (kinds, roots) factors, the roots integer items kept by each
bundle (BundleSpec) and model (tangent_items), the V factor spelled
e^{c1(V)/2} * Q2(V), which has the table of e(V) * Q2'(V).  It is never
expanded into monomials: in one pass the model's fixed-point engine
(IndexModel.pair_series) reads each per-root factor from a cached
closed-form table (qseries.log_table) x^xpow c exp(sum_k L_k(q) x^k),
prices the pairing against PAIRING_BUDGET, pairs only q-free
characteristic numbers, products of power sums of the root values, at the
fixed points and assembles the q-series once.  A twist W by the tangent
roots themselves joins their group, its kind concatenated (the L_k add):
the elliptic genus pairs ("Q1", "AHAT", "Q3") over the tangent roots, not
two groups.  Special cases: the Witten genus is the
V = W = 0 index with c1c = 0, and the elliptic genus twists by the stable
tangent roots (with the trivial-summand doubling divided back out).  In
both the tangent roots are the only nonzero roots, whose characteristic
numbers the model keeps, so a model asked for both pairs its points once.  In even n, the q^0
coefficient of phi_c(M; 0, TM) with c1c = 0 is checked against the
signature, 2^(#roots - n) sum_v sign(den_v) at both point sets, a route
that needs no pairing; a mismatch raises InternalConsistencyError.
Product and connected-sum models let the multiplicativity and additivity
formulas be verified numerically coefficient by coefficient.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .cohomology import (
    PAIRING_BUDGET,
    AdmissibilityReport,
    BundleSpec,
    IndexModel,
    QuasitoricModel,
    check_admissible,
)
from .errors import (BudgetExceededError, HypothesisUnmetError, InternalConsistencyError,
                     StructureError)
from .polynomial import GradedPolynomial, _vector_items
from .polytope import FacetColoring, verify_coloring
from .qseries import series_product

DEFAULT_Q_ORDER = 4


class IndexResult:
    """A computed index series plus the hypothesis flags and reproducibility data."""

    def __init__(self, series: list, admissibility: AdmissibilityReport,
                 warnings: list = None, meta: dict = None):
        self.series = series  # exact rationals, q^0 .. q^N
        self.admissibility = admissibility
        self.warnings = [] if warnings is None else warnings
        self.meta = {} if meta is None else meta

    @property
    def q_order(self) -> int:
        return len(self.series) - 1

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.series)

    def constant_in_q(self) -> bool:
        return all(c == 0 for c in self.series[1:])

    def as_dict(self):
        """The result as JSON values: each Fraction, in series or meta, as a string."""
        out = {
            "series": [str(c) for c in self.series],
            "q_order": self.q_order,
            "admissibility": self.admissibility.as_dict(),
            "warnings": list(self.warnings),
            "constant_in_q": self.constant_in_q(),
        }
        out.update((k, str(v) if isinstance(v, Fraction) else v) for k, v in self.meta.items())
        return out


def _as_bundle(model: IndexModel, spec) -> BundleSpec:
    if spec is None:
        return BundleSpec.empty(model.gen_count)
    if isinstance(spec, BundleSpec):
        return spec
    return BundleSpec.from_vectors(spec, model.gen_count)


def check_q_order(q_order) -> None:
    """Reject a truncation order in q that is not a non-negative int (or is a bool)."""
    if isinstance(q_order, bool) or not isinstance(q_order, int) or q_order < 0:
        raise StructureError("q_order must be a non-negative integer, got %r" % (q_order,))


def phi_c(model: IndexModel, V=None, W=None, q_order: int = DEFAULT_Q_ORDER,
          c1c=None) -> IndexResult:
    """Twisted Dirac index over any model, per power of q.

    phi_c only describes the integrand, as (kinds, roots) factors, and
    model.pair_series builds, prices and pairs it in one pass.  A nonzero V
    (integral classes only) is spelled e^{c1(V)/2} Q2(V), ("EXPHALF",
    "Q2") per root, whose table is that of e(V) Q2'(V).  With V = 0 the
    class c1c (default 0, the Witten-genus convention) enters through
    e^{c1c/2} alone, and a c1c given with a nonzero V is refused before any
    pairing.  Work past PAIRING_BUDGET raises BudgetExceededError before
    any point is paired (see IndexModel.pair_series).
    """
    check_q_order(q_order)
    V = _as_bundle(model, V)
    W = _as_bundle(model, W)
    if V.dim and c1c is not None:
        raise StructureError("c1c is determined by V when V is nonzero")
    warnings = []
    admissibility = check_admissible(model, V, W, c1c=c1c)

    tangent_twist = W.items == model.tangent_items
    plan = [(("Q1", "AHAT", "Q3") if tangent_twist else ("Q1", "AHAT"),
             model.tangent_items)]
    if V.dim == 0:
        if c1c is None and not admissibility.spin_c_exists:
            warnings.append(
                "c1(M) is not even: no Spin structure, c1^c = 0 is a formal choice")
        plan.append((("EXPHALF",), [_vector_items(admissibility.c1c_vector)]))
    else:
        plan.append((("EXPHALF", "Q2"), V.items))
    if W.dim and not tangent_twist:
        plan.append((("Q3",), W.items))
    if not admissibility.met:
        warnings.append("hypotheses unmet: " + ", ".join(
            k for k, v in admissibility.as_dict().items()
            if k != "hypotheses_met" and not v))

    series = model.pair_series(plan, q_order)
    if model.n % 2 == 0 and V.dim == 0 and not any(admissibility.c1c_vector) and tangent_twist:
        _check_signature(model, series[0])

    meta = {"model": model.name, "V": V.to_vectors(), "W": W.to_vectors()}
    seed = getattr(model, "seed", None)
    if seed is not None:
        meta["seed"] = seed
    return IndexResult(series, admissibility, warnings, meta)


def _check_signature(model: IndexModel, constant) -> None:
    """Check the q^0 coefficient of phi_c(M; 0, TM) with c1c = 0 against the
    signature, a route that needs no pairing.

    At q^0 each tangent root contributes Q3 Ahat = x / tanh(x/2), so the
    coefficient is 2^(#roots - n) sigma(M).  Scaling t to s t, each localized
    factor 1 / tanh(s x/2) tends to sign(x), and the equivariant signature
    is constant in s, so sigma(M) = sum_v sign(den_v) at each point set
    (Buchstaber-Panov, Toric Topology; Panov, Izv. Math. 65, 2001).
    """
    scale = Fraction(2) ** (len(model.tangent_items) - model.n)
    for pts in model.fixed_points():
        sigma = sum(1 if den > 0 else -1 for _, den in pts)
        if constant != scale * sigma:
            raise InternalConsistencyError(
                "q^0 of the tangent twist is %s, but the vertex signs sum to %d: "
                "expected %s" % (constant, sigma, scale * sigma))


# ----------------------------------------------------------------------
# genera


def witten_genus(model: IndexModel, q_order: int = DEFAULT_Q_ORDER) -> IndexResult:
    """phi_c(M; 0, 0) with c1^c = 0.

    Computed for any model; modularity needs Spin and p1 = 0, which the
    admissibility flags report but do not enforce.
    """
    result = phi_c(model, None, None, q_order=q_order)
    result.meta["genus"] = "witten"
    return result


def elliptic_genus(model: IndexModel, q_order: int = DEFAULT_Q_ORDER) -> IndexResult:
    """phi_c(M; 0, TM) for Spin models, normalized for the stable trivial summands.

    Twisting by the stable root list multiplies each coefficient by 2 per
    trivial summand; dividing by 2^(#roots - n) removes exactly that.
    Refuses non-Spin input, where the canonical structure does not exist.
    """
    if not model.is_even_vector(model.c1_vector):
        raise HypothesisUnmetError(
            "elliptic genus needs a Spin model: c1(%s) is not even" % model.name)
    W = model.tangent_bundle()
    result = phi_c(model, None, W, q_order=q_order)
    extras = len(model.tangent_items) - model.n
    scale = Fraction(1, 2 ** extras)
    result.series = [c * scale for c in result.series]
    result.meta["genus"] = "elliptic"
    result.meta["trivial_summand_scale"] = str(scale)
    return result


# ----------------------------------------------------------------------
# colored indices


def colored_classes(model: QuasitoricModel, coloring: FacetColoring, signs=None):
    """One degree-2 class per color: the signed sum of that color's generators."""
    if signs is None:
        signs = [1] * model.gen_count
    if len(signs) != model.gen_count or any(s not in (-1, 1) for s in signs):
        raise StructureError("signs must be a +-1 vector of length m")
    return [GradedPolynomial.linear({i: signs[i] for i in facets})
            for facets in coloring.color_classes()]


def _vertex_terms(model: QuasitoricModel, coloring: FacetColoring):
    """(eps_v prod_{i in v} sigma_i, bitmask of v) per vertex v, for a proper
    coloring with exactly n colors (see colored_index)."""
    verify_coloring(model.polytope, coloring)
    if coloring.color_count != model.n:
        raise HypothesisUnmetError(
            "coloring uses %d colors, need exactly n=%d"
            % (coloring.color_count, model.n))
    sigma = model.pair.signs
    return [(eps * math.prod(sigma[i] for i in v), sum(1 << i for i in v))
            for v, eps in zip(model.polytope.vertices, model.pair.orientation_signs)]


def _colored_pairing(terms, negative: int) -> int:
    """sum_v eps_v prod_{i in v} s_i sigma_i, with s_i = -1 at the bits of negative."""
    return sum(-e if (mask & negative).bit_count() & 1 else e for e, mask in terms)


def colored_index(model: QuasitoricModel, coloring: FacetColoring, signs=None,
                  q_order: int = DEFAULT_Q_ORDER) -> IndexResult:
    """Index twisted by the coloring bundle V = sum of per-color line bundles.

    Needs a proper coloring with exactly n colors.  The series is constant in
    q with value <prod of color classes, [M]>; both are computed and returned
    so the identity can be checked externally.  The n facets at a vertex v
    carry the n colors, so there the classes restrict to s_i sigma_i x_i
    (i in v, sigma the pair's signs), and localization makes the pairing
    sum_v eps_v prod_{i in v} s_i sigma_i (eps the orientation signs).
    """
    terms = _vertex_terms(model, coloring)
    classes = colored_classes(model, coloring, signs)
    result = phi_c(model, BundleSpec(classes, model.gen_count), None, q_order=q_order)
    negative = sum(1 << i for i, s in enumerate(signs or ()) if s < 0)
    result.meta["predicted_constant"] = Fraction(_colored_pairing(terms, negative))
    result.meta["genus"] = "colored"
    return result


def _has_nonzero_coefficient(terms, negative: int, free: int) -> bool:
    """Whether the vertex sum of _colored_pairing, a multilinear polynomial
    in the signs at the bits of free (the others fixed, -1 at the bits of
    negative), has a nonzero coefficient: exactly when some choice of those
    signs makes the sum nonzero."""
    coefficients = {}
    for e, mask in terms:
        key = mask & free
        coefficients[key] = coefficients.get(key, 0) + (
            -e if (mask & negative).bit_count() & 1 else e)
    return any(coefficients.values())


def exists_nonvanishing_signs(model: QuasitoricModel, coloring: FacetColoring):
    """The least sign vector with a nonzero colored pairing; one exists when d = n.

    Flipping all signs within one color class only negates the value, so the
    first facet of each class is pinned to +1; the others are the bits of a
    mask, the last facet highest.  If mask 0 gives a zero vertex sum
    (colored_index), the signs are fixed one at a time from the highest: a
    sign stays +1 while the sum, the lower signs free, keeps a nonzero
    coefficient, so the least nonzero mask costs O(m V), not one sum per
    mask.  A sum that is identically zero contradicts the coloring lemma
    and is flagged as an implementation fault.
    """
    terms = _vertex_terms(model, coloring)
    pinned = {facets[0] for facets in coloring.color_classes()}
    rest = [i for i in range(model.gen_count) if i not in pinned]
    negative, free = 0, sum(1 << i for i in rest)
    if not _colored_pairing(terms, negative):
        if not _has_nonzero_coefficient(terms, negative, free):
            raise InternalConsistencyError(
                "no sign vector gives a nonzero colored pairing; contradicts the "
                "coloring lemma, implementation fault")
        for i in reversed(rest):
            free ^= 1 << i
            if not _has_nonzero_coefficient(terms, negative, free):
                negative |= 1 << i
                if _colored_pairing(terms, negative):  # only a flip can make it nonzero
                    break
    return True, tuple(-1 if (negative >> i) & 1 else 1 for i in range(model.gen_count))


# ----------------------------------------------------------------------
# model combinators


class _PairedModel(IndexModel):
    """Two models side by side: the left generators, then the right ones
    shifted by offset, with the tangent roots and c1 of both."""

    def __init__(self, left: IndexModel, right: IndexModel):
        self.left = left
        self.right = right
        self.offset = left.gen_count
        self.gen_labels = (["L:" + s for s in left.gen_labels]
                           + ["R:" + s for s in right.gen_labels])
        self.tangent_items = left.tangent_items + [_shifted_items(r, self.offset)
                                                   for r in right.tangent_items]
        self.c1_vector = tuple(left.c1_vector) + tuple(right.c1_vector)

    @functools.cached_property
    def even_basis(self) -> tuple:
        # H^2 is the direct sum of the two sides', for a connected sum too (n >= 2)
        off = self.offset
        return self.left.even_basis + tuple(
            (g + off, mask << off) for g, mask in self.right.even_basis)


class ProductModel(_PairedModel):
    """Model of a cartesian product: split pairings multiply.

    Its fixed points are the pairs (p, q) of the factors' points, point
    p * width + q for width right points, with the values concatenated and
    the denominators multiplied, so a point's support is the union of
    its factors' supports.
    """

    def __init__(self, left: IndexModel, right: IndexModel):
        super().__init__(left, right)
        self.n = left.n + right.n
        self.euler = left.euler * right.euler
        self.name = "(%s)x(%s)" % (left.name, right.name)

    def _draw_fixed_points(self):
        off = self.offset
        return [[({**lv, **_shifted(rv, off)}, ld * rd) for lv, ld in lp for rv, rd in rp]
                for lp, rp in zip(self.left.fixed_points(), self.right.fixed_points())]


class ConnectedSumModel(_PairedModel):
    """Cohomology model of a connected sum of two models of equal n >= 2.

    Positive-degree classes from the two summands multiply to zero; purely
    one-sided top pairings delegate to their summand, the right one weighted
    by the orientation sign identifying the two top classes.  Its fixed
    points are the left summand's (right generators 0) and the right
    summand's (left generators 0, denominators times the sign): a mixed
    top-degree monomial vanishes at every one of them, as it must for n >= 2.
    """

    def __init__(self, left: IndexModel, right: IndexModel, orientation_sign: int = 1):
        if left.n != right.n:
            raise StructureError("connected sum needs equal half-dimensions")
        if left.n < 2:
            raise StructureError("connected sum model needs n >= 2")
        if orientation_sign not in (-1, 1):
            raise StructureError("orientation_sign must be +-1")
        super().__init__(left, right)
        self.sign = orientation_sign
        self.n = left.n
        self.euler = left.euler + right.euler - 2
        self.name = "(%s)#(%s)" % (left.name, right.name)

    def _draw_fixed_points(self):
        off, sign = self.offset, self.sign
        return [lp + [(_shifted(rv, off), sign * rd) for rv, rd in rp]
                for lp, rp in zip(self.left.fixed_points(), self.right.fixed_points())]


def _shifted(vals, offset):
    return {i + offset: x for i, x in vals.items()}


def _shifted_items(items, offset):
    return tuple([(i + offset, a) for i, a in items])


def extend_bundles(model: _PairedModel, V1: BundleSpec, V2: BundleSpec) -> BundleSpec:
    """External direct sum V1 (+) V2 over a product or connected-sum model."""
    return BundleSpec._of_items(V1.items + [_shifted_items(c, model.offset) for c in V2.items],
                                model.gen_count)


def tensor_extend(model: ConnectedSumModel, V1: BundleSpec, V2: BundleSpec) -> BundleSpec:
    """Pairwise tensor of line bundles over a connected sum.

    The shorter list is padded with trivial bundles, so the j-th class
    restricts to the j-th class of each summand (0 beyond its length).
    The left generators come first, so the joined items stay sorted.
    """
    pad = max(V1.dim, V2.dim)
    left = V1.items + [()] * (pad - V1.dim)
    right = V2.items + [()] * (pad - V2.dim)
    return BundleSpec._of_items([a + _shifted_items(b, model.offset)
                                 for a, b in zip(left, right)], model.gen_count)


# ----------------------------------------------------------------------
# theorem verification


def verify_product_formula(m1: IndexModel, V1, W1, m2: IndexModel, V2, W2,
                           q_order: int = DEFAULT_Q_ORDER) -> dict:
    """Check phi_c(M1 x M2; V1 (+) V2, W1 (+) W2) = phi_c(M1)*phi_c(M2) in Z[[q]]."""
    V1 = _as_bundle(m1, V1)
    W1 = _as_bundle(m1, W1)
    V2 = _as_bundle(m2, V2)
    W2 = _as_bundle(m2, W2)
    prod = ProductModel(m1, m2)
    V = extend_bundles(prod, V1, V2)
    W = extend_bundles(prod, W1, W2)
    lhs = phi_c(prod, V, W, q_order=q_order)
    r1 = phi_c(m1, V1, W1, q_order=q_order)
    r2 = phi_c(m2, V2, W2, q_order=q_order)
    rhs = series_product(r1.series, r2.series)
    return {
        "theorem": "product",
        "model": prod.name,
        "lhs": [str(c) for c in lhs.series],
        "rhs": [str(c) for c in rhs],
        "factor_series": [[str(c) for c in r1.series], [str(c) for c in r2.series]],
        "equal": lhs.series == rhs,
        "hypotheses_met": lhs.admissibility.met,
    }


def verify_connected_sum_formula(m1: IndexModel, V1, W1, m2: IndexModel, V2, W2,
                                 q_order: int = DEFAULT_Q_ORDER,
                                 orientation_sign: int = 1) -> dict:
    """Check the connected-sum index identity against independently computed sides.

    Equal bundle lengths: LHS = 2^{dim W2} phi_1 + 2^{dim W1} phi_2.
    Strictly longer V on one side: only that side's term survives.
    """
    V1 = _as_bundle(m1, V1)
    W1 = _as_bundle(m1, W1)
    V2 = _as_bundle(m2, V2)
    W2 = _as_bundle(m2, W2)
    summod = ConnectedSumModel(m1, m2, orientation_sign)
    V = tensor_extend(summod, V1, V2)
    W = extend_bundles(summod, W1, W2)
    lhs = phi_c(summod, V, W, q_order=q_order)
    r1 = phi_c(m1, V1, W1, q_order=q_order)
    r2 = phi_c(m2, V2, W2, q_order=q_order)
    c1 = Fraction(2 ** W2.dim)
    c2 = Fraction(2 ** W1.dim) * orientation_sign
    if V1.dim > V2.dim:
        rhs = [c1 * a for a in r1.series]
        case = "dim V1 > dim V2"
    elif V2.dim > V1.dim:
        rhs = [c2 * b for b in r2.series]
        case = "dim V2 > dim V1"
    else:
        rhs = [c1 * a + c2 * b for a, b in zip(r1.series, r2.series)]
        case = "equal dimensions"
    return {
        "theorem": "connected-sum",
        "model": summod.name,
        "case": case,
        "lhs": [str(c) for c in lhs.series],
        "rhs": [str(c) for c in rhs],
        "summand_series": [[str(c) for c in r1.series], [str(c) for c in r2.series]],
        "equal": lhs.series == rhs,
        "hypotheses_met": r1.admissibility.met and r2.admissibility.met,
        "summand_admissibility": [r1.admissibility.as_dict(), r2.admissibility.as_dict()],
    }


def verify_exhaustive_split_vanishing(model: IndexModel, subset,
                                      q_order: int = DEFAULT_Q_ORDER) -> dict:
    """Split the stable line bundles into V (indices in subset) and W (the rest).

    When the mod-2 hypotheses hold the index vanishes identically; with the
    hypotheses unmet the series is reported without any assertion.
    """
    subset = sorted(set(subset))
    m = len(model.tangent_items)
    if any(i < 0 or i >= m for i in subset):
        raise StructureError("subset indices must name stable line bundles 0..%d" % (m - 1))
    roots = model.tangent_items
    V = BundleSpec._of_items([roots[i] for i in subset], model.gen_count)
    W = BundleSpec._of_items([roots[i] for i in range(m) if i not in subset], model.gen_count)
    result = phi_c(model, V, W, q_order=q_order)
    return {
        "theorem": "exhaustive-split",
        "model": model.name,
        "subset": subset,
        "series": [str(c) for c in result.series],
        "is_zero": result.is_zero(),
        "hypotheses_met": result.admissibility.met,
        "admissibility": result.admissibility.as_dict(),
    }


def admissible_splits(model: IndexModel):
    """The subsets S whose exhaustive split (V_S, W_S) meets the hypotheses,
    by size, then lexicographically.

    V_S + W_S is the tangent root list, the +-u_i, so the p1 form cancels
    term by term and c1(V) - c1(M) = -c1(W): S is admissible iff its
    complement is even, so the splits are the complements of the 2^r sums of
    model.even_basis.  Over PAIRING_BUDGET entries (m * 2^r) it raises
    BudgetExceededError.
    """
    m = len(model.tangent_items)
    basis = model.even_basis
    if m << len(basis) > PAIRING_BUDGET:
        raise BudgetExceededError(
            "%d admissible splits of %d line bundles: %d entries, over the budget of %d"
            % (1 << len(basis), m, m << len(basis), PAIRING_BUDGET))
    sums = [0]
    for _, mask in basis:
        sums += [s ^ mask for s in sums]
    return sorted((tuple(i for i in range(m) if not s >> i & 1) for s in sums),
                  key=lambda S: (len(S), S))
