"""Truncated bigraded series: cohomology-valued polynomials in q up to q^N.

Coefficients live in the truncated polynomial ring (complex degree <= n of
the ambient model; classes beyond the top degree vanish, so dropping them is
exact).  Everything is exact rational arithmetic: the characteristic factors
are built from Taylor expansions of e^{+-x} and (x/2)/sinh(x/2) composed with
nilpotent degree-1 classes, and from finite q-products inverted recursively.
log_table gives one root's factors in the power-sum form x^a c exp(sum_k
L_k(q) x^k), c a number, in closed form for the fixed-point engine.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, reduce
from operator import mul

from .errors import StructureError
from .polynomial import GradedPolynomial

_ZERO = Fraction(0)

ROOT_KINDS = ("AHAT", "Q1", "Q2", "Q2PRIME", "Q3", "EXPHALF")


# ----------------------------------------------------------------------
# scalar Taylor series (lists of Fractions, index = power)


@lru_cache(maxsize=None)
def exp_coeffs(num: int, den: int, deg: int):
    """Taylor coefficients of exp((num/den) * s) through s^deg."""
    scale = Fraction(num, den)
    out = [Fraction(1)]
    for j in range(1, deg + 1):
        out.append(out[-1] * scale / j)
    return tuple(out)


@lru_cache(maxsize=None)
def inv_ahat_coeffs(deg: int):
    """sinh(s/2)/(s/2) = sum_k (s/2)^{2k} / (2k+1)!  through s^deg."""
    out = [_ZERO] * (deg + 1)
    k = 0
    fact = 1  # (2k+1)!
    while 2 * k <= deg:
        out[2 * k] = Fraction(1, (4 ** k) * fact)
        k += 1
        fact *= (2 * k) * (2 * k + 1)
    return tuple(out)


@lru_cache(maxsize=None)
def ahat_coeffs(deg: int):
    """(s/2)/sinh(s/2): multiplicative inverse of inv_ahat_coeffs."""
    a = inv_ahat_coeffs(deg)
    out = [Fraction(1)]
    for j in range(1, deg + 1):
        out.append(-sum(a[i] * out[j - i] for i in range(1, j + 1)))
    return tuple(out)


def apply_scalar_series(coeffs, x: GradedPolynomial, trunc: int) -> GradedPolynomial:
    """sum_j coeffs[j] * x^j for a nilpotent degree-1 class x."""
    out = GradedPolynomial.constant(coeffs[0])
    power = GradedPolynomial.one()
    for j in range(1, min(len(coeffs) - 1, trunc) + 1):
        power = power.mul(x, trunc)
        if not power:
            break
        if coeffs[j]:
            out = out + power.scale(coeffs[j])
    return out


def exp_of(x: GradedPolynomial, trunc: int, num=1, den=1) -> GradedPolynomial:
    return apply_scalar_series(exp_coeffs(num, den, trunc), x, trunc)


# ----------------------------------------------------------------------
# the truncated series ring


class QSeries:
    __slots__ = ("coeffs", "trunc")

    def __init__(self, coeffs, trunc: int):
        self.coeffs = [c if isinstance(c, GradedPolynomial)
                       else GradedPolynomial.constant(c) for c in coeffs]
        self.trunc = trunc

    @property
    def q_order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def constant(cls, c, q_order: int, trunc: int) -> "QSeries":
        coeffs = [GradedPolynomial.constant(c)] + [GradedPolynomial.zero()] * q_order
        return cls(coeffs, trunc)

    @classmethod
    def one(cls, q_order: int, trunc: int) -> "QSeries":
        return cls.constant(1, q_order, trunc)

    @classmethod
    def from_poly(cls, poly: GradedPolynomial, q_order: int, trunc: int) -> "QSeries":
        coeffs = [poly.truncate(trunc)] + [GradedPolynomial.zero()] * q_order
        return cls(coeffs, trunc)

    def _check(self, other: "QSeries"):
        if self.q_order != other.q_order or self.trunc != other.trunc:
            raise StructureError(
                "mismatched truncation: (N=%d, n=%d) vs (N=%d, n=%d)"
                % (self.q_order, self.trunc, other.q_order, other.trunc))

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return (self.trunc == other.trunc and self.q_order == other.q_order
                and all(a == b for a, b in zip(self.coeffs, other.coeffs)))

    def __add__(self, other: "QSeries") -> "QSeries":
        self._check(other)
        return QSeries([a + b for a, b in zip(self.coeffs, other.coeffs)], self.trunc)

    def __sub__(self, other: "QSeries") -> "QSeries":
        self._check(other)
        return QSeries([a - b for a, b in zip(self.coeffs, other.coeffs)], self.trunc)

    def __mul__(self, other):
        if isinstance(other, QSeries):
            self._check(other)
            N = self.q_order
            out = [GradedPolynomial.zero() for _ in range(N + 1)]
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j in range(N + 1 - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] = out[i + j] + a.mul(b, self.trunc)
            return QSeries(out, self.trunc)
        if isinstance(other, GradedPolynomial):
            return QSeries([other.mul(c, self.trunc) for c in self.coeffs], self.trunc)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c) -> "QSeries":
        return QSeries([p.scale(c) for p in self.coeffs], self.trunc)

    def invert(self) -> "QSeries":
        """Multiplicative inverse; the q^0 coefficient needs a nonzero constant term."""
        c0 = self.coeffs[0]
        a = c0.constant_term()
        if a == 0:
            raise StructureError("series is not invertible (zero constant term)")
        # invert the q^0 polynomial: geometric series in its nilpotent part
        nil = (c0 - GradedPolynomial.constant(a)).scale(Fraction(1) / a)
        inv0 = GradedPolynomial.one()
        power = GradedPolynomial.one()
        for _ in range(self.trunc):
            power = power.mul(nil, self.trunc).scale(-1)
            if not power:
                break
            inv0 = inv0 + power
        inv0 = inv0.scale(Fraction(1) / a)
        out = [inv0]
        for j in range(1, self.q_order + 1):
            acc = GradedPolynomial.zero()
            for i in range(1, j + 1):
                if self.coeffs[i]:
                    acc = acc + self.coeffs[i].mul(out[j - i], self.trunc)
            out.append(inv0.mul(acc, self.trunc).scale(-1))
        return QSeries(out, self.trunc)

    def is_zero(self) -> bool:
        return all(not c for c in self.coeffs)

    def constant_in_q(self) -> bool:
        return all(not c for c in self.coeffs[1:])

    def format(self, labels=None) -> str:
        parts = []
        for j, c in enumerate(self.coeffs):
            body = c.format(labels)
            if j == 0:
                parts.append(body)
            elif j == 1:
                parts.append("(%s) q" % body)
            else:
                parts.append("(%s) q^%d" % (body, j))
        return " + ".join(parts)

    def __repr__(self):
        return "QSeries(%s)" % self.format()


# ----------------------------------------------------------------------
# characteristic root factors


@lru_cache(maxsize=None)
def _scalar_product(q_order: int, sign: int):
    """prod_{k=1..N} (1 + sign*q^k)^2 as a scalar QSeries."""
    out = QSeries.one(q_order, 0)
    for k in range(1, q_order + 1):
        coeffs = [GradedPolynomial.one()] + [GradedPolynomial.zero()] * q_order
        coeffs[k] = GradedPolynomial.constant(sign)
        factor = QSeries(coeffs, 0)
        out = out * factor * factor
    return out


def _scalar_as(series: QSeries, trunc: int) -> QSeries:
    return QSeries([GradedPolynomial(dict(c.terms)) for c in series.coeffs], trunc)


def _binomial_tail(x: GradedPolynomial, q_order: int, trunc: int, sign: int) -> QSeries:
    """prod_{k=1..N} (1 + sign e^x q^k)(1 + sign e^{-x} q^k)."""
    ex = exp_of(x, trunc)
    emx = exp_of(x, trunc, num=-1)
    out = QSeries.one(q_order, trunc)
    for k in range(1, q_order + 1):
        for e in (ex, emx):
            coeffs = [GradedPolynomial.one()] + [GradedPolynomial.zero()] * q_order
            coeffs[k] = e.scale(sign)
            out = out * QSeries(coeffs, trunc)
    return out


def root_factor(kind: str, x: GradedPolynomial, q_order: int, trunc: int) -> QSeries:
    """The single-root characteristic factor, expanded in the nilpotent class x.

    AHAT     (x/2)/sinh(x/2)
    Q1       prod_k (1-q^k)^2 / ((1-e^x q^k)(1-e^{-x} q^k))
    Q2       (1-e^{-x}) prod_k (1-e^x q^k)(1-e^{-x} q^k)/(1-q^k)^2
    Q2PRIME  Q2 with the (1-e^{-x}) prefactor replaced so that
             e^{x/2} * Q2-factor = x * Q2PRIME-factor
    Q3       (e^{x/2}+e^{-x/2}) prod_k (1+e^x q^k)(1+e^{-x} q^k)/(1+q^k)^2
    EXPHALF  e^{x/2}
    """
    kind = kind.upper()
    if kind not in ROOT_KINDS:
        raise StructureError("unknown root factor kind %r" % kind)
    if not x.is_linear():
        raise StructureError("root must be a degree-1 class, got %r" % (x,))
    if kind == "AHAT":
        return QSeries.from_poly(
            apply_scalar_series(ahat_coeffs(trunc), x, trunc), q_order, trunc)
    if kind == "EXPHALF":
        return QSeries.from_poly(exp_of(x, trunc, num=1, den=2), q_order, trunc)
    if kind == "Q1":
        denom = _binomial_tail(x, q_order, trunc, -1)
        scal = _scalar_as(_scalar_product(q_order, -1), trunc)
        return scal * denom.invert()
    if kind in ("Q2", "Q2PRIME"):
        tail = (_binomial_tail(x, q_order, trunc, -1)
                * _scalar_as(_scalar_product(q_order, -1), trunc).invert())
        if kind == "Q2":
            pre = GradedPolynomial.one() - exp_of(x, trunc, num=-1)
        else:
            pre = apply_scalar_series(inv_ahat_coeffs(trunc), x, trunc)
        return tail * pre
    # Q3
    tail = (_binomial_tail(x, q_order, trunc, +1)
            * _scalar_as(_scalar_product(q_order, +1), trunc).invert())
    pre = exp_of(x, trunc, num=1, den=2) + exp_of(x, trunc, num=-1, den=2)
    return tail * pre


def series_product(a, b):
    """Cauchy product of two coefficient lists, truncated to the shorter."""
    return [sum(map(mul, a[:j + 1], b[j::-1])) for j in range(min(len(a), len(b)))]


def assemble(rows, terms, q_order: int) -> list:
    """sum over the terms (a, mu) of a prod_v rows[v]^mu_v / mu_v!, per q^j.

    rows are lists of q_order + 1 Fractions and mu is a tuple of (v, mu_v)
    pairs.  The sum is taken in integers: each row is scaled to integers
    over d_v, the lcm of its denominators, so each term's q-product is an
    integer Cauchy product of rows (series_product) and keeps one Fraction
    coefficient, a / prod mu_v! d_v^mu_v; the products are summed over D,
    the lcm of those coefficients' denominators, and only the q_order + 1
    sums become Fractions.  With no term every entry is Fraction(0).
    """
    scaled = []  # per row: d_v, and the row times d_v
    for row in rows:
        d = math.lcm(*(x.denominator for x in row))
        scaled.append((d, [x.numerator * (d // x.denominator) for x in row]))
    coeffs, products = [], []
    for a, mu in terms:
        coeffs.append(Fraction(a, math.prod(math.factorial(e) * scaled[v][0] ** e for v, e in mu)))
        factors = [scaled[v][1] for v, e in mu for _ in range(e)]
        products.append(reduce(series_product, factors) if factors else [1] + [0] * q_order)
    D = math.lcm(*(c.denominator for c in coeffs))
    sums = [0] * (q_order + 1)
    for c, product in zip(coeffs, products):
        c = c.numerator * (D // c.denominator)
        sums = [s + c * t for s, t in zip(sums, product)]
    return [Fraction(s, D) for s in sums]


def _table_work(plan, n: int, q_order: int) -> int:
    """About the steps of log_table on the groups of the plan.

    Each group has up to n rows of q_order + 1 coefficients, and a divisor
    sum sieves a row in about (q_order + 1) * ln(q_order) steps.  Counted
    even where pair_series forms no exponent vector, as for the Witten genus
    in odd n, so that a huge q_order is refused before any table is built.
    """
    return len(plan) * n * (q_order + 1) * (q_order + 1).bit_length()


@lru_cache(maxsize=None)
def log_table(kinds: tuple, q_order: int, trunc: int):
    """Power-sum form of one root's factor F(x) = prod_K root_factor(K, x).

    Returns (xpow, c, L) with F(x) = x^xpow * c * exp(sum_k L[k-1](q) x^k)
    through x^trunc and q^q_order; each L[k-1] is a tuple of q coefficients.
    xpow counts the Q2 factors, which are x e^{-x/2} times Q2PRIME, so
    ("EXPHALF", "Q2") is the Euler class x times Q2PRIME; L is known
    through x^(trunc - xpow), all that the top degree needs.  c is 2 per
    Q3 factor.  A factor that vanishes
    through x^trunc gets xpow = trunc + 1, c = 0 and empty L.

    The L_k add over the kinds, in closed form (Zagier, LNM 1326, 1988;
    Hirzebruch et al., Manifolds and Modular Forms).  For even k, with B_k the
    Bernoulli numbers: AHAT -B_k/(k k!); Q1 2/k! sum_{j | N} j^(k-1) at q^N;
    Q3 (2^k - 1) B_k/(k k!) and 2/k! sum_{j | N} (-1)^(j+1) j^(k-1) at q^N;
    Q2PRIME and Q2 -(AHAT + Q1).  L_1 is 1/2 per EXPHALF, -1/2 per Q2; other
    odd L_k vanish.  The divisor sums are a sieve over multiples, O(N log N).
    """
    if not set(kinds) <= set(ROOT_KINDS):
        raise StructureError("unknown root factor kind in %r" % (kinds,))
    xpow = kinds.count("Q2")
    if xpow > trunc:
        return trunc + 1, _ZERO, ()
    bernoulli = [Fraction(1)]  # sum_{j <= m} C(m + 1, j) B_j = 0
    for m in range(1, trunc + 1):
        bernoulli.append(-sum(math.comb(m + 1, j) * b for j, b in enumerate(bernoulli)) / (m + 1))
    L = [[_ZERO] * (q_order + 1) for _ in range(trunc - xpow)]
    if L:
        L[0][0] = Fraction(kinds.count("EXPHALF") - kinds.count("Q2"), 2)
    for k in range(2, trunc - xpow + 1, 2):
        b = bernoulli[k] / (k * math.factorial(k))
        for kind in kinds:
            # (q^0 term, sign of the divisor sum, whether its terms alternate)
            const, sign, alternating = {
                "AHAT": (-b, 0, 0), "Q1": (0, 1, 0), "Q2": (b, -1, 0), "Q2PRIME": (b, -1, 0),
                "Q3": ((2 ** k - 1) * b, 1, 1), "EXPHALF": (0, 0, 0)}[kind]
            L[k - 1][0] += const
            for j in range(1, q_order + 1) if sign else ():
                t = Fraction(2 * sign * (-1 if alternating and j % 2 == 0 else 1) * j ** (k - 1),
                             math.factorial(k))
                for N in range(j, q_order + 1, j):
                    L[k - 1][N] += t
    return xpow, Fraction(2 ** kinds.count("Q3")), tuple(tuple(row) for row in L)


def bundle_series(kind: str, roots, q_order: int, trunc: int) -> QSeries:
    """Product of root_factor over all roots; the empty product is 1."""
    out = QSeries.one(q_order, trunc)
    for x in roots:
        out = out * root_factor(kind, x, q_order, trunc)
    return out

