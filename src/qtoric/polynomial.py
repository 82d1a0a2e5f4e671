"""Sparse multivariate polynomials over exact rationals.

Generators are indexed 0..M-1 and all carry complex degree 1 (cohomological
degree 2).  A monomial is stored as a sorted tuple of generator indices with
multiplicity, e.g. ``(0, 0, 3)`` for u0^2*u3; the empty tuple is the constant
monomial.  Coefficients are ``fractions.Fraction``; zero coefficients are
pruned on construction, so equality is plain dict equality.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement

from .errors import StructureError

Monomial = tuple

_ZERO = Fraction(0)


def _merge(m1: Monomial, m2: Monomial) -> Monomial:
    return tuple(sorted(m1 + m2))


class GradedPolynomial:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms is None:
            self.terms = {}
        else:
            self.terms = {m: Fraction(c) for m, c in terms.items() if c != 0}

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls) -> "GradedPolynomial":
        return cls()

    @classmethod
    def constant(cls, c) -> "GradedPolynomial":
        return cls({(): Fraction(c)})

    @classmethod
    def one(cls) -> "GradedPolynomial":
        return cls.constant(1)

    @classmethod
    def generator(cls, i: int, coeff=1) -> "GradedPolynomial":
        return cls({(i,): Fraction(coeff)})

    @classmethod
    def linear(cls, coeffs) -> "GradedPolynomial":
        """Linear class from a coefficient vector (index -> coefficient)."""
        if isinstance(coeffs, dict):
            items = coeffs.items()
        else:
            items = enumerate(coeffs)
        return cls({(i,): Fraction(c) for i, c in items if c != 0})

    # ------------------------------------------------------------------
    # ring structure

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, GradedPolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __neg__(self):
        return GradedPolynomial({m: -c for m, c in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, GradedPolynomial):
            other = GradedPolynomial.constant(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, _ZERO) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        p = GradedPolynomial.__new__(GradedPolynomial)
        p.terms = out
        return p

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, GradedPolynomial):
            other = GradedPolynomial.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, GradedPolynomial):
            return self.mul(other)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c) -> "GradedPolynomial":
        c = Fraction(c)
        if not c:
            return GradedPolynomial()
        p = GradedPolynomial.__new__(GradedPolynomial)
        p.terms = {m: v * c for m, v in self.terms.items()}
        return p

    def mul(self, other: "GradedPolynomial", trunc: int | None = None) -> "GradedPolynomial":
        """Product, dropping every term of complex degree > trunc."""
        out = {}
        for m1, c1 in self.terms.items():
            d1 = len(m1)
            for m2, c2 in other.terms.items():
                if trunc is not None and d1 + len(m2) > trunc:
                    continue
                m = _merge(m1, m2)
                s = out.get(m, _ZERO) + c1 * c2
                if s:
                    out[m] = s
                else:
                    del out[m]
        p = GradedPolynomial.__new__(GradedPolynomial)
        p.terms = out
        return p

    # ------------------------------------------------------------------
    # grading

    def truncate(self, trunc: int) -> "GradedPolynomial":
        p = GradedPolynomial.__new__(GradedPolynomial)
        p.terms = {m: c for m, c in self.terms.items() if len(m) <= trunc}
        return p

    def homogeneous_part(self, deg: int) -> "GradedPolynomial":
        p = GradedPolynomial.__new__(GradedPolynomial)
        p.terms = {m: c for m, c in self.terms.items() if len(m) == deg}
        return p

    def constant_term(self) -> Fraction:
        return self.terms.get((), _ZERO)

    def degrees_present(self):
        return sorted({len(m) for m in self.terms})

    # ------------------------------------------------------------------
    # linear-class helpers

    def is_linear(self) -> bool:
        return all(len(m) == 1 for m in self.terms)

    def integer_vector(self, m: int):
        """Coefficient vector of an integral linear class over generators 0..m-1."""
        vec = [0] * m
        for i, a in _linear_items(self, m):
            vec[i] = a
        return tuple(vec)

    def shift_generators(self, offset: int) -> "GradedPolynomial":
        p = GradedPolynomial.__new__(GradedPolynomial)
        p.terms = {tuple(i + offset for i in m): c for m, c in self.terms.items()}
        return p

    # ------------------------------------------------------------------

    def __repr__(self):
        return "GradedPolynomial(%s)" % self.format()

    def format(self, labels=None) -> str:
        if not self.terms:
            return "0"
        def gen_name(i):
            return labels[i] if labels else "u%d" % i
        parts = []
        for mon in sorted(self.terms, key=lambda m: (len(m), m)):
            c = self.terms[mon]
            factors = []
            for i in sorted(set(mon)):
                e = mon.count(i)
                factors.append(gen_name(i) if e == 1 else "%s^%d" % (gen_name(i), e))
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append("-" + body)
            else:
                parts.append("%s*%s" % (c, body))
        return " + ".join(parts).replace("+ -", "- ")


def _linear_items(root, m):
    """An integral linear class over the generators 0..m-1, a
    GradedPolynomial, as its integer items: (generator, coefficient) pairs,
    sorted by generator."""
    if any(len(mon) != 1 or not 0 <= mon[0] < m or c.denominator != 1
           for mon, c in root.terms.items()):
        raise StructureError("not an integral linear class in u_0..u_%d: %r" % (m - 1, root))
    return tuple(sorted((i, c.numerator) for (i,), c in root.terms.items()))


def _vector_items(vec):
    """An integer coefficient vector as integer items (see _linear_items)."""
    return tuple([(i, a) for i, a in enumerate(vec) if a])


def _p1_terms(plus, minus):
    """p1 of the sum of the line bundles plus minus those of minus, each
    given by the integer items of its first Chern class, as {monomial:
    integer coefficient}, zeros dropped: the square of each class, summed."""
    out = {}
    for sign, classes in ((1, plus), (-1, minus)):
        for items in classes:
            for a, (i, x) in enumerate(items):
                mon = (i, i)
                out[mon] = out.get(mon, 0) + sign * x * x
                for j, y in items[a + 1:]:  # sorted, so i < j
                    mon = (i, j)
                    out[mon] = out.get(mon, 0) + 2 * sign * x * y
    return {mon: c for mon, c in out.items() if c}


def monomials_of_degree(m: int, deg: int):
    """All monomials of the given complex degree in m generators."""
    if deg < 0:
        return
    yield from combinations_with_replacement(range(m), deg)
