"""Independent checks of the program's outputs, run after the timed loop.

Nothing here imports qtoric, and the timed process never imports this
module.  The series oracle works in H*(CP^n) = Q[x]/(x^{n+1}), where every
facet class of cp:n (and of any GL_n(Z) rebasing of it) equals x, so each
characteristic factor is a power series in the single variable x with
coefficients that are polynomials in q.  Everything is exact (Fraction).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

# A bivariate series is a list over q-degree 0..N of lists over x-degree
# 0..n of Fractions.


def _zero(N, n):
    return [[Fraction(0)] * (n + 1) for _ in range(N + 1)]


def _one(N, n):
    s = _zero(N, n)
    s[0][0] = Fraction(1)
    return s


def _mul(a, b):
    N, n = len(a) - 1, len(a[0]) - 1
    out = _zero(N, n)
    for i, ra in enumerate(a):
        for d, c in enumerate(ra):
            if not c:
                continue
            for j in range(N + 1 - i):
                rb = b[j]
                row = out[i + j]
                for e in range(n + 1 - d):
                    if rb[e]:
                        row[d + e] += c * rb[e]
    return out


def _inv(a):
    """Inverse of a series with a nonzero constant term, solved degree by degree."""
    N, n = len(a) - 1, len(a[0]) - 1
    c0 = a[0][0]
    out = _zero(N, n)
    for j in range(N + 1):
        for d in range(n + 1):
            acc = Fraction(1) if (j, d) == (0, 0) else Fraction(0)
            for i in range(j + 1):
                for e in range(d + 1):
                    if (i, e) != (0, 0) and a[i][e]:
                        acc -= a[i][e] * out[j - i][d - e]
            out[j][d] = acc / c0
    return out


def _xseries(coeffs, N, n):
    """A series in x alone (constant in q)."""
    s = _zero(N, n)
    for d in range(n + 1):
        s[0][d] = Fraction(coeffs[d])
    return s


def _exp(c, n):
    """Taylor coefficients of e^{c x} through x^n."""
    return [Fraction(c) ** d / factorial(d) for d in range(n + 1)]


def _sinhc(c, n):
    """sinh(c x / 2) / (c x / 2) through x^n."""
    return [Fraction(c, 2) ** d / factorial(d + 1) if d % 2 == 0 else Fraction(0)
            for d in range(n + 1)]


def _q_factor(c, k, sign, N, n):
    """1 + sign * e^{c x} q^k."""
    s = _one(N, n)
    if k <= N:
        for d, v in enumerate(_exp(c, n)):
            s[k][d] += sign * v
    return s


def _tail(c, sign, N, n):
    """prod_k (1 + sign e^{cx} q^k)(1 + sign e^{-cx} q^k) / (1 + sign q^k)^2."""
    num, den = _one(N, n), _one(N, n)
    for k in range(1, N + 1):
        num = _mul(num, _mul(_q_factor(c, k, sign, N, n), _q_factor(-c, k, sign, N, n)))
        f = _q_factor(0, k, sign, N, n)
        den = _mul(den, _mul(f, f))
    return _mul(num, _inv(den))


def ahat(c, N, n):
    """(cx/2) / sinh(cx/2)."""
    return _inv(_xseries(_sinhc(c, n), N, n))


def q1(c, N, n):
    """prod_k (1-q^k)^2 / ((1 - e^{cx} q^k)(1 - e^{-cx} q^k))."""
    return _inv(_tail(c, -1, N, n))


def q2prime_euler(c, N, n):
    """(cx) * Q2'(cx) = cx * sinh(cx/2)/(cx/2) * prod_k (1-e^{cx}q^k)(1-e^{-cx}q^k)/(1-q^k)^2."""
    pre = [Fraction(0)] + [Fraction(c) * v for v in _sinhc(c, n)[:n]]
    return _mul(_xseries(pre, N, n), _tail(c, -1, N, n))


def q3(c, N, n):
    """(e^{cx/2} + e^{-cx/2}) prod_k (1+e^{cx}q^k)(1+e^{-cx}q^k)/(1+q^k)^2."""
    pre = [a + b for a, b in zip(_exp(Fraction(c, 2), n), _exp(Fraction(-c, 2), n))]
    return _mul(_xseries(pre, N, n), _tail(c, 1, N, n))


def cp_index(n, N, V=(), W=()):
    """phi_c(CP^n; V, W) through q^N for line bundles V, W with classes a*x.

    The integrand is prod_V (a x) Q2'(a x) * (Q1 Ahat)(x)^{n+1} * prod_W Q3(b x),
    and <x^n, [CP^n]> = 1 picks the x^n coefficient of each power of q.
    """
    s = _one(N, n)
    for a in V:
        s = _mul(s, q2prime_euler(a, N, n))
    root = _mul(q1(1, N, n), ahat(1, N, n))
    for _ in range(n + 1):
        s = _mul(s, root)
    for b in W:
        s = _mul(s, q3(b, N, n))
    return [row[n] for row in s]


def cp_witten(n, N):
    return cp_index(n, N)


def cp_elliptic(n, N):
    """W = TM = (n+1) x; the stable trivial summand's factor 2 is divided out."""
    return [c / 2 for c in cp_index(n, N, W=[1] * (n + 1))]


def series_product(a, b):
    return [sum(a[i] * b[j - i] for i in range(j + 1)) for j in range(len(a))]
