import random
from fractions import Fraction

import pytest

from qtoric.charpair import cp_pair, cube_pair, s2xs2_pair
from qtoric.errors import StructureError
from qtoric.polynomial import GradedPolynomial as GP
from qtoric.qseries import (
    QSeries,
    ahat_coeffs,
    bundle_series,
    exp_coeffs,
    inv_ahat_coeffs,
    log_table,
    root_factor,
    series_product,
)


def qs(coeff_lists, trunc):
    return QSeries([GP(c) if isinstance(c, dict) else GP.constant(c)
                    for c in coeff_lists], trunc)


# ----------------------------------------------------------------------
# ring arithmetic


def test_truncation_in_products():
    u = GP.generator(0)
    a = QSeries([GP.one(), u, GP.zero()], trunc=1)
    b = QSeries([GP.one(), -u, GP.zero()], trunc=1)
    # (1 + uq)(1 - uq) = 1 - u^2 q^2 and u^2 dies at trunc 1
    assert (a * b) == QSeries.one(2, 1)


def test_q_truncation_drops_high_terms():
    c = QSeries([GP.zero(), GP.zero(), GP.one()], trunc=2)  # q^2 at N=2
    q = QSeries([GP.zero(), GP.one(), GP.zero()], trunc=2)
    assert (c * q).is_zero()


def test_mismatched_orders_error():
    a = QSeries.one(2, 1)
    b = QSeries.one(3, 1)
    with pytest.raises(StructureError):
        a + b
    with pytest.raises(StructureError):
        a * QSeries.one(2, 2)


def naive_mul(a, b):
    """Brute-force term-by-term multiplication oracle."""
    N, trunc = a.q_order, a.trunc
    out = [dict() for _ in range(N + 1)]
    for i, pa in enumerate(a.coeffs):
        for j, pb in enumerate(b.coeffs):
            if i + j > N:
                continue
            for m1, c1 in pa.terms.items():
                for m2, c2 in pb.terms.items():
                    if len(m1) + len(m2) > trunc:
                        continue
                    mon = tuple(sorted(m1 + m2))
                    out[i + j][mon] = out[i + j].get(mon, Fraction(0)) + c1 * c2
    return QSeries([GP(d) for d in out], trunc)


def random_series(rng, n_gens, N, trunc):
    coeffs = []
    for _ in range(N + 1):
        terms = {}
        for _ in range(rng.randrange(4)):
            deg = rng.randrange(trunc + 1)
            mon = tuple(sorted(rng.randrange(n_gens) for _ in range(deg)))
            terms[mon] = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
        coeffs.append(GP(terms))
    return QSeries(coeffs, trunc)


def test_mul_matches_naive_oracle_and_distributes():
    rng = random.Random(20250810)
    for _ in range(25):
        a = random_series(rng, 3, 3, 2)
        b = random_series(rng, 3, 3, 2)
        c = random_series(rng, 3, 3, 2)
        assert a * b == naive_mul(a, b)
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_scalar_mul():
    a = qs([1, 2, 3], 1)
    assert a.scale(Fraction(1, 2)) == qs([Fraction(1, 2), 1, Fraction(3, 2)], 1)


def test_invert_round_trip():
    rng = random.Random(3)
    for _ in range(10):
        a = random_series(rng, 2, 3, 2)
        a = a + QSeries.constant(1, 3, 2)  # keep the constant term invertible
        if a.coeffs[0].constant_term() == 0:
            continue
        assert a * a.invert() == QSeries.one(3, 2)


# ----------------------------------------------------------------------
# Taylor data


def test_ahat_x2_coefficient():
    # (x/2)/sinh(x/2) = 1 - x^2/24 + 7x^4/5760 - ...
    c = ahat_coeffs(6)
    assert c[2] == Fraction(-1, 24)
    assert c[4] == Fraction(7, 5760)
    assert all(c[i] == 0 for i in (1, 3, 5))


def test_taylor_against_sympy():
    sp = pytest.importorskip("sympy")
    x = sp.symbols("x")
    deg = 8
    expand = sp.series((x / 2) / sp.sinh(x / 2), x, 0, deg + 1).removeO()
    ours = ahat_coeffs(deg)
    for j in range(deg + 1):
        assert sp.nsimplify(expand.coeff(x, j)) == sp.Rational(
            ours[j].numerator, ours[j].denominator)
    inv = sp.series(sp.sinh(x / 2) / (x / 2), x, 0, deg + 1).removeO()
    theirs = inv_ahat_coeffs(deg)
    for j in range(deg + 1):
        assert sp.nsimplify(inv.coeff(x, j)) == sp.Rational(
            theirs[j].numerator, theirs[j].denominator)
    ex = sp.series(sp.exp(-x / 2), x, 0, deg + 1).removeO()
    mine = exp_coeffs(-1, 2, deg)
    for j in range(deg + 1):
        assert sp.nsimplify(ex.coeff(x, j)) == sp.Rational(
            mine[j].numerator, mine[j].denominator)


# ----------------------------------------------------------------------
# root factors


def test_q1_at_zero_root_is_one():
    f = root_factor("Q1", GP.zero(), 4, 3)
    assert f == QSeries.one(4, 3)


def test_q3_at_zero_root_is_two():
    f = root_factor("Q3", GP.zero(), 4, 3)
    assert f == QSeries.constant(2, 4, 3)


def test_ahat_factor_degree2_part():
    u = GP.generator(0)
    f = root_factor("AHAT", u, 2, 4)
    assert f.constant_in_q()
    assert f.coeffs[0].homogeneous_part(2) == u.mul(u).scale(Fraction(-1, 24))


def test_constant_terms_of_factors():
    u = GP.generator(0)
    v = GP.generator(1)
    for kind, expect in [("Q1", 1), ("Q2PRIME", 1), ("AHAT", 1)]:
        f = bundle_series(kind, [u, v], 3, 2)
        assert f.coeffs[0].constant_term() == expect
        # setting the classes to zero collapses the whole series to the constant
        z = bundle_series(kind, [GP.zero(), GP.zero()], 3, 2)
        assert z == QSeries.constant(expect, 3, 2)
    q3 = bundle_series("Q3", [GP.zero()] * 3, 3, 2)
    assert q3 == QSeries.constant(8, 3, 2)  # 2^#roots


def test_q2_identity_with_euler_class():
    # e^{c1(V)/2} Q2(V) == e(V) Q2'(V) on random bundles over corpus models
    rng = random.Random(99)
    for model in [cp_pair(2).to_index_model(), s2xs2_pair().to_index_model(),
                  cube_pair(2).to_index_model()]:
        n, N = model.n, 3
        for _ in range(4):
            roots = []
            for _ in range(rng.randrange(1, 4)):
                vec = [rng.randrange(-1, 2) for _ in range(model.gen_count)]
                roots.append(GP.linear(vec))
            lhs = bundle_series("EXPHALF", roots, N, n) * bundle_series("Q2", roots, N, n)
            euler = GP.one()
            for r in roots:
                euler = euler.mul(r, n)
            rhs = bundle_series("Q2PRIME", roots, N, n) * euler
            assert lhs == rhs


def test_trivial_summand_stability():
    u = GP.generator(0)
    roots = [u, -u]
    n, N = 2, 4
    tangent = (bundle_series("Q1", roots, N, n)
               * bundle_series("AHAT", roots, N, n))
    with_zero = (bundle_series("Q1", roots + [GP.zero()], N, n)
                 * bundle_series("AHAT", roots + [GP.zero()], N, n))
    assert tangent == with_zero
    q3 = bundle_series("Q3", roots, N, n)
    q3_plus = bundle_series("Q3", roots + [GP.zero()], N, n)
    assert q3_plus == q3.scale(2)


def test_root_factor_rejects_nonlinear():
    with pytest.raises(StructureError):
        root_factor("Q1", GP.generator(0).mul(GP.generator(0)), 2, 2)
    with pytest.raises(StructureError):
        root_factor("NOPE", GP.generator(0), 2, 2)


def test_log_table_prefactor_is_a_number():
    # every q-product of root_factor is 1 at x = 0, so c is 1 (2 for Q3)
    for kinds in [("Q1", "AHAT"), ("EXPHALF",), ("EXPHALF", "Q2"), ("Q2PRIME",), ("Q3",)]:
        xpow, c, L = log_table(kinds, 3, 3)
        assert c == (2 if kinds == ("Q3",) else 1), kinds
        assert xpow == (1 if "Q2" in kinds else 0), kinds
        assert all(len(row) == 4 for row in L)


def reference_log_table(kinds, q_order, trunc, euler=False):
    """log_table read off root_factor on a single generator.

    The product of the factors is expanded as a QSeries; the x-powers that
    vanish at every q are split off into xpow, the next x-coefficient must
    be a number c, and the logarithm L of h = F / (x^xpow c), with h_0 = 1,
    follows from d L_d = d h_d - sum_i i L_i h_{d-i}.
    """
    u = GP.generator(0)
    f = QSeries.from_poly(u if euler else GP.one(), q_order, trunc)
    for kind in kinds:
        f = f * root_factor(kind, u, q_order, trunc)
    # a[d][j]: the coefficient of x^d q^j
    a = [[c.terms.get((0,) * d, Fraction(0)) for c in f.coeffs] for d in range(trunc + 1)]
    xpow = 0
    while xpow <= trunc and not any(a[xpow]):
        xpow += 1
    if xpow > trunc:
        return xpow, Fraction(0), ()
    a = a[xpow:]
    c = a[0][0]
    assert c and not any(a[0][1:]), kinds
    h = [[x / c for x in row] for row in a]
    L = [None]
    for d in range(1, len(h)):
        acc = [d * x for x in h[d]]
        for i in range(1, d):
            acc = [x - y for x, y in zip(acc, series_product([i * v for v in L[i]], h[d - i]))]
        L.append([x / d for x in acc])
    return xpow, c, tuple(tuple(row) for row in L[1:])


TABLE_KINDS = [(("Q1", "AHAT"), False), (("EXPHALF",), False), (("EXPHALF", "Q2"), False),
               (("Q2PRIME",), True), (("Q3",), False)]


@pytest.mark.parametrize("kinds, euler", TABLE_KINDS)
def test_log_table_matches_root_factor_expansion(kinds, euler):
    """The closed-form tables against root_factor's expansion, entry by
    entry, with the same row lengths.  The Euler class x times Q2PRIME is
    spelled ("EXPHALF", "Q2"), as phi_c spells it, since e^{x/2} Q2(x) =
    x Q2'(x)."""
    spelled = ("EXPHALF", "Q2") if euler else kinds
    for N in range(13):
        for n in range(11):
            expected = reference_log_table(kinds, N, n, euler)
            xpow, c, L = log_table(spelled, N, n)
            assert (xpow, c, L) == expected, (kinds, N, n)
            assert [len(row) for row in L] == [N + 1] * len(expected[2]), (kinds, N, n)


def test_series_product_matches_double_loop():
    """The C-level Cauchy product against the double loop, on ints and on
    Fractions, with lists of unequal length truncated to the shorter."""
    rng = random.Random(11)

    def naive(a, b):
        N = min(len(a), len(b))
        out = [0] * N
        for i in range(N):
            for j in range(N - i):
                out[i + j] += a[i] * b[j]
        return out

    for _ in range(60):
        la, lb = rng.randint(0, 9), rng.randint(0, 9)
        a = [rng.randint(-10 ** 20, 10 ** 20) for _ in range(la)]
        b = [rng.randint(-5, 5) for _ in range(lb)]
        assert series_product(a, b) == naive(a, b) == series_product(b, a), (a, b)
        fa = [Fraction(x, rng.randint(1, 12)) for x in a]
        fb = [Fraction(x, rng.randint(1, 12)) for x in b]
        assert series_product(fa, fb) == naive(fa, fb), (fa, fb)
        assert len(series_product(a, b)) == min(la, lb)
    assert series_product([1, 2, 3], [4, 5]) == [4, 13]
    assert series_product([], [1, 2]) == []


def test_log_table_rejects_unknown_kind():
    with pytest.raises(StructureError):
        log_table(("NOPE",), 1, 2)


def test_format_prints_exact_rationals():
    f = root_factor("AHAT", GP.generator(0), 1, 2)
    assert "1/24*u0^2" in f.format() and " q" in f.format()
