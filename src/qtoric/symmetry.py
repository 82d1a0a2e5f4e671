"""Simple compact Lie-group tables and symmetry-degree bound reports.

Records are kept for the simply connected forms only (quotients share rank,
dimension and Weyl-group order); the classical low-rank coincidences are
collapsed to a single record with aliases, so each isomorphism class appears
once.  The report machinery combines the Weyl-order divisibility filter, the
rank and dimension ceilings, and the degree-bound arithmetic into one
auditable structure.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import BudgetExceededError, StructureError
from .polytope import int_vector

# The highest rank the alpha table takes on.  The Weyl orders are factorials, so
# building the records outgrows linear time: rank 1,000 takes 0.06 s, 4,000 2.6 s.
ALPHA_MAX_RANK = 1000


class GroupRecord:
    def __init__(self, family: str, rank: int, dim: int, weyl_order: int, name: str,
                 aliases: tuple = ()):
        self.family = family  # A, B, C, D, G2, F4, E6, E7, E8
        self.rank = rank
        self.dim = dim
        self.weyl_order = weyl_order
        self.name = name
        self.aliases = aliases

    def __eq__(self, other):
        return type(other) is GroupRecord and vars(self) == vars(other)

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    @property
    def names(self):
        return (self.name,) + self.aliases

    def dim_per_rank(self) -> Fraction:
        return Fraction(self.dim, self.rank)

    def as_dict(self):
        return {
            "family": self.family,
            "rank": self.rank,
            "dim": self.dim,
            "weyl_order": self.weyl_order,
            "name": self.name,
            "aliases": list(self.aliases),
        }


_EXCEPTIONAL = [
    GroupRecord("G2", 2, 14, 12, "G2"),
    GroupRecord("F4", 4, 52, 1152, "F4"),
    GroupRecord("E6", 6, 78, 51840, "E6"),
    GroupRecord("E7", 7, 133, 2903040, "E7"),
    GroupRecord("E8", 8, 248, 696729600, "E8"),
]


def _a_record(l):
    aliases = ()
    if l == 1:
        aliases = ("Spin(3)", "Sp(1)")
    elif l == 3:
        aliases = ("Spin(6)",)
    return GroupRecord("A", l, l * l + 2 * l, factorial(l + 1), "SU(%d)" % (l + 1), aliases)


def _b_record(l):
    aliases = ("Sp(2)",) if l == 2 else ()
    return GroupRecord("B", l, 2 * l * l + l, (2 ** l) * factorial(l),
                       "Spin(%d)" % (2 * l + 1), aliases)


def _c_record(l):
    return GroupRecord("C", l, 2 * l * l + l, (2 ** l) * factorial(l), "Sp(%d)" % l)


def _d_record(l):
    return GroupRecord("D", l, 2 * l * l - l, (2 ** (l - 1)) * factorial(l),
                       "Spin(%d)" % (2 * l))


def simple_groups(max_rank: int):
    """All simple simply connected compact groups of rank <= max_rank, once each.

    B starts at rank 2, C at 3 and D at 4: Spin(3), Sp(1), Sp(2), Spin(6) are
    aliases of SU(2), Spin(5), SU(4), and Spin(4) is not simple.
    """
    if max_rank < 1:
        raise StructureError("max_rank must be >= 1")
    out = []
    for l in range(1, max_rank + 1):
        out.append(_a_record(l))
        if l >= 2:
            out.append(_b_record(l))
        if l >= 3:
            out.append(_c_record(l))
        if l >= 4:
            out.append(_d_record(l))
    out.extend(g for g in _EXCEPTIONAL if g.rank <= max_rank)
    out.sort(key=lambda g: (g.rank, -g.dim, g.name))
    return out


def alpha(l: int):
    """Max of dim/rank over simple groups of rank <= l, with the rank-l witnesses."""
    return alpha_table(l)[-1]


def alpha_table(max_rank: int):
    """alpha(l) for l = 1..max_rank, from one pass over simple_groups(max_rank).
    A table past ALPHA_MAX_RANK raises BudgetExceededError."""
    if max_rank < 1:
        raise StructureError("alpha needs l >= 1")
    if max_rank > ALPHA_MAX_RANK:
        raise BudgetExceededError("the alpha table through rank %d is over the budget of "
                                  "rank %d" % (max_rank, ALPHA_MAX_RANK))
    by_rank = [[] for _ in range(max_rank + 1)]
    for g in simple_groups(max_rank):
        by_rank[g.rank].append(g)
    rows, value = [], 0
    for groups in by_rank[1:]:
        value = max([value] + [g.dim_per_rank() for g in groups])
        rows.append((value, [g for g in groups if g.dim_per_rank() == value]))
    return rows


def divisibility_candidates(chi: int, max_rank: int):
    """Simple groups whose Weyl-group order divides chi (needs chi != 0)."""
    if chi == 0:
        raise StructureError("divisibility filter needs chi != 0")
    chi = abs(chi)
    return [g for g in simple_groups(max_rank) if chi % g.weyl_order == 0]


def kmss_bound(alpha_deg: int, n: int) -> int:
    """Degree-of-symmetry ceiling from a nonzero rational cohomology group.

    alpha_deg is the (real) cohomological degree witnessing H^alpha != 0 on a
    2n-dimensional manifold other than CP^n.
    """
    int_vector([alpha_deg, n], "(alpha_deg, n)")
    if not 0 <= alpha_deg <= 2 * n:
        raise StructureError("alpha_deg must lie in 0..2n")
    a = alpha_deg
    b = 2 * n - alpha_deg
    return a * (a + 1) // 2 + b * (b + 1) // 2


def semisimple_products(chi: int, n: int):
    """Multisets of simple factors allowed by the divisibility and rank/dim rules.

    Constraints: total rank <= n (torus degree), the product of the Weyl
    orders divides chi, and total dim - total rank <= 2n.  Returns the
    candidate list sorted by descending total dimension.
    """
    if chi == 0:
        raise StructureError("semisimple candidate search needs chi != 0")
    chi = abs(chi)
    pool = divisibility_candidates(chi, max(n, 1))
    results = []
    _extend_products(pool, chi, n, 0, [], 0, 0, 1, results)
    results.sort(key=lambda item: (-item[2], item[1]))
    return results


def _extend_products(pool, chi, n, start, chosen, rank, dim, weyl, results):
    """Append to results, depth first, every multiset chosen + pool[i:] (i >=
    start) that semisimple_products allows.  A module-level function, not a
    closure over itself, so a search leaves no reference cycle behind."""
    for i in range(start, len(pool)):
        g = pool[i]
        if rank + g.rank > n:
            continue
        w = weyl * g.weyl_order
        if chi % w != 0:
            continue
        d = dim + g.dim
        r = rank + g.rank
        if d - r > 2 * n:
            continue
        results.append((chosen + [g], r, d, w))
        _extend_products(pool, chi, n, i, chosen + [g], r, d, w, results)


class SymmetryReport:
    def __init__(self, n: int, chi: int, index_nonvanishing: bool, rules: list = None,
                 simple_candidates: list = None, semisimple_products: list = None,
                 n_max: int = 0, semisimple_note: str = ""):
        self.n = n
        self.chi = chi
        self.index_nonvanishing = index_nonvanishing
        self.rules = [] if rules is None else rules
        self.simple_candidates = [] if simple_candidates is None else simple_candidates
        self.semisimple_products = [] if semisimple_products is None else semisimple_products
        self.n_max = n_max
        self.semisimple_note = semisimple_note

    def as_dict(self):
        return {
            "n": self.n,
            "chi": self.chi,
            "index_nonvanishing": self.index_nonvanishing,
            "rules": self.rules,
            "simple_candidates": [g.as_dict() for g in self.simple_candidates],
            "semisimple_products": [
                {"factors": [g.name for g in gs], "rank": r, "dim": d, "weyl_order": w}
                for gs, r, d, w in self.semisimple_products
            ],
            "N_max": self.n_max,
            "semisimple_note": self.semisimple_note,
        }


def symmetry_report(model=None, n=None, chi=None,
                    index_nonvanishing=False) -> SymmetryReport:
    """Assemble every applicable symmetry-degree rule for one manifold.

    Unconditional ceilings enter N_max; rules conditioned on unavailable
    hypotheses are listed as skipped with the reason.
    """
    if model is not None:
        n = model.n
        chi = model.euler
    if n is None or chi is None:
        raise StructureError("need a model or explicit n and chi")
    int_vector([n, chi], "(n, chi)")
    if n < 0:
        raise StructureError("n must be non-negative, got %d" % n)
    rules = []
    ceilings = []

    general = n * n + 2 * n
    rules.append({
        "rule": "cpn-maximality",
        "bound": general,
        "applied": True,
        "note": "N(M) <= n^2+2n for every 2n-dimensional quasitoric manifold; "
                "equality only for CP^n",
    })
    ceilings.append(general)

    if index_nonvanishing and chi != 0:
        rules.append({
            "rule": "index-3n-bound",
            "bound": 3 * n,
            "applied": True,
            "note": "nonvanishing twisted index and chi != 0 force N(M) <= 3n; "
                    "equality only for a product of n two-spheres",
        })
        ceilings.append(3 * n)
    else:
        rules.append({
            "rule": "index-3n-bound",
            "applied": False,
            "reason": "needs a nonvanishing twisted index and chi != 0",
        })

    alpha_deg = n if n % 2 == 0 else n - 1
    kmss = kmss_bound(alpha_deg, n) if n >= 1 else None
    both = {a: kmss_bound(a, n) for a in {n, n - 1} if 0 <= a <= 2 * n}
    rules.append({
        "rule": "kmss-degree-bound",
        "bound": kmss,
        "alpha_deg": alpha_deg,
        "bounds_by_degree": both,
        "applied": True,
        "conditional_on": "M != CP^n",
        "note": "cohomology in even degrees is nonzero at alpha_deg; "
                "ceiling applies to every quasitoric M other than CP^n",
    })

    simple = []
    semis = []
    note = ""
    if chi != 0 and index_nonvanishing:
        simple = divisibility_candidates(chi, n)
        semis = semisimple_products(chi, n)
        rules.append({
            "rule": "weyl-divisibility",
            "applied": True,
            "note": "Weyl-group order of any acting compact connected non-abelian "
                    "group divides chi = %d" % chi,
            "candidates": [g.name for g in simple],
        })
        if semis:
            ss_max = semis[0][2]
            rules.append({
                "rule": "semisimple-dimension",
                "bound": ss_max,
                "applied": True,
                "note": "largest admissible semisimple factor combination",
            })
        else:
            note = "N^ss(M) = 0: no semisimple compact connected group can act"
            rules.append({
                "rule": "semisimple-dimension",
                "bound": 0,
                "applied": True,
                "note": note,
            })
    else:
        rules.append({
            "rule": "weyl-divisibility",
            "applied": False,
            "reason": "needs a nonvanishing twisted index and chi != 0",
        })

    report = SymmetryReport(
        n=n, chi=chi, index_nonvanishing=index_nonvanishing, rules=rules,
        simple_candidates=simple, semisimple_products=semis,
        n_max=min(ceilings), semisimple_note=note)
    return report
