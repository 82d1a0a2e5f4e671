import gc
from fractions import Fraction
from math import factorial

import pytest

from qtoric.charpair import cp_pair, cube_pair
from qtoric.errors import BudgetExceededError, StructureError
from qtoric.symmetry import (
    ALPHA_MAX_RANK,
    GroupRecord,
    alpha,
    alpha_table,
    divisibility_candidates,
    kmss_bound,
    semisimple_products,
    simple_groups,
    symmetry_report,
)

# Frozen alpha table: value and witness names per rank (witnesses have rank
# exactly l and dim = alpha_l * l).
ALPHA_TABLE = {
    1: (3, {"Spin(3)"}),
    2: (7, {"G2"}),
    3: (7, {"Spin(7)", "Sp(3)"}),
    4: (13, {"F4"}),
    5: (13, set()),
    6: (13, {"E6", "Spin(13)", "Sp(6)"}),
    7: (19, {"E7"}),
    8: (31, {"E8"}),
    9: (31, set()), 10: (31, set()), 11: (31, set()), 12: (31, set()),
    13: (31, set()), 14: (31, set()),
}
for _l in range(15, 21):
    ALPHA_TABLE[_l] = (2 * _l + 1, {"Spin(%d)" % (2 * _l + 1), "Sp(%d)" % _l})


def names_of(records):
    out = set()
    for g in records:
        out.update(g.names)
    return out


def test_simple_group_closed_forms():
    for g in simple_groups(12):
        l = g.rank
        if g.family == "A":
            assert g.dim == l * l + 2 * l and g.weyl_order == factorial(l + 1)
        elif g.family in ("B", "C"):
            assert g.dim == 2 * l * l + l and g.weyl_order == 2 ** l * factorial(l)
        elif g.family == "D":
            assert g.dim == 2 * l * l - l and g.weyl_order == 2 ** (l - 1) * factorial(l)
    table = {g.name: (g.dim, g.weyl_order) for g in simple_groups(8)}
    assert table["G2"] == (14, 12)
    assert table["F4"] == (52, 1152)
    assert table["E6"] == (78, 51840)
    assert table["E7"] == (133, 2903040)
    assert table["E8"] == (248, 696729600)


def test_rank1_and_rank2_records():
    rank1 = [g for g in simple_groups(1)]
    assert len(rank1) == 1
    assert rank1[0].dim == 3 and rank1[0].weyl_order == 2
    assert "Spin(3)" in rank1[0].names and "SU(2)" in rank1[0].names
    rank2 = [g for g in simple_groups(2) if g.rank == 2]
    assert {g.name for g in rank2} == {"SU(3)", "Spin(5)", "G2"}
    spin5 = next(g for g in rank2 if g.name == "Spin(5)")
    assert spin5.weyl_order == 8 and "Sp(2)" in spin5.names


def test_no_duplicate_isomorphism_classes():
    gs = simple_groups(6)
    keys = {(g.rank, g.dim, g.weyl_order, g.family) for g in gs}
    assert len(keys) == len(gs)
    # Spin(6) = SU(4) appears once, as an alias
    su4 = [g for g in gs if "Spin(6)" in g.names]
    assert len(su4) == 1 and su4[0].name == "SU(4)"


def test_alpha_matches_frozen_table():
    for l, (value, witness_names) in ALPHA_TABLE.items():
        got_value, witnesses = alpha(l)
        assert got_value == Fraction(value), l
        assert {g.rank for g in witnesses} <= {l}
        if witness_names:
            got = names_of(witnesses)
            assert witness_names <= got, (l, got)
            assert len(witnesses) == len(witness_names) or (
                # Spin(2l+1) and Sp(l) are distinct records for l >= 3
                l >= 15 and len(witnesses) == 2)
        else:
            assert witnesses == [], l


def test_alpha_consistency_with_records():
    for l in range(1, 21):
        value, _ = alpha(l)
        for g in simple_groups(l):
            assert g.dim_per_rank() <= value


def reference_alpha(l):
    """symmetry.alpha as it was: simple_groups(l) rebuilt for each l."""
    groups = simple_groups(l)
    value = max(g.dim_per_rank() for g in groups)
    return value, [g for g in groups if g.rank == l and g.dim_per_rank() == value]


def test_alpha_table_matches_one_pass_per_rank():
    assert alpha_table(60) == [reference_alpha(l) for l in range(1, 61)]
    assert [alpha(l) for l in (1, 7, 60)] == [reference_alpha(l) for l in (1, 7, 60)]


def test_alpha_table_past_its_budget_is_refused():
    assert len(alpha_table(ALPHA_MAX_RANK)) == ALPHA_MAX_RANK
    for call in (alpha_table, alpha):
        with pytest.raises(BudgetExceededError, match="budget"):
            call(ALPHA_MAX_RANK + 1)
    with pytest.raises(StructureError):
        alpha_table(0)


def test_divisibility_examples():
    # chi = 2^n: exactly SU(2) and Spin(5)
    assert names_of(divisibility_candidates(2 ** 5, 5)) >= {"SU(2)", "Spin(5)"}
    assert {g.name for g in divisibility_candidates(2 ** 5, 5)} == {"SU(2)", "Spin(5)"}
    # odd chi: nothing (Weyl orders are even)
    assert divisibility_candidates(45, 6) == []
    # chi = 2*6k*2^n - 2 (k=1, n=2): 46, not divisible by 3 or 4
    assert {g.name for g in divisibility_candidates(46, 6)} == {"SU(2)"}


def test_divisibility_monotone_in_divisor_lattice():
    for chi in (4, 6, 12, 30):
        small = {g.name for g in divisibility_candidates(chi, 6)}
        big = {g.name for g in divisibility_candidates(2 * chi, 6)}
        assert small <= big


def test_divisibility_rejects_zero():
    with pytest.raises(StructureError):
        divisibility_candidates(0, 3)


def test_kmss_bound_values():
    assert kmss_bound(10, 10) == 110
    assert kmss_bound(9, 10) == 111
    assert min(kmss_bound(a, 10) for a in (9, 10)) == 110 <= 111 == 10 * 10 + 10 + 1
    assert kmss_bound(0, 10) == 10 * 21  # sphere-case degeneration n(2n+1)
    with pytest.raises(StructureError):
        kmss_bound(25, 10)


def test_semisimple_products_rules():
    # chi = 16, n = 4: combinations of SU(2) (W=2) and Spin(5) (W=8)
    results = semisimple_products(16, 4)
    names = [sorted(g.name for g in gs) for gs, r, d, w in results]
    assert ["SU(2)"] in names
    assert ["SU(2)", "SU(2)"] in names
    assert ["Spin(5)"] in names
    for gs, rank, dim, weyl in results:
        assert rank <= 4 and 16 % weyl == 0 and dim - rank <= 8
    # odd chi: empty
    assert semisimple_products(7, 4) == []


def test_symmetry_report_cube():
    model = cube_pair(3).to_index_model()
    rep = symmetry_report(model, index_nonvanishing=True)
    assert rep.chi == 8 and rep.n == 3
    assert rep.n_max == 9  # 3n beats n^2 + 2n
    assert {g.name for g in rep.simple_candidates} == {"SU(2)", "Spin(5)"}
    rules = {r["rule"]: r for r in rep.rules}
    assert rules["index-3n-bound"]["applied"] and rules["index-3n-bound"]["bound"] == 9
    assert rules["cpn-maximality"]["bound"] == 15
    assert rep.n_max == min(r["bound"] for r in rep.rules
                            if r.get("applied") and "conditional_on" not in r
                            and r["rule"] in ("index-3n-bound", "cpn-maximality"))


def test_symmetry_report_cpn_skips_3n():
    model = cp_pair(3).to_index_model()
    rep = symmetry_report(model, index_nonvanishing=False)
    rules = {r["rule"]: r for r in rep.rules}
    assert not rules["index-3n-bound"]["applied"]
    assert rep.n_max == 15  # n^2 + 2n with the CP^n equality note
    assert "CP^n" in rules["cpn-maximality"]["note"]


def test_symmetry_report_odd_chi():
    rep = symmetry_report(n=4, chi=7, index_nonvanishing=True)
    assert rep.simple_candidates == []
    assert rep.semisimple_products == []
    assert "N^ss(M) = 0" in rep.semisimple_note


def test_symmetry_report_kmss_conditional():
    rep = symmetry_report(n=10, chi=1024, index_nonvanishing=False)
    rules = {r["rule"]: r for r in rep.rules}
    kmss = rules["kmss-degree-bound"]
    assert kmss["bound"] == 110 and kmss["conditional_on"] == "M != CP^n"
    # conditional bounds stay out of the unconditional ceiling
    assert rep.n_max == 120


def test_report_requires_inputs():
    with pytest.raises(StructureError):
        symmetry_report()
    for n, chi in ((2.5, 3), (-1, 3), (True, 3), (2, 3.0), (2, False)):
        with pytest.raises(StructureError):
            symmetry_report(n=n, chi=chi)
    for alpha_deg, n in ((2.5, 3), (2, 3.0), (True, 3), (2, True)):
        with pytest.raises(StructureError, match="must be a list of integers"):
            kmss_bound(alpha_deg, n)
    assert symmetry_report(n=0, chi=1).n_max == 0


def _closure_products(chi, n):
    """semisimple_products as it was: a nested search that calls itself."""
    chi = abs(chi)
    pool = divisibility_candidates(chi, max(n, 1))
    results = []

    def rec(start, chosen, rank, dim, weyl):
        for i in range(start, len(pool)):
            g = pool[i]
            w = weyl * g.weyl_order
            if rank + g.rank > n or chi % w or dim + g.dim - rank - g.rank > 2 * n:
                continue
            results.append((chosen + [g], rank + g.rank, dim + g.dim, w))
            rec(i, chosen + [g], rank + g.rank, dim + g.dim, w)

    rec(0, [], 0, 0, 1)
    results.sort(key=lambda item: (-item[2], item[1]))
    return results


@pytest.mark.parametrize("chi,n", [(16, 4), (7, 4), (-48, 3), (1152, 6), (24, 2), (5, 1)])
def test_semisimple_products_leave_no_garbage(chi, n):
    """The search is a module-level function, not a closure that refers to
    itself: a call leaves nothing for the cyclic collector, and the results
    are the closure's, in its order."""
    gc.collect()
    gc.disable()
    try:
        results = semisimple_products(chi, n)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert results == _closure_products(chi, n)
