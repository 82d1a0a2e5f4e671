import random
from fractions import Fraction

import pytest

from qtoric.charpair import (
    CharacteristicPair,
    _bareiss,
    _eliminate,
    cp_pair,
    cube_pair,
    hirzebruch_pair,
    polygon_pair,
    s2xs2_pair,
    sphere_pair,
)
from qtoric.errors import InternalConsistencyError, StructureError, ValidationError
from qtoric.polytope import SimplePolytope, cube, polygon, simplex


def test_cp2_valid():
    pair = CharacteristicPair(simplex(2), [(1, 0), (0, 1), (-1, -1)])
    assert pair.validate().ok


def test_s2xs2_identity_blocks_valid():
    pair = CharacteristicPair(polygon(4), [(1, 0), (0, 1), (1, 0), (0, 1)])
    assert pair.validate().ok
    assert pair.euler_characteristic() == 4


def test_non_unimodular_vertex_rejected():
    pair = CharacteristicPair(polygon(4), [(1, 0), (0, 1), (2, 1), (0, 1)])
    report = pair.validate()
    assert not report.ok
    fail = next(c for c in report.checks if not c.passed)
    assert "det" in fail.detail
    with pytest.raises(ValidationError):
        pair.require_valid()


def test_non_primitive_row_rejected():
    pair = CharacteristicPair(polygon(4), [(2, 0), (0, 1), (1, 0), (0, 1)])
    report = pair.validate()
    assert not report.ok
    assert any("primitive" in c.detail for c in report.checks if not c.passed)


def test_non_primitive_row_report_and_message():
    """The first row whose gcd is not 1 is named, in one failed check."""
    pair = CharacteristicPair(polygon(4), [(1, 0), (0, 1), (-2, 0), (0, -3)], name="sq")
    report = pair.validate()
    assert report.as_dict() == {"ok": False, "checks": [
        {"name": "polytope-valid", "passed": True, "detail": ""},
        {"name": "primitive-rows", "passed": False,
         "detail": "lambda row 2 = (-2, 0) is not primitive"},
        {"name": "vertex-unimodular", "passed": False,
         "detail": "vertex (0, 3) has det -3, expected +-1"}]}
    with pytest.raises(ValidationError) as exc:
        pair.require_valid()
    assert str(exc.value) == (
        "invalid characteristic pair sq: primitive-rows: lambda row 2 = (-2, 0) is not "
        "primitive; vertex-unimodular: vertex (0, 3) has det -3, expected +-1")
    assert exc.value.report is report


def test_structural_checks():
    with pytest.raises(StructureError):
        CharacteristicPair(polygon(4), [(1, 0), (0, 1)])  # wrong row count
    with pytest.raises(StructureError):
        CharacteristicPair(polygon(4), [(1,), (0,), (1,), (0,)])  # wrong width
    with pytest.raises(StructureError):
        CharacteristicPair(polygon(4), [(1, 0)] * 4, signs=[1, 2, 1, 1])


def test_weight_duality():
    # the dual covectors satisfy <w_k, lambda_{i_l}> = delta_kl exactly
    for pair in [cp_pair(3), cube_pair(3), hirzebruch_pair(2), polygon_pair(6)]:
        pair.require_valid()
        for v, weights in zip(pair.polytope.vertices, pair.vertex_weights):
            for k, w in enumerate(weights):
                for l, facet in enumerate(v):
                    dot = sum(a * b for a, b in zip(w, pair.lam[facet]))
                    assert dot == (1 if k == l else 0)


def test_euler_characteristics():
    assert sphere_pair().euler_characteristic() == 2
    for n in range(1, 5):
        assert cube_pair(n).euler_characteristic() == 2 ** n
        assert cp_pair(n).euler_characteristic() == n + 1
    assert polygon_pair(6).euler_characteristic() == 6


def test_product_pair_chi_multiplicative():
    s2 = sphere_pair()
    cp2 = cp_pair(2)
    prod = s2.product_pair(cp2)
    prod.require_valid()
    assert prod.n == 3
    assert prod.euler_characteristic() == 2 * 3
    c22 = cube_pair(2).product_pair(cube_pair(2))
    assert c22.euler_characteristic() == 16
    assert c22.n == 4 and c22.m == 8


def test_product_pair_lambda_block_diagonal():
    prod = sphere_pair().product_pair(sphere_pair())
    assert prod.lam == ((1, 0), (-1, 0), (0, 1), (0, -1))
    assert prod.signs == (1, 1, 1, 1)


def test_to_index_model_generators():
    m = sphere_pair().to_index_model()
    assert m.n == 1 and m.gen_count == 2
    m2 = cp_pair(2).to_index_model()
    assert m2.gen_count == 3


def test_sign_flip_negates_odd_pairings():
    base = s2xs2_pair()
    flipped = base.with_signs([-1, 1, 1, 1])
    m0 = base.to_index_model()
    m1 = flipped.to_index_model()
    assert m1.pair_monomial((0, 1)) == -m0.pair_monomial((0, 1))
    assert m1.pair_monomial((0, 0)) == m0.pair_monomial((0, 0))  # even power
    assert m1.pair_monomial((1, 2)) == m0.pair_monomial((1, 2))  # not involved
    # tangent root of the flipped facet is negated as an expression
    assert m1.tangent_roots[0] == -m0.tangent_roots[0]


def test_json_round_trip():
    pair = hirzebruch_pair(3)
    again = CharacteristicPair.from_json_dict(pair.to_json_dict())
    assert again.lam == pair.lam
    assert again.signs == pair.signs
    assert again.polytope.vertices == pair.polytope.vertices
    with pytest.raises(StructureError):
        CharacteristicPair.from_json_dict(pair.polytope.to_json_dict())


# ----------------------------------------------------------------------
# The routes the integer kernel replaced, kept as the reference: a Laplace
# determinant and a Fraction Gauss-Jordan inverse for every vertex block.


def laplace_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[r[c] for c in range(n) if c != j] for r in rows[1:]]
        total += ((-1) ** j) * rows[0][j] * laplace_det(minor)
    return total


def fraction_inverse_transpose(rows):
    n = len(rows)
    aug = [[Fraction(rows[i][j]) for j in range(n)] +
           [Fraction(1 if k == i else 0) for k in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    out = []
    for j in range(n):
        row = tuple(aug[i][n + j] for i in range(n))
        assert all(x.denominator == 1 for x in row)
        out.append(tuple(int(x) for x in row))
    return tuple(out)


def reference_weights(pair):
    out = []
    for v in pair.polytope.vertices:
        block = [list(pair.lam[i]) for i in v]
        assert laplace_det(block) in (-1, 1)
        out.append(fraction_inverse_transpose(block))
    return tuple(out)


def dense_rebased(pair, seed):
    """lambda times (unit lower)(unit upper), off-diagonal entries in {1, 2}:
    every entry of the rebased rows is nonzero, so each block is dense."""
    rng = random.Random(seed)
    n = pair.n
    low = [[1 if i == j else (rng.choice((1, 2)) if j < i else 0) for j in range(n)]
           for i in range(n)]
    up = [[1 if i == j else (rng.choice((1, 2)) if j > i else 0) for j in range(n)]
          for i in range(n)]
    a = [[sum(low[i][k] * up[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    lam = [[sum(r[k] * a[k][j] for k in range(n)) for j in range(n)] for r in pair.lam]
    return CharacteristicPair(pair.polytope, lam, name=pair.name + "+dense")


def vertex_cuts(pair, cuts, seed):
    """Blow up seeded vertices: a new facet F with lambda_F = sum_{i in v} lambda_i
    replaces v by the n vertices (v - {i}) + {F}."""
    rng = random.Random(seed)
    verts, lam = list(pair.polytope.vertices), list(pair.lam)
    for _ in range(cuts):
        v = verts.pop(rng.randrange(len(verts)))
        f = len(lam)
        verts += [tuple(j for j in v if j != i) + (f,) for i in v]
        lam.append(tuple(sum(lam[i][k] for i in v) for k in range(pair.n)))
    poly = SimplePolytope(pair.n, verts, facet_count=len(lam))
    return CharacteristicPair(poly, lam, name=pair.name + "+cuts")


def sheared(pair, seed):
    """lambda times a unit bidiagonal shear (+-1 above the diagonal) with its
    columns permuted and signed: a unit row becomes two nonzero entries with
    zeros between and around them, and cp's (-1, ..., -1) row more."""
    rng = random.Random(seed)
    n = pair.n
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    shear = [[1 if i == j else (rng.choice((1, -1)) if j == i + 1 else 0)
              for j in range(n)] for i in range(n)]
    a = [[shear[i][perm[j]] * signs[j] for j in range(n)] for i in range(n)]
    lam = [[sum(r[k] * a[k][j] for k in range(n)) for j in range(n)] for r in pair.lam]
    return CharacteristicPair(pair.polytope, lam, name=pair.name + "+shear")


def negated(pair, rows):
    """The pair with the lambda rows in ``rows`` negated: still unimodular,
    with single-entry rows -e_j."""
    lam = [tuple(-x for x in r) if i in rows else r for i, r in enumerate(pair.lam)]
    return CharacteristicPair(pair.polytope, lam, name=pair.name + "+neg")


# single-entry rows +-e_j walked beside rows of two or more nonzero entries
# with zeros between them (sheared; cp cuts such as (-2, 0, 0, -1, 0)), beside
# cut rows without a zero (cube cuts), and negated rows -e_j
SPARSE_CASES = (
    ("shear cube:6", lambda: sheared(cube_pair(6), 6)),
    ("shear cp:7", lambda: sheared(cp_pair(7), 7)),
    ("cube:5 with 4 vertex cuts", lambda: vertex_cuts(cube_pair(5), 4, 5)),
    ("cp:5 with 6 vertex cuts", lambda: vertex_cuts(cp_pair(5), 6, 5)),
    ("cp:4 with rows 1, 3 and 4 negated", lambda: negated(cp_pair(4), (1, 3, 4))),
)


KERNEL_CASES = (
    [("cube:%d" % n, lambda n=n: cube_pair(n)) for n in range(3, 7)]
    + [("cp:%d" % n, lambda n=n: cp_pair(n)) for n in range(2, 8)]
    + [("hirzebruch:%d" % k, lambda k=k: hirzebruch_pair(k)) for k in range(4)]
    + [("polygon:6*cp:2", lambda: polygon_pair(6).product_pair(cp_pair(2))),
       ("dense cp:7", lambda: dense_rebased(cp_pair(7), 7)),
       ("dense cube:6", lambda: dense_rebased(cube_pair(6), 6)),
       ("cp:4 with 3 vertex cuts", lambda: vertex_cuts(cp_pair(4), 3, 4))]
    + list(SPARSE_CASES)
)


@pytest.mark.parametrize("make", [m for _, m in KERNEL_CASES],
                         ids=[name for name, _ in KERNEL_CASES])
def test_vertex_weights_match_old_routes(make):
    pair = make()
    assert pair.vertex_weights == reference_weights(pair)


def test_bareiss_det_and_adjugate():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(1, 5)
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        d, adj = _bareiss(a)
        assert d == laplace_det(a)
        if d == 0:
            assert adj is None
            continue
        for i in range(n):
            for j in range(n):
                assert sum(a[i][k] * adj[k][j] for k in range(n)) == (d if i == j else 0)


def fraction_det_adjugate(a):
    """Determinant and adjugate (det times the inverse) by Fraction
    Gauss-Jordan on [A | I]; (0, None) for a singular matrix."""
    n = len(a)
    rows = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
            for i, r in enumerate(a)]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c]), None)
        if piv is None:
            return 0, None
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det *= rows[c][c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(n):
            if r != c:
                rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
    return det, [[det * x for x in row[n:]] for row in rows]


def test_bareiss_matches_the_fraction_reference():
    """Random, signed permutation, identity and singular matrices.  In
    diag(2, 3) and [[2, 1], [0, 3]] the second row has a zero in the first
    pivot column, yet the pivot 2 differs from the previous pivot 1, so the
    row must still be scaled by 2; an elimination that skipped it would
    give the determinant 3."""
    rng = random.Random(26)
    cases = [[[2, 0], [0, 3]], [[2, 1], [0, 3]], [[0, 2], [3, 0]], [[1, 2], [2, 4]],
             [[0, 0], [0, 0]], [[1, 0, 0], [0, 0, 0], [0, 0, 5]]]
    for n in range(1, 7):
        cases.append([[int(i == j) for j in range(n)] for i in range(n)])
        perm = rng.sample(range(n), n)
        cases.append([[rng.choice((1, -1)) if j == perm[i] else 0 for j in range(n)]
                      for i in range(n)])
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        cases.append(a)
        cases.append(a[:-1] + [[x + y for x, y in zip(a[0], a[-2 if n > 1 else 0])]])
    cases += [[[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
              for n in rng.choices(range(1, 6), k=200)]
    singular = 0
    for a in cases:
        d, adj = _bareiss(a)
        assert (d, adj) == fraction_det_adjugate(a), a
        singular += d == 0
    assert singular >= 8


# The Fraction Gauss-Jordan that cohomology used for ranks and kernels before
# every elimination moved onto _eliminate, kept as the reference.


def fraction_rref(rows):
    """Reduced row echelon form over Fraction; returns (rref rows, pivot cols)."""
    rows = [list(map(Fraction, r)) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def fraction_nullspace(rows, ncols):
    """Basis of the right nullspace of the matrix with the given rows."""
    rr, pivots = fraction_rref(rows)
    basis = []
    for fc in [c for c in range(ncols) if c not in pivots]:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -rr[i][fc]
        basis.append(vec)
    return basis


def random_matrix(rng, kind):
    """A seeded integer matrix of one of the shapes the kernel must handle."""
    r, c = rng.randint(1, 6), rng.randint(1, 6)
    if kind == "row":
        r = 1
    elif kind == "column":
        c = 1
    if kind == "deficient":
        k = rng.randint(0, min(r, c) - 1) if min(r, c) > 1 else 0
        left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(r)]
        right = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(k)]
        return [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(c)]
                for i in range(r)]
    a = [[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)]
    if kind == "zeros":
        for i in rng.sample(range(r), rng.randint(0, r)):
            a[i] = [0] * c
        for j in rng.sample(range(c), rng.randint(0, c)):
            for row in a:
                row[j] = 0
    return a


def test_eliminate_matches_fraction_rref():
    rng = random.Random(5)
    kinds = ("general", "row", "column", "deficient", "zeros")
    ranks = set()
    for trial in range(1500):
        a = random_matrix(rng, kinds[trial % len(kinds)])
        ncols = len(a[0])
        sign, d, reduced, pivots = _eliminate(a)
        rr, ref_pivots = fraction_rref(a)
        assert pivots == ref_pivots, a
        rank = len(pivots)
        ranks.add((len(a), ncols, rank))
        assert sign in (-1, 1) and d != 0
        # the reduced rows are d times the (unique) reduced row echelon form
        assert [[Fraction(x, d) for x in row] for row in reduced[:rank]] == rr, a
        assert not any(any(row) for row in reduced[rank:]), a
        # the kernel read off the reduced rows, as the face-ring oracle reads it
        kernel = []
        for f in (c for c in range(ncols) if c not in pivots):
            vec = [0] * ncols
            vec[f] = d
            for row, c in zip(reduced, pivots):
                vec[c] = -row[f]
            assert all(sum(x * y for x, y in zip(row, vec)) == 0 for row in a), a
            kernel.append([Fraction(x, d) for x in vec])
        assert kernel == fraction_nullspace(a, ncols), a
    # every shape and rank occurred: zero, full and in between, 1 x k and k x 1
    assert {rank for _, _, rank in ranks} == set(range(7))
    assert any(r == 1 and c > 1 for r, c, _ in ranks)
    assert any(c == 1 and r > 1 for r, c, _ in ranks)
    assert any(0 < rank < min(r, c) for r, c, rank in ranks)


def _unimodular_detail(pair):
    report = pair.validate()
    assert not report.ok
    (fail,) = report.failures()
    assert fail.name == "vertex-unimodular"
    return fail.detail


def test_singular_base_vertex_detail():
    pair = CharacteristicPair(polygon(4), [(1, 0), (1, 0), (0, 1), (0, 1)])
    assert pair.polytope.vertices[0] == (0, 1)
    assert _unimodular_detail(pair) == "vertex (0, 1) has det 0, expected +-1"


def test_det_zero_block_detail():
    pair = CharacteristicPair(polygon(4), [(1, 0), (0, 1), (0, 1), (0, 1)])
    assert _unimodular_detail(pair) == "vertex (1, 2) has det 0, expected +-1"


def test_first_bad_vertex_in_stored_order_is_reported():
    # vertex 3 = (0, 4, 5) has det 2 and vertex 4 = (1, 2, 3) has det 0; only
    # the latter is a neighbour of the base vertex, so a walk from the base
    # meets it first, but the report names the first bad vertex in stored order
    lam = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1), (1, 1, -1), (0, 1, 1)]
    pair = CharacteristicPair(cube(3), lam)
    assert pair.polytope.vertices[3:5] == ((0, 4, 5), (1, 2, 3))
    assert pair.polytope.vertex_adjacency()[0] == (1, 2, 4)
    assert _unimodular_detail(pair) == "vertex (0, 4, 5) has det 2, expected +-1"


def test_non_primitive_single_entry_row_names_the_first_bad_vertex():
    # facet 4 of cube:4 (not at the base vertex) gets the row (2, 0, 0, 0):
    # the walk stops at the first edge entering it, with c = 2, and the
    # report still names the first bad block in stored order
    lam = list(cube_pair(4).lam)
    lam[4] = (2, 0, 0, 0)
    pair = CharacteristicPair(cube(4), lam)
    assert 4 not in pair.polytope.vertices[0]
    bad = next(v for v in pair.polytope.vertices
               if laplace_det([lam[i] for i in v]) not in (-1, 1))
    assert bad == (1, 2, 3, 4) and laplace_det([lam[i] for i in bad]) == -2
    assert pair._dual_bases() is None
    report = pair.validate()
    assert [c.name for c in report.failures()] == ["primitive-rows", "vertex-unimodular"]
    assert report.failures()[1].detail == "vertex (1, 2, 3, 4) has det -2, expected +-1"


# ----------------------------------------------------------------------
# Orientation signs.  The walk that propagated them inside QuasitoricModel,
# before validation read them off its own walk, kept as the reference: it
# compares the endpoint tangent weights of every edge, in both directions,
# on weights from the reference routes above.


def reference_orientation_signs(pair):
    verts = pair.polytope.vertices
    weights = reference_weights(pair)

    def edge_weight(vid, facet):
        return weights[vid][verts[vid].index(facet)]

    eps = {0: 1}
    adj = {}
    for a, b in pair.polytope.edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    stack = [0]
    while stack:
        a = stack.pop()
        for b in adj[a]:
            shared = set(verts[a]) & set(verts[b])
            fa = next(i for i in verts[a] if i not in shared)
            fb = next(i for i in verts[b] if i not in shared)
            wa = edge_weight(a, fa)
            wb = edge_weight(b, fb)
            if wb == wa:
                eps_b = -eps[a]
            elif wb == tuple(-x for x in wa):
                eps_b = eps[a]
            else:
                raise InternalConsistencyError(
                    "edge weights %r / %r along edge %r-%r are not up-to-sign equal"
                    % (wa, wb, verts[a], verts[b]))
            if b in eps:
                if eps[b] != eps_b:
                    raise InternalConsistencyError(
                        "orientation signs inconsistent around a cycle at %r"
                        % (verts[b],))
            else:
                eps[b] = eps_b
                stack.append(b)
    return tuple(eps[i] for i in range(len(verts)))


ORIENTATION_CASES = (
    [("cp:%d" % n, lambda n=n: cp_pair(n)) for n in range(1, 8)]
    + [("cube:%d" % n, lambda n=n: cube_pair(n)) for n in range(1, 9)]
    + [("hirzebruch:%d" % k, lambda k=k: hirzebruch_pair(k)) for k in range(5)]
    + [("polygon:%d" % k, lambda k=k: polygon_pair(k)) for k in range(3, 9)]
    + [("s2xs2", s2xs2_pair),
       ("polygon:6*cp:2", lambda: polygon_pair(6).product_pair(cp_pair(2))),
       ("hirzebruch:1*cube:2", lambda: hirzebruch_pair(1).product_pair(cube_pair(2))),
       ("dense cp:7", lambda: dense_rebased(cp_pair(7), 7)),
       ("dense cube:6", lambda: dense_rebased(cube_pair(6), 6)),
       ("cp:4 with 3 vertex cuts", lambda: vertex_cuts(cp_pair(4), 3, 4))]
    + list(SPARSE_CASES)
)


@pytest.mark.parametrize("make", [m for _, m in ORIENTATION_CASES],
                         ids=[name for name, _ in ORIENTATION_CASES])
def test_orientation_signs_match_old_walk(make):
    pair = make()
    assert pair.orientation_signs == reference_orientation_signs(pair)


def slot_parity_orientation(polytope):
    """P's own orientation, from the slots of the ridge pairing: o_0 = 1 and
    o_b = (-1)^(k + j + 1) o_a along the edge that leaves a's k-th facet
    and enters b's j-th; None when the signs clash around a cycle."""
    verts = polytope.vertices
    neighbours, entered = polytope.ridge_pairing()
    o = [1] + [0] * (len(verts) - 1)
    stack = [0]
    while stack:
        a = stack.pop()
        for k, (b, f) in enumerate(zip(neighbours[a], entered[a])):
            o_b = o[a] if (k + verts[b].index(f)) % 2 else -o[a]
            if not o[b]:
                o[b] = o_b
                stack.append(b)
            elif o[b] != o_b:
                return None
    return tuple(o)


@pytest.mark.parametrize("make", [m for _, m in ORIENTATION_CASES],
                         ids=[name for name, _ in ORIENTATION_CASES])
def test_orientation_signs_are_the_polytope_orientation_times_block_dets(make):
    """A second route: eps_v = o_v det(lambda_v) / det(lambda_0), o the
    slot-parity orientation of P alone, so orientability is P's property."""
    pair = make()
    o = slot_parity_orientation(pair.polytope)
    dets = [_bareiss([pair.lam[i] for i in v])[0] for v in pair.polytope.vertices]
    assert pair.orientation_signs == tuple(o_v * d * dets[0] for o_v, d in zip(o, dets))


def rp2_dual_pair():
    """The dual of the 6-vertex triangulation of RP^2: every block is
    unimodular, but the edge graph carries no orientation."""
    verts = [(0, 1, 3), (0, 1, 5), (0, 2, 4), (0, 2, 5), (0, 3, 4),
             (1, 2, 3), (1, 2, 4), (1, 4, 5), (2, 3, 5), (3, 4, 5)]
    lam = [(1, 0, 0), (0, 1, 0), (-1, -1, -1), (0, 0, 1), (-1, -1, 0), (-1, 0, -1)]
    return CharacteristicPair(SimplePolytope(3, verts), lam, name="rp2-dual")


def test_non_orientable_pair_fails_validation():
    pair = rp2_dual_pair()
    report = pair.validate()
    assert not report.ok and pair.polytope.validate().ok
    assert [c.name for c in report.checks] == [
        "polytope-valid", "primitive-rows", "vertex-unimodular", "orientation-consistent"]
    (fail,) = report.failures()
    assert fail.detail == "orientation signs inconsistent around a cycle at (0, 1, 5)"
    # the old walk meets the same cycle first
    with pytest.raises(InternalConsistencyError) as exc:
        reference_orientation_signs(pair)
    assert str(exc.value) == fail.detail
    for read in (lambda: pair.orientation_signs, lambda: pair.vertex_weights,
                 pair.euler_characteristic, pair.to_index_model):
        with pytest.raises(ValidationError):
            read()
    # the polytope alone already carries no orientation
    assert slot_parity_orientation(pair.polytope) is None
