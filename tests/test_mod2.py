"""The mod-2 test against the GF(2) elimination it replaced, and invariances.

A degree-2 class sum a_i u_i is even exactly when a lies in the span of the
columns of lambda over GF(2) (Davis-Januszkiewicz: H^2 = Z^m / lambda Z^n).
The reference below decides that by elimination, as the library did before
reading mu off the base vertex's dual basis; products and connected sums
take the block-diagonal lambda of their two sides.
"""

import random
from fractions import Fraction

import pytest

from qtoric.charpair import (
    CharacteristicPair,
    cp_pair,
    cube_pair,
    hirzebruch_pair,
    polygon_pair,
    s2xs2_pair,
    sphere_pair,
)
from qtoric.cohomology import (BundleSpec, QuasitoricModel, _linear_items, check_admissible,
                               is_even_class)
from qtoric.errors import StructureError
from qtoric.index import (
    ConnectedSumModel,
    ProductModel,
    elliptic_genus,
    phi_c,
    verify_exhaustive_split_vanishing,
    witten_genus,
)
from qtoric.polynomial import GradedPolynomial as GP
from test_charpair import dense_rebased, vertex_cuts


def gf2_solvable(rows, rhs):
    """Is rhs in the column span of the matrix over GF(2)?  rows: list of tuples."""
    aug = [[x & 1 for x in row] + [b & 1] for row, b in zip(rows, rhs)]
    ncols = len(rows[0]) if rows else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(aug)) if aug[i][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        for i in range(len(aug)):
            if i != r and aug[i][c]:
                aug[i] = [a ^ b for a, b in zip(aug[i], aug[r])]
        r += 1
    return all(any(row[:-1]) or not row[-1] for row in aug)


def relation_matrix(model):
    """The m x n' integer matrix whose columns span the degree-2 relations."""
    if isinstance(model, QuasitoricModel):
        return [list(row) for row in model.pair.lam]
    left, right = relation_matrix(model.left), relation_matrix(model.right)
    nl, nr = len(left[0]), len(right[0])
    return [row + [0] * nr for row in left] + [[0] * nl + row for row in right]


def unimodular(n, rng):
    """A seeded matrix in GL_n(Z) that is no signed permutation for n >= 2: the
    rows of (unit lower)(unit upper), off-diagonal entries in {-2, -1, 1, 2},
    permuted and each negated at random."""
    def entry():
        return rng.choice((-2, -1, 1, 2))
    low = [[1 if i == j else (entry() if j < i else 0) for j in range(n)] for i in range(n)]
    up = [[1 if i == j else (entry() if j > i else 0) for j in range(n)] for i in range(n)]
    a = [[sum(low[i][k] * up[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    rows = []
    for i in rng.sample(range(n), n):
        sign = rng.choice((-1, 1))
        rows.append([sign * x for x in a[i]])
    return rows


def rebased(pair, seed):
    """The same manifold with lambda in another basis of Z^n: lambda A."""
    a = unimodular(pair.n, random.Random(seed))
    lam = [[sum(r[k] * a[k][j] for k in range(pair.n)) for j in range(pair.n)]
           for r in pair.lam]
    return CharacteristicPair(pair.polytope, lam, pair.signs, name=pair.name + "+rebased")


def _q(pair):
    return QuasitoricModel(pair)


def _mod2_models():
    out = {}
    for n in range(1, 6):
        out["cp:%d" % n] = _q(cp_pair(n))
    for n in range(1, 5):
        out["cube:%d" % n] = _q(cube_pair(n))
    for k in range(4):
        out["hirzebruch:%d" % k] = _q(hirzebruch_pair(k))
    for k in (3, 5, 6, 7):
        out["polygon:%d" % k] = _q(polygon_pair(k))
    out["s2xs2"] = _q(s2xs2_pair())
    out["dense cp:4"] = _q(dense_rebased(cp_pair(4), 4))
    out["dense cube:4"] = _q(dense_rebased(cube_pair(4), 4))
    out["dense hirzebruch:3"] = _q(dense_rebased(hirzebruch_pair(3), 3))
    out["rebased polygon:5"] = _q(rebased(polygon_pair(5), 11))
    out["cp:3 with 2 vertex cuts"] = _q(vertex_cuts(cp_pair(3), 2, 3))
    out["dense cube:3 with 2 vertex cuts"] = _q(vertex_cuts(dense_rebased(cube_pair(3), 3), 2, 5))
    out["polygon:6*cp:2 pair"] = _q(polygon_pair(6).product_pair(cp_pair(2)))
    out["cp:2 x hirzebruch:1"] = ProductModel(_q(cp_pair(2)), _q(hirzebruch_pair(1)))
    out["s2 x dense cp:2"] = ProductModel(_q(sphere_pair()), _q(dense_rebased(cp_pair(2), 2)))
    out["cp:2 # cp:2"] = ConnectedSumModel(_q(cp_pair(2)), _q(cp_pair(2)), 1)
    out["cube:3 # dense cp:3"] = ConnectedSumModel(
        _q(cube_pair(3)), _q(dense_rebased(cp_pair(3), 9)), -1)
    return out


MOD2_MODELS = _mod2_models()
MOD2_TRIALS = 400  # per model: 29 models, 11,600 vectors in all


def _random_vector(lam, rng, even):
    """A random integer vector; an even one is lambda mu plus twice a vector."""
    m, n = len(lam), len(lam[0])
    vec = [rng.randint(-3, 3) for _ in range(m)]
    if even:
        mu = [rng.randint(-3, 3) for _ in range(n)]
        vec = [sum(x * y for x, y in zip(row, mu)) + 2 * v for row, v in zip(lam, vec)]
    return vec


@pytest.mark.parametrize("name", list(MOD2_MODELS))
def test_is_even_class_matches_gf2_elimination(name):
    model = MOD2_MODELS[name]
    lam = relation_matrix(model)
    assert len(lam) == model.gen_count
    rng = random.Random(name)
    seen = set()
    for trial in range(MOD2_TRIALS):
        vec = _random_vector(lam, rng, even=trial % 2 == 0)
        expected = gf2_solvable(lam, vec)
        assert is_even_class(model, vec) == expected, vec
        assert is_even_class(model, GP.linear(vec)) == expected, vec
        seen.add(expected)
    assert seen == {True, False}


# ----------------------------------------------------------------------
# invariance under a GL_n(Z) change of lambda basis


def _invariance_pairs():
    out = [cube_pair(n) for n in (3, 4, 5)] + [cp_pair(n) for n in (3, 4, 5)]
    out += [hirzebruch_pair(k) for k in range(4)]
    out.append(cube_pair(2).product_pair(cp_pair(2)))
    return out


@pytest.mark.parametrize("pair", _invariance_pairs(), ids=lambda p: p.name)
def test_mod2_and_admissibility_invariant_under_rebasing(pair):
    m = pair.m
    original = QuasitoricModel(pair)
    rng = random.Random(pair.name)
    for seed in range(3):
        twin = QuasitoricModel(rebased(pair, 100 + seed))
        base = twin.pair.vertex_weights[0]
        # the rebased base block is not the identity, so its dual basis is not
        assert any(sorted(map(abs, w)) != [0] * (pair.n - 1) + [1] for w in base)
        seen = set()
        for trial in range(100):
            vec = _random_vector(relation_matrix(original), rng, even=trial % 2 == 0)
            answer = is_even_class(original, vec)
            assert is_even_class(twin, vec) == answer, vec
            seen.add(answer)
        assert seen == {True, False}
        for trial in range(8):
            if trial % 2:
                # a split of the tangent roots: p1(V + W - TM) = 0
                roots = list(original.tangent_roots)
                rng.shuffle(roots)
                k = rng.randint(0, m)
                V, W = BundleSpec(roots[:k], m), BundleSpec(roots[k:], m)
            else:
                V = BundleSpec.from_vectors(
                    [[rng.randint(-1, 1) for _ in range(m)] for _ in range(rng.randint(0, 2))], m)
                W = BundleSpec.from_vectors(
                    [[rng.randint(-1, 1) for _ in range(m)] for _ in range(rng.randint(0, 2))], m)
            assert check_admissible(twin, V, W) == check_admissible(original, V, W)


SERIES_PAIRS = ([cube_pair(n) for n in (3, 4, 5)]
                + [hirzebruch_pair(2), polygon_pair(6), cp_pair(4),
                   vertex_cuts(cube_pair(3), 2, 3)])


@pytest.mark.parametrize("pair", SERIES_PAIRS, ids=lambda p: p.name)
def test_index_series_invariant_under_rebasing(pair):
    """lambda A, A in GL_n(Z), keeps the facets, the signs and the base
    vertex, so every index series of the twin equals the original's."""
    m = pair.m
    rng = random.Random(pair.name)
    # e(V) of the base vertex's facet bundles pairs to +-1, so some series is nonzero
    vertex = [[int(i == j) for j in range(m)] for i in pair.polytope.vertices[0]]
    twists = [(vertex, None)] + [
        ([[rng.randint(-1, 1) for _ in range(m)] for _ in range(k)],
         [[rng.randint(-1, 1) for _ in range(m)]])
        for k in (1, 2)]
    subsets = [[i for i in range(m) if rng.random() < 0.5] for _ in range(2)]

    def series(model):
        out = [witten_genus(model, 2).series]
        if model.is_even_vector(model.c1_vector):
            out.append(elliptic_genus(model, 1).series)
        out += [phi_c(model, V, W, q_order=1).series for V, W in twists]
        out += [verify_exhaustive_split_vanishing(model, S, 1)["series"] for S in subsets]
        return out

    expected = series(QuasitoricModel(pair))
    assert any(c != 0 for s in expected for c in s)
    for seed in range(2):
        twin = rebased(pair, 300 + seed)
        assert twin.lam != pair.lam
        assert series(QuasitoricModel(twin)) == expected


# ----------------------------------------------------------------------
# non-integral classes are rejected, never truncated


def test_non_integral_classes_rejected():
    model = cp_pair(2).to_index_model()
    empty = BundleSpec.empty(3)
    for bad in ([2.7, 0, 0], [1.0, 0, 0], [True, 0, 0], ["1", 0, 0], [1, 1], [1, 0, 0, 0],
                GP.linear([Fraction(3, 2), 0, 0]), GP.generator(0).mul(GP.generator(1)),
                GP.generator(3)):
        with pytest.raises(StructureError):
            is_even_class(model, bad)
        with pytest.raises(StructureError):
            check_admissible(model, empty, empty, c1c=bad)
    # a bundle class is checked when the bundle is built, not after a pairing
    half = GP.linear([Fraction(1, 2), 0, 0])
    for classes in ([half, half], [GP.generator(3)]):
        with pytest.raises(StructureError):
            BundleSpec(classes, 3)
    for root in (half, GP.generator(0).mul(GP.generator(1))):
        with pytest.raises(StructureError):
            _linear_items(root, 3)
    with pytest.raises(StructureError):
        phi_c(model, c1c=[1.5, 1.5, 0])
    with pytest.raises(StructureError):
        phi_c(model, c1c=GP.linear([Fraction(3, 2), Fraction(3, 2), 0]))
    # the integral class given either way is accepted and reported as given
    for c1c in ([1, 1, 0], GP.linear([1, 1, 0])):
        result = phi_c(model, c1c=c1c)
        assert result.admissibility.c1c_vector == (1, 1, 0)
        assert not result.admissibility.spin_c_exists  # c1c - c1(M) = -u2 is odd
