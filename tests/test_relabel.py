"""Invariance under a relabelling of the facets and under the CLI seed.

Permuting the facets (vertex sets, lambda rows, signs and names together)
describes the same manifold, so validation, chi, the mod-2 test on
permuted vectors and the admissibility report must not change.  The base
vertex is the first one in sorted order, which the permutation may move,
so the Witten and elliptic series agree up to one global sign: the
orientation.  The generic points do not enter any answer, so CLI output
differs between seeds only in its seed field.
"""

import json
import random

import pytest

from qtoric.charpair import (
    CharacteristicPair,
    cp_pair,
    cube_pair,
    hirzebruch_pair,
    polygon_pair,
    sphere_pair,
)
from qtoric.cli import generate_pair, main
from qtoric.cohomology import BundleSpec, QuasitoricModel, check_admissible, is_even_class
from qtoric.index import elliptic_genus, witten_genus
from qtoric.polytope import SimplePolytope

Q_ORDER = 2


def relabelled(pair, perm):
    """The pair with facet i renamed perm[i]."""
    m = pair.m
    lam, signs, names = [None] * m, [None] * m, [None] * m
    for i, j in enumerate(perm):
        lam[j], signs[j], names[j] = pair.lam[i], pair.signs[i], pair.polytope.facet_names[i]
    verts = [[perm[i] for i in v] for v in pair.polytope.vertices]
    poly = SimplePolytope(pair.n, verts, facet_count=m, facet_names=names)
    return CharacteristicPair(poly, lam, signs, name=pair.name)


def negated(pair, i):
    """Another omniorientation of the same manifold: lambda_i negated.  Its
    vertices do not all carry the same orientation sign, so a relabelling
    that moves the base vertex can reverse the orientation."""
    lam = list(pair.lam)
    lam[i] = tuple(-x for x in lam[i])
    return CharacteristicPair(pair.polytope, lam, pair.signs, name="%s -lambda_%d" % (pair.name, i))


def _cases():
    pairs = [cube_pair(3), cube_pair(4), cp_pair(3), cp_pair(4), hirzebruch_pair(2),
             polygon_pair(6), sphere_pair().product_pair(cp_pair(2)), negated(cp_pair(4), 1)]
    out = []
    for pair in pairs:
        rng = random.Random(pair.name)
        perms = []
        while len(perms) < 3:
            perm = rng.sample(range(pair.m), pair.m)
            if perm != sorted(perm) and perm not in perms:
                perms.append(perm)
        out += [(pair, perm) for perm in perms]
    return out


CASES = _cases()


@pytest.mark.parametrize("pair,perm", CASES,
                         ids=["%s %s" % (p.name, perm) for p, perm in CASES])
def test_invariant_under_facet_relabelling(pair, perm):
    twin = relabelled(pair, perm)
    assert (twin.polytope.vertices, twin.lam) != (pair.polytope.vertices, pair.lam)
    assert twin.validate().as_dict() == pair.validate().as_dict()
    assert twin.euler_characteristic() == pair.euler_characteristic()
    m = pair.m
    model, other = QuasitoricModel(pair), QuasitoricModel(twin)

    def moved(vec):
        out = [0] * m
        for i, j in enumerate(perm):
            out[j] = vec[i]
        return out

    rng = random.Random(repr(perm))
    seen = set()
    for _ in range(40):
        vec = [rng.randint(-2, 2) for _ in range(m)]
        answer = is_even_class(model, vec)
        assert is_even_class(other, moved(vec)) == answer, vec
        seen.add(answer)
    assert seen == {True, False}
    for trial in range(6):
        if trial % 2:
            # a split of the tangent roots signs_i u_i: p1(V + W - TM) = 0
            roots = [[s * (i == j) for j in range(m)] for i, s in enumerate(pair.signs)]
            rng.shuffle(roots)
            k = rng.randint(0, m)
            V, W = roots[:k], roots[k:]
        else:
            V = [[rng.randint(-1, 1) for _ in range(m)] for _ in range(rng.randint(0, 2))]
            W = [[rng.randint(-1, 1) for _ in range(m)] for _ in range(rng.randint(0, 2))]
        ours = check_admissible(model, BundleSpec.from_vectors(V, m),
                                BundleSpec.from_vectors(W, m))
        theirs = check_admissible(other, BundleSpec.from_vectors([moved(v) for v in V], m),
                                  BundleSpec.from_vectors([moved(w) for w in W], m))
        assert theirs.as_dict() == ours.as_dict()

    series = [witten_genus(model, Q_ORDER).series]
    twin_series = [witten_genus(other, Q_ORDER).series]
    if model.is_even_vector(model.c1_vector):
        series.append(elliptic_genus(model, Q_ORDER).series)
        twin_series.append(elliptic_genus(other, Q_ORDER).series)
    flat = [c for s in series for c in s]
    twin_flat = [c for s in twin_series for c in s]
    sign = next((1 if a == b else -1 for a, b in zip(flat, twin_flat) if a), 1)
    assert twin_flat == [sign * c for c in flat]


def test_relabelling_cases_see_both_orientations():
    """The sign in the test above is not vacuous: some relabelled twin has
    the opposite orientation, and some series is nonzero."""
    flips = set()
    for pair, perm in CASES:
        model, other = QuasitoricModel(pair), QuasitoricModel(relabelled(pair, perm))
        a, b = witten_genus(model, 0).series[0], witten_genus(other, 0).series[0]
        if a:
            flips.add(a == b)
    assert flips == {True, False}


@pytest.mark.parametrize("family", ["cp:3", "cube:3"])
@pytest.mark.parametrize("argv", [
    ["genus", "--kind", "witten"], ["genus", "--kind", "elliptic"],
    ["index", "--V", "[[1,0,0,0,0,0]]"],
])
def test_cli_output_does_not_depend_on_seed(tmp_path, capsys, family, argv):
    pair = generate_pair(family)
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair.to_json_dict()))
    if argv[0] == "index":
        argv = ["index", "--V", json.dumps([[1] + [0] * (pair.m - 1)])]
    outputs = []
    for seed in (1, 2, 3):
        assert main(argv + ["--seed", str(seed), "--manifold", str(path)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data.pop("seed") == seed
        outputs.append(data)
    assert outputs[0] == outputs[1] == outputs[2]
