"""Seeded inputs for the benchmark, built without importing qtoric.

A characteristic pair is a plain dict in the CLI's JSON format:
``{"name", "dim", "facets", "vertices", "lambda", "signs"}``.  The families
(cube, simplex/cp, polygon, hirzebruch, s2xs2), products, vertex cuts and
GL_n(Z) rebasings below are written from their definitions, so the program
under test never supplies its own inputs.

``workload_round(name, seed, rnd)`` returns the files and jobs of one round
of a workload.  The job mix of a workload is fixed; the seed only picks the
rebasing matrices, the cut vertices, the twists and the split subsets,
each drawn so that its cost does not depend much on the draw.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("spin-session", "cli-genus", "cli-combinatorics")


# ----------------------------------------------------------------------
# families


def _pair(name, dim, vertices, lam):
    m = len(lam)
    return {
        "name": name,
        "dim": dim,
        "facets": ["F%d" % i for i in range(m)],
        "vertices": sorted(sorted(v) for v in vertices),
        "lambda": [list(r) for r in lam],
        "signs": [1] * m,
    }


def _unit(n, j, s=1):
    return [s if i == j else 0 for i in range(n)]


def cube(n):
    """Product of n two-spheres: facets j and j+n are opposite, rows e_j, -e_j."""
    verts = [[j + n * b for j, b in enumerate(bits)]
             for bits in itertools.product((0, 1), repeat=n)]
    lam = [_unit(n, j) for j in range(n)] + [_unit(n, j, -1) for j in range(n)]
    return _pair("cube:%d" % n, n, verts, lam)


def cp(n):
    """CP^n over the n-simplex: rows e_1..e_n and -(1,..,1)."""
    verts = [[j for j in range(n + 1) if j != i] for i in range(n + 1)]
    lam = [_unit(n, j) for j in range(n)] + [[-1] * n]
    return _pair("cp:%d" % n, n, verts, lam)


def _square(name, lam):
    return _pair(name, 2, [[i, (i + 1) % 4] for i in range(4)], lam)


def hirzebruch(k):
    return _square("hirzebruch:%d" % k, [[1, 0], [0, 1], [-1, k], [0, -1]])


def s2xs2():
    return _square("s2xs2", [[1, 0], [0, 1], [-1, 0], [0, -1]])


def polygon(k):
    """Surface over a k-gon: rows alternate e_1, e_2; the last is (1,1) if k is odd."""
    lam = [[1, 0] if i % 2 == 0 else [0, 1] for i in range(k)]
    if k % 2:
        lam[-1] = [1, 1]
    return _pair("polygon:%d" % k, 2, [[i, (i + 1) % k] for i in range(k)], lam)


def product(a, b):
    """Product pair: facets of b shifted by m(a), lambda block diagonal."""
    ma, na, nb = len(a["lambda"]), a["dim"], b["dim"]
    verts = [va + [j + ma for j in vb] for va in a["vertices"] for vb in b["vertices"]]
    lam = ([r + [0] * nb for r in a["lambda"]]
           + [[0] * na + r for r in b["lambda"]])
    return _pair("%sx%s" % (a["name"], b["name"]), na + nb, verts, lam)


FAMILIES = {"cube": cube, "cp": cp, "polygon": polygon, "hirzebruch": hirzebruch}


def family(spec):
    """``cube:3``, ``cp:4``, ``s2xs2``, ... and products joined with ``*``."""
    out = None
    for part in spec.split("*"):
        if part == "s2xs2":
            p = s2xs2()
        else:
            fam, _, arg = part.partition(":")
            p = FAMILIES[fam](int(arg))
        out = p if out is None else product(out, p)
    out["name"] = spec
    return out


# ----------------------------------------------------------------------
# vertex cuts and rebasing


def vertex_cut(pair, rng):
    """Cut off a seeded vertex v: a new simplex facet F with lambda_F = sum_{i in v} lambda_i.

    The n new vertices are (v - {i}) + {F}, one on each edge leaving v, so
    the vertex count grows by n - 1 and every new block keeps det +-1.
    """
    verts = pair["vertices"]
    v = verts[rng.randrange(len(verts))]
    f = len(pair["lambda"])
    new = [sorted([j for j in v if j != i] + [f]) for i in v]
    n = pair["dim"]
    row = [sum(pair["lambda"][i][k] for i in v) for k in range(n)]
    return _pair(pair["name"], n, [w for w in verts if w != v] + new,
                 pair["lambda"] + [row])


def cut_blowup(spec, cuts, rng):
    pair = family(spec)
    for _ in range(cuts):
        pair = vertex_cut(pair, rng)
    pair["name"] = "%s+cut%d" % (spec, cuts)
    return pair


def rebasing_matrix(n, rng):
    """A seeded product of elementary matrices: unit lower times unit upper.

    Off-diagonal entries are drawn from {1, 2}, so every entry of the
    product is positive: the rebased lambda rows of cube and cp pairs have
    no zero entry, and every vertex block is dense whatever the seed.
    """
    low = [[1 if i == j else (rng.choice((1, 2)) if j < i else 0) for j in range(n)]
           for i in range(n)]
    up = [[1 if i == j else (rng.choice((1, 2)) if j > i else 0) for j in range(n)]
          for i in range(n)]
    return [[sum(low[i][k] * up[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def shear_matrix(n, rng):
    """A seeded unit bidiagonal shear (+-1 above the diagonal) with its columns
    permuted and signed: every draw has the same entry sizes, so it costs the
    same, and its inverse is dense with entries +-1."""
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    shear = [[1 if i == j else (rng.choice((1, -1)) if j == i + 1 else 0)
              for j in range(n)] for i in range(n)]
    return [[shear[i][perm[j]] * signs[j] for j in range(n)] for i in range(n)]


def rebase(pair, rng, dense=False):
    """The same manifold with lambda multiplied by a seeded matrix in GL_n(Z):
    ``rebasing_matrix`` when ``dense``, else ``shear_matrix``."""
    n = pair["dim"]
    a = (rebasing_matrix if dense else shear_matrix)(n, rng)
    out = dict(pair)
    out["lambda"] = [[sum(r[k] * a[k][j] for k in range(n)) for j in range(n)]
                     for r in pair["lambda"]]
    return out


# ----------------------------------------------------------------------
# facts the checks use


def vertex_count(spec, cuts=0):
    """Vertices of a family product after ``cuts`` vertex cuts, by formula."""
    count, dim = 1, 0
    for part in spec.split("*"):
        fam, _, arg = part.partition(":")
        if part == "s2xs2":
            count, dim = count * 4, dim + 2
        elif fam == "cube":
            count, dim = count * 2 ** int(arg), dim + int(arg)
        elif fam == "cp":
            count, dim = count * (int(arg) + 1), dim + int(arg)
        elif fam == "polygon":
            count, dim = count * int(arg), dim + 2
        else:
            count, dim = count * 4, dim + 2
    return count + cuts * (dim - 1)


def even_mod2(lam, vec):
    """Is sum_i vec_i u_i zero in H^2(M; Z/2), i.e. vec in the column span of lambda mod 2?"""
    rows = [[x & 1 for x in r] + [b & 1] for r, b in zip(lam, vec)]
    ncols = len(lam[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                rows[i] = [a ^ b for a, b in zip(rows[i], rows[r])]
        r += 1
    return all(any(row[:-1]) or not row[-1] for row in rows)


def is_spin(pair):
    return even_mod2(pair["lambda"], pair["signs"])


# ----------------------------------------------------------------------
# workloads

# spin-session: long-lived Spin models (p1 = 0, so admissibility pairs
# against every complementary monomial), each queried many times.
SPIN_MODELS = ("cube:4", "cube:5", "hirzebruch:2*cube:3", "s2xs2*polygon:6*cube:1",
               "cube:6")

# cli-genus: (spec, kind, q-order) on CP^n and small products.  Few vertices
# and p1 != 0, so series construction dominates.
GENUS_JOBS = (
    [("cp:%d" % n, "witten", q) for n, q in ((4, 6), (5, 5), (6, 4), (7, 4), (8, 3))]
    + [("cp:%d" % n, "elliptic", q) for n, q in ((4, 5), (5, 5), (6, 3), (7, 3), (9, 2))]
    + [("cp:%d" % n, "index", q) for n, q in ((4, 5), (5, 4), (6, 4), (7, 3))]
    + [("cp:3*cp:3", "witten", 4), ("cp:3*cp:3", "elliptic", 3),
       ("hirzebruch:1*cp:2", "witten", 4), ("hirzebruch:1*cp:2", "elliptic", 3)]
)

# cli-combinatorics: pair validation, colouring and sign search, no series.
# (spec, variant, commands): "rebased" blocks are dense, so the Laplace
# determinant costs n! per vertex; cube:9 has 512 vertices of sparse blocks.
COMB_FILES = (
    ("cube:8", "std", ("validate", "analyze", "symmetry-report")),
    ("cube:9", "std", ("validate", "analyze")),
    ("cube:6", "rebased", ("validate", "analyze", "symmetry-report")),
    ("cp:7", "rebased", ("validate", "analyze")),
    ("cp:8", "rebased", ("validate", "analyze")),
)
COMB_CUTS = (("cp:5", 50), ("cube:5", 60))


def _spin_round(rng):
    files, jobs = {}, []
    for spec in SPIN_MODELS:
        base = family(spec)
        twin = rebase(base, rng)
        m, n = len(base["lambda"]), base["dim"]
        # witten and phi run the full zero test on p1; elliptic and the
        # splits have p1(V + W - TM) = 0 as a polynomial and skip it
        queries = [{"kind": "witten", "q": 2}, {"kind": "elliptic", "q": 1}]
        # S = both members of each of n//2 seeded opposite pairs of roots
        # lambda_i = -lambda_j: the mod-2 hypotheses hold and phi_c must vanish
        opposite = [(i, j) for i in range(m) for j in range(i + 1, m)
                    if base["lambda"][i] == [-x for x in base["lambda"][j]]]
        for _ in range(2):
            chosen = rng.sample(opposite, n // 2)
            queries.append({"kind": "split", "q": 1,
                            "S": sorted(x for p in chosen for x in p)})
        # twists by the generators of seeded opposite pairs: p1(V + W - TM)
        # is a class the zero test must pair against every complement
        for _ in range(3):
            (a, b), (c, d) = rng.sample(opposite, 2)
            queries.append({"kind": "phi", "q": 1, "V": [_unit(m, a), _unit(m, b)],
                            "W": [_unit(m, c), _unit(m, d)]})
        queries.append({"kind": "symmetry"})
        first = len(jobs)
        for tag, pair in (("std", base), ("rebased", twin)):
            key = "%s.%s" % (spec, tag)
            files[key] = pair
            steps = [{"kind": "open"}, {"kind": "build"}] + queries
            for i, step in enumerate(steps):
                twin_of = first + i if tag == "rebased" else None
                jobs.append(dict(step, file=key, spec=spec, twin_of=twin_of))
    return files, jobs


def _cli_job(spec, key, argv, expect=0, **extra):
    job = {"kind": "cli", "spec": spec, "file": key, "argv": argv, "expect": expect}
    job.update(extra)
    return job


def _genus_round(rng):
    files, jobs = {}, []
    for spec, kind, q in GENUS_JOBS:
        base = family(spec)
        if kind == "index":
            # two facets with coefficients in {1, 2}: the class a*x with a in 2..4;
            # the twin reuses the twist, since the facets keep their classes
            vec = [0] * len(base["lambda"])
            for i in rng.sample(range(len(vec)), 2):
                vec[i] = rng.choice((1, 2))
            argv = ["index", "--V", "[[%s]]" % ",".join(map(str, vec))]
        else:
            argv = ["genus", "--kind", kind]
        argv += ["--q-order", str(q)]
        first = len(jobs)
        for tag, pair in (("std", base), ("rebased", rebase(base, rng))):
            key = "%s.%s" % (spec, tag)
            files[key] = pair
            expect = 3 if kind == "elliptic" and not is_spin(pair) else 0
            jobs.append(_cli_job(spec, key, argv, expect, q=q,
                                 twin_of=first if tag == "rebased" else None))
    # a pinch of the colouring and symmetry layers
    key = "hirzebruch:2*s2xs2.std"
    files[key] = family("hirzebruch:2*s2xs2")
    jobs.append(_cli_job("hirzebruch:2*s2xs2", key, ["symmetry-report"]))
    return files, jobs


def _comb_round(rng):
    files, jobs = {}, []
    entries = [(spec, tag, cmds, 0) for spec, tag, cmds in COMB_FILES]
    entries += [(spec, "cut", ("validate", "chi", "analyze", "symmetry-report"), cuts)
                for spec, cuts in COMB_CUTS]
    for spec, tag, cmds, cuts in entries:
        key = "%s.%s" % (spec, tag)
        if tag == "cut":
            files[key] = cut_blowup(spec, cuts, rng)
        else:
            files[key] = family(spec) if tag == "std" else rebase(family(spec), rng, dense=True)
        jobs.extend(_cli_job(spec, key, [cmd], cuts=cuts) for cmd in cmds)
    # a pinch of the series layers, so that every layer shows in the trace
    files["cp:2.std"] = family("cp:2")
    jobs.append(_cli_job("cp:2", "cp:2.std", ["genus", "--kind", "witten", "--q-order", "2"],
                         q=2))
    return files, jobs


_ROUNDS = {"spin-session": _spin_round, "cli-genus": _genus_round,
           "cli-combinatorics": _comb_round}


def workload_round(name, seed, rnd):
    """Files (key -> pair dict) and the ordered job list of one round."""
    rng = random.Random("%s/%d/%d" % (name, seed, rnd))
    files, jobs = _ROUNDS[name](rng)
    for i, job in enumerate(jobs):
        job["id"] = "r%d.j%d" % (rnd, i)
    return files, jobs
