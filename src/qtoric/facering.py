"""The face ring, one presentation per degree: p1 = 0 in degree 4, and the
top-pairing oracle in degree 2n.

H*(M; Q) = Q[u_1..u_m] / (I_K + J) for a quasitoric model
(Davis-Januszkiewicz 1991; Buchstaber-Panov, Toric Topology, ch. 3): J holds
the linear relations sum_i lambda_ij signs_i u_i = 0, I_K the monomials of
the facet sets that share no vertex.  Substituting a base vertex's n
generators through the dual basis that validation keeps there,
u_b = -s_b sum_j s_j <w_b, lambda_j> u_j over the free facets j
(_substitution), leaves the m - n free generators as coordinates of H^2.
So H^2k is Sym^k(H^2) modulo the images of u_S h, S a minimal non-face of
at most k facets and h a free monomial of degree k - |S| (_quasitoric),
whose dimension is certified: h_2 for k = 2, 1 for k = n.

A presentation is one pivot table (_quasitoric): each coordinate monomial
that a relation solves for maps to its row off the pivots, every row at the
one scale d of a fraction-free echelon form (Bareiss 1968).

IndexModel._degree4_zero (behind check_admissible and, through
_ring_first, nonzero_face and is_zero_class) imports this module at
n >= 3 to decide a class's degree-4 part at two base vertices
(degree4_zero); products and connected sums of n >= 3 join their parts'
tables there.  The top-pairing oracle
(top_pairing, QuasitoricModel.ring_reduction_pairing) reduces in H^2n at
the same vertices.  One _presentations(model, k), kept per model and k,
builds every degree under one PRICE; past it the engine decides alone.
"""

from __future__ import annotations

import collections
import itertools
import math
from fractions import Fraction
from operator import mul

from .charpair import _eliminate
from .cohomology import _ZERO, PointModel, QuasitoricModel
from .errors import InternalConsistencyError, OracleUnavailableError
from .index import ConnectedSumModel, ProductModel
from .polytope import _faces

# The most work a quasitoric presentation of H^2k takes on, at either base
# vertex: the coordinates of Sym^k(H^2), C(f + k - 1, k) for the f = m - n free
# generators, times the relations u_S h that touch the vertex, for each minimal
# non-face S that does C(f + k - |S| - 1, k - |S|) (_presentations).  In degree 4
# cube:12 costs 936 (16 ms against 65 ms for the engine's zero test, p1 = 0),
# cube:14 1470, cube:5 with 5 vertex cuts 1155 (0.6 ms against 0.5 ms, where
# p1 != 0 and the engine stops at its first face) and with 10 cuts 4680 (2.0
# against 0.7 ms); with 60 cuts, 6.4e5, the elimination alone takes 2.8 s.  In
# the top degree cube:4 costs 1400, cube:5 22050 and cp:n 0.
PRICE = 2000

_EMPTY = (0, (), 1, {})  # the point model's presentation: no coordinate at all


def _substitution(model, vertex):
    """(free, images) of a quasitoric model at polytope.vertices[vertex]: the
    facets off the vertex in order, and per generator its image in H^2 as
    (free position, integer coefficient) pairs."""
    pair = model.pair
    base = model.polytope.vertices[vertex]
    free = [i for i in range(pair.m) if i not in base]
    signs, lam = pair.signs, pair.lam
    images = [None] * pair.m
    for r, j in enumerate(free):
        images[j] = ((r, 1),)
    for b, w in zip(base, pair.vertex_weights[vertex]):
        images[b] = tuple([(r, c) for r, j in enumerate(free)
                           if (c := -signs[b] * signs[j] * sum(map(mul, w, lam[j])))])
    return free, images


def _image(images, terms):
    """The form {monomial of k generators: coefficient} in Sym^k(H^2), given
    the generators' images in H^2, as {sorted tuple of coordinates: coefficient}."""
    out = {}
    for mon, c in terms.items():
        if len(mon) == 2:  # the pair loop of degree 4
            i, j = mon
            b = images[j]
            for r, x in images[i]:
                cx = c * x
                for s, y in b:
                    key = (r, s) if r <= s else (s, r)
                    out[key] = out.get(key, 0) + cx * y
        else:
            for factors in itertools.product(*[images[i] for i in mon]):
                key = tuple(sorted([r for r, _ in factors]))
                out[key] = out.get(key, 0) + c * math.prod([x for _, x in factors])
    return out


def _quasitoric(model, nonfaces, vertex, k):
    """A quasitoric model's presentation of H^2k at a base vertex, given its
    minimal non-faces of at most k facets: (coordinates of H^2, generator
    images, d, pivots).  pivots maps each coordinate monomial of Sym^k that a
    relation solves for to its row off the pivots, at the one scale d, the
    echelon form's pivot value: a relation left with a single coordinate,
    shortest first, kills it (an empty row), and the rest are eliminated.
    A monomial that is no pivot is free in H^2k."""
    free, images = _substitution(model, vertex)
    fill = {s: list(itertools.combinations_with_replacement(free, k - s)) for s in range(2, k + 1)}
    forms = sorted([_image(images, {S + h: 1}) for S in nonfaces for h in fill[len(S)]], key=len)
    pivots, rows = {}, []
    for form in forms:
        if len(form) > 1:  # else a product of single coordinates: nonzero
            form = {key: c for key, c in form.items() if c and key not in pivots}
        if len(form) == 1:
            pivots[next(iter(form))] = ()
        elif form:
            rows.append(form)
    columns = sorted(set().union(*rows).difference(pivots))
    _, d, reduced, solved = _eliminate([[form.get(key, 0) for key in columns] for form in rows])
    on = set(solved)
    pivots.update({columns[p]: tuple([(columns[c], x) for c, x in enumerate(row)
                                      if x and c not in on])
                   for row, p in zip(reduced, solved)})
    if k == 2 and len(pivots) != len(nonfaces):
        raise InternalConsistencyError(
            "degree 4 of the face ring of %s: %d independent relations for %d pairs of "
            "facets that do not meet" % (model.name, len(pivots), len(nonfaces)))
    dim = math.comb(len(free) + k - 1, k) - len(pivots)
    if k == model.n and dim != 1:
        raise InternalConsistencyError(
            "face-ring top degree of %s is %d-dimensional, expected 1" % (model.name, dim))
    return len(free), tuple(images), d, pivots


def _side_by_side(left, right, kill_mixed):
    """The presentation over the left generators, then the right ones,
    whose coordinates are numbered after the left's, at the scale d_L d_R:
    each side's rows are scaled by the other side's d.  A product's mixed
    products span H^2 (x) H^2 (kill_mixed False); a connected sum's of
    n >= 3 are zero, and get empty rows."""
    by, images, d, pivots = left
    count, right_images, e, right_pivots = right

    def key(k):
        return k[0] + by, k[1] + by
    table = {p: tuple([(c, e * x) for c, x in row]) for p, row in pivots.items()}
    table.update({key(p): tuple([(key(c), d * x) for c, x in row])
                  for p, row in right_pivots.items()})
    if kill_mixed:
        table.update(dict.fromkeys(itertools.product(range(by), range(by, by + count)), ()))
    images += tuple([tuple([(r + by, c) for r, c in image]) for image in right_images])
    return by + count, images, d * e, table


def _minimal_nonfaces(model, k):
    """The minimal non-faces of at most k facets, read off the faces: the
    facet pairs that share no vertex (polytope.facet_pairs), then by size s
    each face of s - 1 facets with one facet past its last added, when that
    is no face while its other (s - 1)-subsets are."""
    m, faces = model.pair.m, model.polytope.facet_pairs()
    found = [p for p in itertools.combinations(range(m), 2) if p not in faces] if k > 1 else []
    for s in range(3, k + 1):
        below, faces = faces, set(_faces(model.polytope.vertices, s))
        found += [S for F in sorted(below) for j in range(F[-1] + 1, m)
                  if (S := F + (j,)) not in faces
                  and all(T in below for T in itertools.combinations(S, s - 1))]
    return found


def _presentations(model, k=2):
    """The model's presentations of H^2k at its two base vertices, built on
    the first call per k and kept in one dict on the model, or None: past
    PRICE, for a connected sum of n = 2, whose H^4 is its top degree, for a
    product or connected sum at k != 2, and for a model or part of no known
    kind.  A quasitoric model's pairs are priced first, off the facet
    pairs' degree counts, so that a refusal there lists no non-face."""
    kept = vars(model).setdefault("_face_ring", {})
    if k in kept:
        return kept[k]
    found = None
    if isinstance(model, QuasitoricModel):
        ends, m = (model.polytope.vertices[0], model.polytope.vertices[-1]), model.pair.m
        f = m - model.n

        def price(s):  # of the relations u_S h of one non-face S of s facets
            return math.comb(f + k - s - 1, k - s) * math.comb(f + k - 1, k) if s <= k else 0
        degree = collections.Counter(itertools.chain.from_iterable(model.polytope.facet_pairs()))
        pairs = [sum(m - 1 - degree[b] for b in base) * price(2) for base in ends]
        if max(pairs) <= PRICE:
            nonfaces = _minimal_nonfaces(model, k)
            if all(p + sum(price(len(S)) for S in nonfaces if len(S) > 2 and set(base) & set(S))
                   <= PRICE for p, base in zip(pairs, ends)):
                found = tuple(_quasitoric(model, nonfaces, v, k) for v in (0, -1))
    elif isinstance(model, PointModel):
        found = (_EMPTY, _EMPTY)
    elif k == 2 and (isinstance(model, ProductModel)
                     or (isinstance(model, ConnectedSumModel) and model.n >= 3)):
        left, right = _presentations(model.left), _presentations(model.right)
        if left is not None and right is not None:
            kill = isinstance(model, ConnectedSumModel)
            found = tuple(_side_by_side(a, b, kill) for a, b in zip(left, right))
    kept[k] = found
    return found


def _remainder(presentation, terms):
    """The exact form {monomial of generators: coefficient} reduced off the
    relations in one pass, d x - sum_p x_p row_p off the pivots, as
    {coordinate monomial: value} without zeros: empty iff the form is zero."""
    _, images, d, pivots = presentation
    rest = {}
    for key, v in _image(images, terms).items():
        row = pivots.get(key)
        if row is None:
            rest[key] = rest.get(key, 0) + d * v
        else:
            for c, y in row:
                rest[c] = rest.get(c, 0) - v * y
    return {key: v for key, v in rest.items() if v}


def degree4_zero(model, terms):
    """Whether the exact quadratic form {(i, j): coefficient}, i <= j,
    vanishes in H^4(M; Q), decided at the model's two base vertices, which
    must agree; None when the model keeps no presentation (_presentations)."""
    found = _presentations(model)
    if found is None:
        return None
    first, second = (not _remainder(p, terms) for p in found)
    if first != second:
        raise InternalConsistencyError(
            "degree 4 of the face ring of %s: the quadratic form %r is %szero at the "
            "first base vertex and %szero at the second"
            % (model.name, terms, "" if first else "non", "" if second else "non"))
    return first


def _top_degree(model):
    """Per base vertex v, its presentation of the top degree and <u_v, [M]>
    over the remainder of u_v there, <u_v, [M]> = eps_v prod over i in v of
    signs_i; built on the first call and kept on the model, or None past
    PRICE."""
    kept = vars(model)
    if "_top_degree" not in kept:
        found = _presentations(model, model.n)
        if found is not None:
            scaled = []
            for presentation, v in zip(found, (0, -1)):
                base = model.polytope.vertices[v]
                ref = sum(_remainder(presentation, {base: 1}).values())
                if not ref:
                    raise InternalConsistencyError("the vertex monomial u_%r pairs to 0" % (base,))
                sign = math.prod(model.pair.signs[i] for i in base)
                scaled.append((presentation, Fraction(model.pair.orientation_signs[v] * sign, ref)))
            found = tuple(scaled)
        kept["_top_degree"] = found
    return kept["_top_degree"]


def top_pairing(model, mon) -> Fraction:
    """<u_mon, [M]> for a quasitoric model: at each base vertex v, the
    remainder of u_mon in the top degree, one-dimensional, times the scale
    _top_degree keeps there.  The two base vertices must agree; past PRICE
    it raises OracleUnavailableError."""
    if len(mon) != model.n:
        return _ZERO
    found = _top_degree(model)
    if found is None:
        raise OracleUnavailableError("the top degree of the face ring of %s is priced past "
                                     "PRICE = %d" % (model.name, PRICE))
    first, second = (scale * sum(_remainder(presentation, {tuple(mon): 1}).values())
                     for presentation, scale in found)
    if first != second:
        raise InternalConsistencyError(
            "top degree of the face ring of %s: u_%r pairs to %s at the first base vertex and "
            "%s at the second" % (model.name, tuple(mon), first, second))
    return first
