"""The face-ring reduction oracle: a second route to the top pairing of a
quasitoric model, independent of the fixed-point engine in cohomology.

It uses only the linear relations, the face ideal and the base-vertex
normalization: the degree-n part of Q[u_free] modulo the minimal non-faces
(after eliminating the base vertex's generators) is one-dimensional, and its
functional is scaled so that the base vertex monomial pairs to the product
of its signs.  The tests compare it with the engine at small half-dimension;
QuasitoricModel.ring_reduction_pairing builds it on first use, so nothing
else in the package imports this module.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .charpair import _dual_basis, _eliminate
from .cohomology import _ZERO
from .errors import InternalConsistencyError, OracleUnavailableError
from .polynomial import GradedPolynomial, monomials_of_degree

MAX_N = 3
MAX_FREE = 8


def _integer_rows(rows):
    """Each row times the lcm of its denominators (same rank and kernel)."""
    out = []
    for row in rows:
        scale = math.lcm(*(x.denominator for x in row))
        out.append([int(x * scale) for x in row])
    return out


def _minimal_nonfaces(model, max_size):
    verts = [set(v) for v in model.polytope.vertices]
    m = model.pair.m

    def is_face(S):
        return any(S <= v for v in verts)

    minimal = []
    for size in range(2, max_size + 1):
        for S in itertools.combinations(range(m), size):
            Sset = set(S)
            if is_face(Sset):
                continue
            if all(is_face(Sset - {i}) for i in S):
                minimal.append(S)
    return minimal


def build(model):
    """(mapping, phi, to_vector) for a QuasitoricModel: the substitution of
    the eliminated generators, the top-degree functional and the coordinate
    map of the free monomials of degree n."""
    n, m = model.n, model.pair.m
    if n > MAX_N or m - n > MAX_FREE:
        raise OracleUnavailableError(
            "face-ring oracle unavailable for n=%d, m=%d (budget n<=%d)" % (n, m, MAX_N))
    base = model.polytope.vertices[0]
    free = [i for i in range(m) if i not in base]
    free_index = {i: r for r, i in enumerate(free)}
    signs = model.pair.signs
    lamt = [tuple(signs[i] * x for x in model.pair.lam[i]) for i in range(m)]
    inv_t = _dual_basis([lamt[i] for i in base])  # (A^{-1})^T rows
    # u_elim = -(A^T)^{-1} B^T u_free; (A^T)^{-1} = (A^{-1})^T
    mapping = {}
    for k, i in enumerate(base):
        coeffs = {}
        for r, j in enumerate(free):
            c = -sum(inv_t[k][s] * lamt[j][s] for s in range(n))
            if c:
                coeffs[r] = c
        mapping[i] = GradedPolynomial.linear(coeffs)
    for i in free:
        mapping[i] = GradedPolynomial.generator(free_index[i])

    basis = list(monomials_of_degree(len(free), n))
    basis_index = {mon: j for j, mon in enumerate(basis)}

    def to_vector(poly):
        vec = [_ZERO] * len(basis)
        for mon, c in poly.terms.items():
            if len(mon) != n:
                raise InternalConsistencyError("substitution changed the degree")
            vec[basis_index[mon]] = c
        return vec

    span = []
    for S in _minimal_nonfaces(model, n):
        g = GradedPolynomial({tuple(sorted(S)): Fraction(1)})
        g_sub = g.substitute(mapping)
        for h in monomials_of_degree(len(free), n - len(S)):
            vec = to_vector(g_sub.mul(GradedPolynomial({h: Fraction(1)})))
            if any(vec):
                span.append(vec)
    _, d, reduced, pivots = _eliminate(_integer_rows(span))
    kernel = [c for c in range(len(basis)) if c not in pivots]
    if len(kernel) != 1:
        raise InternalConsistencyError(
            "face-ring top degree is %d-dimensional, expected 1" % len(kernel))
    (f,) = kernel  # row r reads d x[pivots[r]] + reduced[r][f] x[f] = 0
    phi = [0] * len(basis)
    phi[f] = d
    for row, c in zip(reduced, pivots):
        phi[c] = -row[f]
    ref = GradedPolynomial({tuple(base): Fraction(1)}).substitute(mapping)
    val = sum(a * b for a, b in zip(phi, to_vector(ref)))
    if val == 0:
        raise InternalConsistencyError("reference vertex monomial pairs to 0")
    target = Fraction(1)
    for i in base:
        target *= signs[i]
    scale = target / val
    phi = [x * scale for x in phi]
    return mapping, phi, to_vector
