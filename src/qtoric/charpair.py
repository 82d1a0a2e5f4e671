"""Characteristic pairs (P, lambda): the combinatorial model of a quasitoric manifold.

Each facet carries a primitive integer vector (its isotropy circle) and an
omniorientation sign; validity means the polytope is valid (so orientable)
and the lambda-block at every vertex is unimodular.  Validation finds the
dual covector bases and the orientation signs at the vertices in one walk
of the spanning tree of the edge graph that the polytope's validation
kept, a sparse rank-one update per tree edge, and caches them; they drive
the localization pairing downstream.
"""

from __future__ import annotations

from math import gcd
from operator import mul, sub

from .errors import StructureError
from .polytope import (
    SimplePolytope, ValidationCheck, ValidationReport,
    cube, int_vector, interval, polygon, simplex,
)

# the seed of the generic points at which an index model localizes
DEFAULT_SEED = 20250810


def _eliminate(rows):
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of an integer matrix.

    Returns (sign of the row swaps, last pivot d or 1 if none, reduced rows,
    pivot columns); each pivot column ends up as d times a unit vector, and
    a column without a pivot is skipped.  Every entry stays a minor of the
    input, so each division is exact.  The package's one elimination loop:
    _bareiss and _dual_basis run it on [A | I] and the face-ring oracle
    reads its kernel off it.
    """
    rows = [list(r) for r in rows]
    sign, prev, pivots = 1, 1, []
    for c in range(len(rows[0]) if rows else 0):
        k = len(pivots)
        piv = next((r for r in range(k, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        top = rows[k]
        p = top[c]
        for i in range(len(rows)):
            if i != k and (rows[i][c] or p != prev):  # else (p x - 0 y) / prev = x
                a = rows[i][c]
                rows[i] = [(p * x - a * y) // prev for x, y in zip(rows[i], top)]
        prev = p
        pivots.append(c)
    return sign, prev, rows, pivots


def _bareiss(rows):
    """Determinant and adjugate of a square integer matrix.

    _eliminate on [A | I] leaves [d I | d A^{-1}], d the determinant of the
    row-swapped matrix.  The adjugate is None when the determinant is 0.
    """
    n = len(rows)
    sign, d, reduced, pivots = _eliminate(
        [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)])
    if pivots != list(range(n)):
        return 0, None
    return sign * d, [[sign * x for x in row[n:]] for row in reduced]


def _dual_basis(block):
    """Rows w_k with <w_k, block[l]> = delta_kl (the inverse transpose of the
    block), or None when the block is not unimodular."""
    d, adj = _bareiss(block)
    if d not in (-1, 1):
        return None
    return tuple(tuple(d * row[k] for row in adj) for k in range(len(block)))


class CharacteristicPair:
    def __init__(self, polytope: SimplePolytope, lam, signs=None, name=None):
        if not isinstance(polytope, SimplePolytope):
            raise StructureError("polytope must be a SimplePolytope")
        if not isinstance(lam, (list, tuple)):
            raise StructureError("lambda must be a list of rows, got %r" % (lam,))
        lam = [int_vector(row, "lambda row %d" % i) for i, row in enumerate(lam)]
        if len(lam) != polytope.facet_count:
            raise StructureError(
                "lambda has %d rows for %d facets" % (len(lam), polytope.facet_count))
        if any(len(row) != polytope.dim for row in lam):
            raise StructureError("each lambda row must have length dim=%d" % polytope.dim)
        if signs is None:
            signs = [1] * polytope.facet_count
        signs = int_vector(signs, "signs")
        if len(signs) != polytope.facet_count or any(s not in (-1, 1) for s in signs):
            raise StructureError("signs must be a +-1 vector of length m")
        self.polytope = polytope
        self.lam = tuple(lam)
        self.signs = signs
        self.name = name or polytope.name
        self._report = None
        self._vertex_weights = None
        self._orientation_signs = None

    # ------------------------------------------------------------------

    @property
    def n(self):
        return self.polytope.dim

    @property
    def m(self):
        return self.polytope.facet_count

    def __repr__(self):
        return "CharacteristicPair(%s, n=%d, m=%d)" % (self.name or "?", self.n, self.m)

    def validate(self) -> ValidationReport:
        if self._report is not None:
            return self._report
        checks = []
        base = self.polytope.validate()
        checks.append(ValidationCheck(
            "polytope-valid", base.ok,
            "" if base.ok else "; ".join(c.name for c in base.failures())))

        bad = next((i for i, row in enumerate(self.lam) if gcd(*row) != 1), None)
        prim_ok = bad is None
        checks.append(ValidationCheck(
            "primitive-rows", prim_ok,
            "" if prim_ok else "lambda row %d = %r is not primitive" % (bad, self.lam[bad])))

        if base.ok:
            walk = self._dual_bases()
            if walk is None:
                # report the first bad block in stored order, whatever the walk met
                for v in self.polytope.vertices:
                    d = _bareiss([self.lam[i] for i in v])[0]
                    if d not in (-1, 1):
                        break
                checks.append(ValidationCheck(
                    "vertex-unimodular", False,
                    "vertex %r has det %d, expected +-1" % (v, d)))
            else:
                checks.append(ValidationCheck("vertex-unimodular", True))
                if prim_ok:
                    self._vertex_weights, self._orientation_signs = walk

        report = ValidationReport(checks)
        self._report = report
        return report

    def _dual_bases(self):
        """One pass over the polytope's spanning tree: the dual bases and the
        orientation signs.

        None if some block is not unimodular, else (the dual basis of every
        vertex as in vertex_weights, the orientation sign eps_v of every
        vertex).

        Only the first vertex's block is inverted.  Every other vertex b is
        reached once, by its edge (a, k, b, slot) of spanning_tree(), whose
        order gives a its basis first: a's k-th facet leaves and the facet
        in b's slot `slot` enters.  With w_out the k-th covector of a and
        c = <w_out, lambda_enter>, Cramer gives det(b) = +-c det(a), so b is
        unimodular exactly when c = +-1, and then its dual basis is a
        rank-one update: w'_enter = c w_out and w'_k = w_k - <w_k,
        lambda_enter> w'_enter.
        The tangent weights along the edge are w_out at a and w'_enter at
        b, so the orientation signs obey eps_b = -c eps_a, with eps = +1 at
        the base vertex.  eps_v = o_v det(lambda_v) / det(lambda_0), o the
        orientation of P that its validation found, so the rule holds on
        every edge, and any spanning tree gives the same signs.

        Each lambda row is read once for its nonzero (position, entry)
        pairs: with one entry x at j, <w, lambda_enter> is w_j x, else a
        C-level sum of products.  The bases, each aligned with its vertex's
        facets, are kept in a list by vertex; a w orthogonal to
        lambda_enter stays the same tuple.
        """
        verts = self.polytope.vertices
        lam = self.lam
        first = _dual_basis([lam[i] for i in verts[0]])
        if first is None:
            return None
        nonzero = [[(k, x) for k, x in enumerate(row) if x] for row in lam]
        bases = [None] * len(verts)
        bases[0] = first
        eps = [1] + [0] * (len(verts) - 1)
        for a, k, b, slot in self.polytope.spanning_tree():
            basis_a = bases[a]
            w_out = basis_a[k]
            enter = verts[b][slot]
            row = lam[enter]
            one = len(nonzero[enter]) == 1
            if one:
                ((j, x),) = nonzero[enter]
                c = w_out[j] * x
            else:
                c = sum(map(mul, w_out, row))
            if c == 1:
                w_enter = w_out
            elif c == -1:
                w_enter = tuple(-x for x in w_out)
            else:
                return None
            basis = [w if not (t := w[j] * x if one else sum(map(mul, w, row)))
                     else tuple(map(sub, w, [t * y for y in w_enter]))
                     for w in basis_a[:k] + basis_a[k + 1:]]
            basis.insert(slot, w_enter)
            bases[b] = basis
            eps[b] = -c * eps[a]
        return tuple(map(tuple, bases)), tuple(eps)

    def require_valid(self):
        self.validate().require("characteristic pair", self.name)
        return self

    @property
    def vertex_weights(self):
        """The dual basis at every vertex, read off the validation walk: per
        vertex v, n integer covectors aligned with polytope.vertices[v], with
        <vertex_weights[v][k], lambda[polytope.vertices[v][l]]> = delta_kl
        (the rows of the inverse transpose of v's lambda block)."""
        self.require_valid()
        return self._vertex_weights

    @property
    def orientation_signs(self):
        """The sign eps_v of every vertex (+1 at the base vertex), read off
        the validation walk; it orients the localization sums."""
        self.require_valid()
        return self._orientation_signs

    def euler_characteristic(self) -> int:
        """chi(M) = number of torus fixed points = number of vertices of P."""
        self.require_valid()
        return len(self.polytope.vertices)

    # ------------------------------------------------------------------

    def product_pair(self, other: "CharacteristicPair") -> "CharacteristicPair":
        """Block-diagonal pair on the product polytope."""
        self.require_valid()
        other.require_valid()
        poly = self.polytope.product(other.polytope)
        n1, n2 = self.n, other.n
        lam = [row + (0,) * n2 for row in self.lam]
        lam += [(0,) * n1 + row for row in other.lam]
        return CharacteristicPair(poly, lam, self.signs + other.signs,
                                  name=poly.name)

    def with_signs(self, signs) -> "CharacteristicPair":
        return CharacteristicPair(self.polytope, self.lam, signs, name=self.name)

    def to_index_model(self, seed=DEFAULT_SEED):
        from .cohomology import QuasitoricModel
        return QuasitoricModel(self, seed=seed)

    # ------------------------------------------------------------------
    # JSON

    def to_json_dict(self):
        data = self.polytope.to_json_dict()
        data["name"] = self.name or data["name"]
        data["lambda"] = [list(r) for r in self.lam]
        data["signs"] = list(self.signs)
        return data

    @classmethod
    def from_json_dict(cls, data):
        poly = SimplePolytope.from_json_dict(data)
        if "lambda" not in data:
            raise StructureError("pair JSON needs a 'lambda' matrix")
        return cls(poly, data["lambda"], data.get("signs"),
                   name=data.get("name") or None)


# ----------------------------------------------------------------------
# built-in families


def cp_pair(n: int) -> CharacteristicPair:
    """Complex projective n-space: simplex with rows e_1..e_n, -(1,..,1)."""
    poly = simplex(n)
    lam = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    lam.append(tuple(-1 for _ in range(n)))
    return CharacteristicPair(poly, lam, name="cp:%d" % n)


def sphere_pair() -> CharacteristicPair:
    """S^2 = CP^1 with the standard pair over the interval."""
    return CharacteristicPair(interval(), [(1,), (-1,)], name="s2")


def cube_pair(n: int) -> CharacteristicPair:
    """Product of n standard 2-spheres over the n-cube: rows e_j and -e_j."""
    poly = cube(n)
    lam = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    lam += [tuple(-1 if i == j else 0 for i in range(n)) for j in range(n)]
    return CharacteristicPair(poly, lam, name="cube:%d" % n)


def s2xs2_pair() -> CharacteristicPair:
    """S^2 x S^2 on the cyclically labeled square (opposite facets 0,2 and 1,3)."""
    lam = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    return CharacteristicPair(polygon(4), lam, name="s2xs2")


def hirzebruch_pair(k: int) -> CharacteristicPair:
    """Hirzebruch surface H_k over the square."""
    lam = [(1, 0), (0, 1), (-1, k), (0, -1)]
    return CharacteristicPair(polygon(4), lam, name="hirzebruch:%d" % k)


def polygon_pair(k: int) -> CharacteristicPair:
    """Quasitoric surface over a k-gon: alternating e_1, e_2 rows, last (1,1) if k odd."""
    poly = polygon(k)
    lam = []
    for i in range(k):
        if k % 2 == 1 and i == k - 1:
            lam.append((1, 1))
        else:
            lam.append((1, 0) if i % 2 == 0 else (0, 1))
    return CharacteristicPair(poly, lam, name="polygon:%d" % k)
