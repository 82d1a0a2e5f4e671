"""Combinatorial simple polytopes from vertex-facet incidence data.

A polytope is given purely combinatorially: the facets are indexed
0..m-1 and each vertex is the set of the n facets through it.  Convex
realizability is never checked; validation covers the necessary
combinatorial conditions (simplicity, edge regularity, connectivity,
facet coverage, polygonal two-faces, orientability and, for n = 3, Euler's
relation m = V/2 + 2).  Validation pairs the ridges in one pass into one
flat list (_steps), which only this module reads and no polytope keeps.  A
valid polytope keeps each two-face's number of vertices and, from the
connectivity walk, whether the edge graph is bipartite, the orientation of
P and the spanning tree the walk followed, which the characteristic pair
follows for its dual bases.  The ridge pairing, the sorted edge graph and
the two-face cycles, sorted by facet complement, are paired afresh on
request.  The distinct facet pairs that share a vertex (facet_pairs) are
built once, for the facet graph and every colouring check.  The faces
(_faces), which the f- and h-vectors count, are read off the same data.
Edge regularity already gives each vertex n distinct neighbours (so
V * n / 2 edges) and each vertex of a two-face exactly two
neighbours in it, so 2-regularity needs no test of its own: a two-face
can only fail by falling apart into several cycles, each of at least 3
vertices, so only a face of 6 or more vertices is traced.  A traced face
starts at its lowest vertex, the lowest bit of the AND of its facets'
vertex masks, built only for the facets that the traced faces name; so the
two-face work grows with the faces traced or listed, and validating a cube
or a polygon builds no mask.  The list of two-face sizes is sorted by
facet complement only when the sizes differ.
"""

from __future__ import annotations

import collections
import itertools
import math
from operator import itemgetter

from .errors import (
    BudgetExceededError,
    InternalConsistencyError,
    StructureError,
    ValidationError,
)


# The most work validation takes on (_check_validation_work): per vertex, the
# n * C(n, 2) tuple entries of its n ridges (n - 1 facets each) and its C(n, 2)
# two-face keys (n - 2 each), plus 128 for its own tuple, its n codes of the flat
# ridge pairing and its edge of the kept spanning tree.  cube:14 needs 2.3e7
# (`generate` 0.9 s, 117 MB on a 2 vCPU Xeon, Python 3.11.7) and cube:15 5.6e7
# (2.5 s, 226 MB); cube:16 needs 1.3e8, the 160-simplex 3.3e8 and polygon:1000000
# 1.3e8 (`validate` 7 s, 971 MB, measured while the ridge pairing was kept).
VALIDATION_BUDGET = 6 * 10 ** 7


class ValidationCheck:
    def __init__(self, name: str, passed: bool, detail: str = ""):
        self.name = name
        self.passed = passed
        self.detail = detail


class ValidationReport:
    def __init__(self, checks: list = None):
        self.checks = [] if checks is None else checks

    @property
    def ok(self) -> bool:
        """Every check passed."""
        return all(c.passed for c in self.checks)

    def as_dict(self):
        return {
            "ok": self.ok,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def require(self, what, name):
        """Raise ValidationError naming the invalid `what` and each failed check."""
        if not self.ok:
            raise ValidationError("invalid %s %s: %s" % (
                what, name or "?",
                "; ".join("%s: %s" % (c.name, c.detail) for c in self.failures())), self)


class FacetColoring:
    """Proper coloring of the facet adjacency graph, colors in 1..color_count."""

    def __init__(self, colors: dict, color_count: int):
        self.colors = colors
        self.color_count = color_count

    def color_classes(self):
        classes = {}
        for facet, col in sorted(self.colors.items()):
            classes.setdefault(col, []).append(facet)
        return [classes[c] for c in sorted(classes)]

    def as_dict(self):
        return {
            "color_count": self.color_count,
            "colors": {str(k): v for k, v in sorted(self.colors.items())},
        }


_INT = frozenset((int,))


def int_vector(values, what):
    """The entries of a list as a tuple of ints.  Anything else (a float, a
    bool or another int subclass, a string, a scalar in place of the list)
    is a StructureError, so input is never silently truncated."""
    if not isinstance(values, (list, tuple)) or not _INT.issuperset(map(type, values)):
        raise StructureError("%s must be a list of integers, got %r" % (what, values))
    return tuple(values)


def _vertex_sets(vertices):
    """The vertices as sorted tuples of facet indices.  The checks run over
    all vertices at once; if one fails, a per-vertex pass raises for the
    first vertex that fails any check, naming that check."""
    if (all(map(isinstance, vertices, itertools.repeat((list, tuple))))
            and _INT.issuperset(map(type, itertools.chain.from_iterable(vertices)))):
        vertex_sets = list(map(tuple, map(sorted, vertices)))
        if (sum(map(len, map(set, vertex_sets))) == sum(map(len, vertex_sets))
                and min(map(itemgetter(0), filter(None, vertex_sets)), default=0) >= 0):
            return vertex_sets
    vertex_sets = []
    for pos, v in enumerate(vertices):
        v = tuple(sorted(int_vector(v, "vertex %d" % pos)))
        if len(set(v)) != len(v):
            raise StructureError("vertex %d repeats a facet index: %r" % (pos, v))
        if v and v[0] < 0:
            raise StructureError("vertex %d has a bad facet index %r" % (pos, v[0]))
        vertex_sets.append(v)
    return vertex_sets


class SimplePolytope:
    """Simple n-polytope given by its vertex-facet incidences."""

    def __init__(self, dim, vertices, facet_count=None, facet_names=None, name=None):
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
            raise StructureError("dim must be an integer >= 1, got %r" % (dim,))
        if not isinstance(vertices, (list, tuple)):
            raise StructureError("vertices must be a list, got %r" % (vertices,))
        vertex_sets = _vertex_sets(vertices)
        if not vertex_sets:
            raise StructureError("polytope needs at least one vertex")
        if len(set(vertex_sets)) != len(vertex_sets):
            counts = collections.Counter(vertex_sets)
            dup = next(v for v in vertex_sets if counts[v] > 1)
            raise StructureError("duplicate vertex %r" % (dup,))
        max_idx = max(map(itemgetter(-1), filter(None, vertex_sets)), default=-1)
        incidences = sum(map(len, vertex_sets))
        # both refusals come before any facet name is built
        if facet_count is None:
            facet_count = max_idx + 1
            if facet_count > incidences:
                raise StructureError(
                    "facet index %d implies %d facets, more than the %d facet incidences "
                    "of the vertices can cover" % (max_idx, facet_count, incidences))
        elif facet_count > 2 * incidences:
            # more facets than incidences would be unused, each listed by facet-coverage
            raise StructureError(
                "facet_count %d leaves at least %d facets unused, more than the %d facet "
                "incidences of the vertices" % (facet_count, facet_count - incidences, incidences))
        if max_idx >= facet_count:
            raise StructureError(
                "facet index %d out of range (facet_count=%d)" % (max_idx, facet_count)
            )
        self.dim = dim
        self.facet_count = facet_count
        self.vertices = tuple(sorted(vertex_sets))
        self.name = name
        if facet_names is None:
            facet_names = ["F%d" % i for i in range(facet_count)]
        if len(facet_names) != facet_count:
            raise StructureError("facet_names length must equal facet_count")
        for s in facet_names:
            if not isinstance(s, str):
                raise StructureError("facet name %r is not a string" % (s,))
        self.facet_names = list(facet_names)
        self._report = None
        self._tree = None  # validation's spanning tree of the edge graph (spanning_tree)
        self._sizes = None  # facet complement -> number of vertices of each two-face
        self._bipartite = None  # whether validation's walk two-coloured the edge graph
        self._orientation = None  # the orientation o_v that validation's walk found
        self._pairs = None  # facet_pairs, once asked for

    # ------------------------------------------------------------------

    @property
    def n(self):
        return self.dim

    @property
    def m(self):
        return self.facet_count

    def __repr__(self):
        return "SimplePolytope(%s, dim=%d, m=%d, vertices=%d)" % (
            self.name or "?", self.dim, self.facet_count, len(self.vertices))

    # ------------------------------------------------------------------
    # validation

    def validate(self) -> ValidationReport:
        """Check simplicity, edge regularity (each ridge lies in exactly two
        vertices), connectivity, facet coverage and that each two-face is a
        single cycle; if all pass, keep the two-face sizes, whether the
        connectivity walk two-coloured the edge graph and the spanning tree
        it followed (spanning_tree), but not the flat ridge pairing of
        _steps that the walk and the traces read.  Edge regularity implies
        that every two-face is a union of simple cycles of length >= 3 (see
        `_count_two_faces`), so only the faces of 6 or more vertices are
        traced.  Work past VALIDATION_BUDGET raises BudgetExceededError.

        The walk also orients P (see orientation).  Only when all of the
        above pass come `orientable`, failed on a clash of orientations,
        and for n = 3 `euler-characteristic`, failed unless m = V/2 + 2
        (Euler's relation when E = 3V/2); each is listed only when it fails.
        With them a valid 3-polytope's boundary is a 2-sphere (Steinitz)."""
        if self._report is not None:
            return self._report
        checks = []
        n = self.dim

        bad = next((v for v in self.vertices if len(v) != n), None)
        simple = bad is None
        checks.append(ValidationCheck(
            "simplicity", simple,
            "" if simple else "vertex %r has %d facets, expected %d" % (bad, len(bad), n)))

        partner = None
        if simple:
            _check_validation_work(len(self.vertices), n)
            partner, bad = _steps(self.vertices, n)
            if partner is not None:
                checks.append(ValidationCheck("edge-regularity", True))
            else:
                checks.append(ValidationCheck(
                    "edge-regularity", False,
                    "facet set %r lies in %d vertices, expected 2" % bad))

        connected = bipartite = orientable = False
        tree = []
        if partner is not None:
            # from vertex 0, two-colour the edge graph, orient P (orientation)
            # and keep the edges that reach each vertex first (spanning_tree)
            side, orient = [0] * len(self.vertices), [0] * len(self.vertices)  # +-1 when reached
            side[0] = orient[0] = 1
            stack = [0]
            bipartite = orientable = True
            while stack:
                a = stack.pop()
                s = side[a]
                sign = orient[a]  # -(-1)^k o_a at the k-th slot, once flipped
                for k, p in enumerate(partner[a * n:a * n + n]):
                    b = p // n  # a's k-th facet leaves, b's j-th enters
                    j = p - b * n
                    sign = -sign
                    o = -sign if j & 1 else sign
                    if not side[b]:
                        side[b], orient[b] = -s, o
                        tree.append((a, k, b, j))
                        stack.append(b)
                    else:
                        if side[b] == s:
                            bipartite = False
                        if orient[b] != o:
                            orientable = False
            connected = 0 not in side
        checks.append(ValidationCheck(
            "edge-graph-connected", connected,
            "" if connected else "edge graph is disconnected or undefined"))

        used = set()
        for v in self.vertices:
            used.update(v)
        coverage = used == set(range(self.facet_count))
        checks.append(ValidationCheck(
            "facet-coverage", coverage,
            "" if coverage else "unused facets %r" % sorted(set(range(self.facet_count)) - used)))

        sizes = None
        if connected:
            try:
                sizes = self._count_two_faces(partner)
                checks.append(ValidationCheck("two-faces-polygonal", True))
            except ValidationError as exc:
                checks.append(ValidationCheck("two-faces-polygonal", False, str(exc)))

        if all(c.passed for c in checks):
            # listed only on failure, so a valid polytope's report keeps five checks
            if not orientable:
                checks.append(ValidationCheck(
                    "orientable", False, "the orientations carried along the edges clash"))
            if n == 3 and 2 * self.facet_count != len(self.vertices) + 4:
                checks.append(ValidationCheck(
                    "euler-characteristic", False,
                    "%d facets and %d vertices, where a 2-sphere has m = V/2 + 2"
                    % (self.facet_count, len(self.vertices))))
        report = ValidationReport(checks)
        if report.ok:
            self._tree = tuple(tree)
            self._sizes = sizes
            self._bipartite = bipartite
            self._orientation = tuple(orient)
        self._report = report
        return report

    def _count_two_faces(self, partner):
        """{facet complement: number of vertices} for the two-faces, counted
        at C level.  At a vertex of a two-face, its two free facets (those
        outside the complement) name its two edges in the face, whose ends
        edge regularity makes distinct; so each face is a disjoint union of
        simple cycles of length >= 3, and one of at most 5 vertices is a
        single cycle.  Only when the largest count reaches 6 are the larger
        faces picked out and traced (never on a cube or a simplex); the
        least whose cycle is shorter than its count raises ValidationError."""
        n = self.dim
        if n < 2:
            return {}
        sizes = collections.Counter(itertools.chain.from_iterable(
            map(itertools.combinations, self.vertices, itertools.repeat(n - 2))))
        if max(sizes.values()) >= 6:
            large = sorted(sub for sub, size in sizes.items() if size >= 6)
            for sub, cycle in self._trace_two_faces(large, partner):
                if len(cycle) != sizes[sub]:
                    raise ValidationError("two-face %r is not a single cycle" % (sub,))
        return sizes

    def _trace_two_faces(self, subs, partner):
        """Yield (sub, cycle) for each facet complement in the list subs: the
        face's cycle from its lowest vertex towards the lower of that
        vertex's two neighbours in it, leaving each vertex by the free facet
        it did not enter.  partner is the flat ridge pairing of _steps.

        The lowest vertex is the lowest set bit of the AND of the vertex
        masks of sub's facets (_containing).  The masks are built in one
        pass over the vertices, and only for the facets that subs name: each
        is written as binary digits, highest vertex first, and read by
        int(..., 2), so an incidence costs the same at any vertex count.
        For n = 2 the one face has the empty complement, so no mask is built
        and the walk starts at vertex 0."""
        verts = self.vertices
        rows = {f: bytearray(b"0") * len(verts) for f in set(itertools.chain.from_iterable(subs))}
        if rows:
            row = rows.get
            for i, v in enumerate(reversed(verts)):
                for f in v:
                    digits = row(f)
                    if digits is not None:
                        digits[i] = 49  # ord("1")
        masks = {f: int(digits, 2) for f, digits in rows.items()}
        n = self.dim
        for sub in subs:
            common = _containing(sub, masks, -1)
            start = (common & -common).bit_length() - 1
            v = verts[start]
            i, j = (k for k, f in enumerate(v) if f not in sub)
            p, q = partner[start * n + i], partner[start * n + j]
            if q < p:  # codes of distinct vertices order as the vertices
                p, j = q, i
            cur = p // n
            leave, back = v[j], verts[cur][p - cur * n]
            cycle = [start]
            while cur != start:
                cycle.append(cur)
                p = partner[cur * n + verts[cur].index(leave)]
                cur = p // n
                leave, back = back, verts[cur][p - cur * n]
            yield sub, tuple(cycle)

    def require_valid(self):
        self.validate().require("polytope", self.name)
        return self

    # ------------------------------------------------------------------
    # derived data (valid polytopes only)

    @property
    def edges(self):
        """The edges (a, b), a < b, in ascending order."""
        return tuple((a, b) for a, ns in enumerate(self.vertex_adjacency()) for b in ns if a < b)

    @property
    def two_faces(self):
        """The two-faces as (facet complement, vertex cycle) pairs, sorted by
        facet complement: the n - 2 facets containing each and its cycle
        from its lowest vertex towards the lower neighbour, traced on each
        call (none for n = 1)."""
        self.require_valid()
        if not self._sizes:
            return ()
        return tuple(self._trace_two_faces(sorted(self._sizes), self._partner()))

    def two_face_sizes(self):
        """The two-faces as (facet complement, number of vertices) pairs,
        sorted by facet complement, as validation counted them: the
        complements are sorted alone, then each size is read."""
        self.require_valid()
        subs = sorted(self._sizes)
        return tuple(zip(subs, map(self._sizes.__getitem__, subs)))

    def two_face_size_list(self):
        """The sizes of two_face_sizes() alone, in its order, as a list.  When
        every two-face has the same number of vertices (a cube, a simplex, a
        polygon), no order can change the list, so the complements are not
        sorted."""
        self.require_valid()
        counts = set(self._sizes.values())
        if len(counts) == 1:
            return [counts.pop()] * len(self._sizes)
        return [size for _, size in self.two_face_sizes()]

    def facet_pairs(self):
        """The facet pairs (i, j), i < j, that some vertex contains, each
        once: the edges of the facet graph, as a frozenset built on the first
        call and kept.  Read off the vertex sets alone, so it needs no
        validation."""
        if self._pairs is None:
            self._pairs = frozenset(itertools.chain.from_iterable(
                map(itertools.combinations, self.vertices, itertools.repeat(2))))
        return self._pairs

    def facet_adjacency(self):
        """Adjacency sets of the facet graph, i ~ j iff some vertex contains
        both, built from facet_pairs."""
        self.require_valid()
        adj = [set() for _ in range(self.facet_count)]
        for i, j in self.facet_pairs():
            adj[i].add(j)
            adj[j].add(i)
        return adj

    def _partner(self):
        """The flat ridge pairing of _steps, paired afresh on each call."""
        self.require_valid()
        return _steps(self.vertices, self.dim)[0]

    def spanning_tree(self):
        """The spanning tree of the edge graph that validation's walk found,
        as a tuple of edges (a, k, b, j) in the order the walk met them: the
        edge that leaves a's k-th facet and enters b's j-th reaches b, every
        vertex but 0 is a b once, and each a is vertex 0 or a b earlier in
        the tuple."""
        self.require_valid()
        return self._tree

    def ridge_pairing(self):
        """The ridge pairing (neighbours, slots): per vertex v, two tuples
        aligned with v's sorted facets, rebuilt on each call.  The edge of v
        that leaves facet v[k] ends at vertex b = neighbours[v][k] and enters
        the facet vertices[b][slots[v][k]] there."""
        partner, n = self._partner(), self.dim
        rows = range(0, len(partner), n)
        return (tuple(tuple(p // n for p in partner[i:i + n]) for i in rows),
                tuple(tuple(p % n for p in partner[i:i + n]) for i in rows))

    def vertex_adjacency(self):
        """The neighbours of each vertex in the edge graph, ascending, as a
        tuple of tuples: the ridge pairing's neighbours, sorted on each call."""
        return tuple(tuple(sorted(ns)) for ns in self.ridge_pairing()[0])

    def is_even(self) -> bool:
        """True iff every two-face has an even number of vertices (vacuous
        for n=1), read off validation's counts."""
        self.require_valid()
        return all(size % 2 == 0 for size in self._sizes.values())

    def is_vertex_graph_bipartite(self) -> bool:
        """Whether the edge graph is bipartite, as validation's connectivity
        walk found when it two-coloured the graph from vertex 0."""
        self.require_valid()
        return self._bipartite

    def orientation(self):
        """The orientation o_v of every vertex that validation's walk found:
        +1 at vertex 0, and o_b = -(-1)^(k + j) o_a along the edge that
        leaves a's k-th facet and enters b's j-th."""
        self.require_valid()
        return self._orientation

    def f_vector(self):
        """f_k = number of k-dimensional faces, k = 0..n (f_n = 1 for P itself)."""
        self.require_valid()
        return tuple(len(_faces(self.vertices, k)) for k in range(self.dim, -1, -1))

    def h_vector(self):
        """h-vector from the f-vector; h_k = dim of degree-2k rational cohomology.

        Simple-polytope convention: sum_k h_k t^k = sum_i f_i (t-1)^i.
        """
        n = self.dim
        fv = self.f_vector()
        coeffs = [0] * (n + 1)  # coefficient of t^j
        for i in range(n + 1):
            for j in range(i + 1):
                coeffs[j] += fv[i] * math.comb(i, j) * ((-1) ** (i - j))
        return tuple(coeffs)

    # ------------------------------------------------------------------

    def product(self, other: "SimplePolytope") -> "SimplePolytope":
        """Product polytope; facets are the disjoint union, indices of other shifted."""
        self.require_valid()
        other.require_valid()
        _check_validation_work(len(self.vertices) * len(other.vertices), self.dim + other.dim)
        m1 = self.facet_count
        verts = []
        for v1 in self.vertices:
            for v2 in other.vertices:
                verts.append(v1 + tuple(j + m1 for j in v2))
        names = list(self.facet_names) + list(other.facet_names)
        label = "%sx%s" % (self.name or "P1", other.name or "P2")
        return SimplePolytope(self.dim + other.dim, verts,
                              facet_count=m1 + other.facet_count,
                              facet_names=names, name=label)

    # ------------------------------------------------------------------
    # JSON

    def to_json_dict(self):
        return {
            "name": self.name or "",
            "dim": self.dim,
            "facets": list(self.facet_names),
            "vertices": [list(v) for v in self.vertices],
        }

    @classmethod
    def from_json_dict(cls, data):
        try:
            dim = data["dim"]
            vertices = data["vertices"]
        except (KeyError, TypeError) as exc:
            raise StructureError("polytope JSON needs 'dim' and 'vertices': %s" % exc)
        facets = data.get("facets")
        if facets is not None and not isinstance(facets, list):
            raise StructureError("'facets' must be a list of names, got %r" % (facets,))
        return cls(dim, vertices,
                   facet_count=len(facets) if facets else None,
                   facet_names=facets, name=data.get("name") or None)


def _containing(face, masks, full):
    """The bitset of the vertices (or points) containing the face, per masks[i]."""
    for i in face:
        full &= masks.get(i, 0)
    return full


def _faces(vertices, k):
    """The faces of codimension k: the k-sets of facets some vertex shares, sorted."""
    return sorted({S for v in vertices for S in itertools.combinations(v, k)})


def _steps(faces, n):
    """The ridges of faces (sorted n-tuples) paired in one pass: (partner,
    None), or (None, (ridge, count)) for the first ridge listed that does
    not lie in exactly two faces.  partner is one flat list over the codes
    v * n + k, code v * n + k naming slot k of face v: its ridge without
    v[k] is also the ridge of face b without its slot j, where
    partner[v * n + k] = b * n + j (the edge that leaves v's k-th facet
    enters b's j-th).

    Each face's ridges are the (n-1)-subsets of the reversed face, so its
    t-th ridge omits slot t and the ridges are numbered by their codes.
    first maps each ridge to the code that listed it first; the second
    listing pairs the two codes.  A third listing finds its first code
    paired already, and a ridge in one face leaves fewer ridges than half
    the codes; either way the counts are taken afresh, on that path only.
    """
    first = {}
    partner = [-1] * (n * len(faces))
    ridges = itertools.chain.from_iterable(
        map(itertools.combinations, map(reversed, faces), itertools.repeat(n - 1)))
    for code, ridge in enumerate(ridges):
        p = first.setdefault(ridge, code)
        if p != code:
            if partner[p] >= 0:
                return None, _first_miscounted(faces, n)
            partner[p] = code
            partner[code] = p
    if 2 * len(first) != n * len(faces):
        return None, _first_miscounted(faces, n)
    return partner, None


def _first_miscounted(faces, n):
    """(ridge, count) for the first ridge listed whose count is not 2."""
    counts = collections.Counter(
        itertools.chain.from_iterable(itertools.combinations(face, n - 1) for face in faces))
    return next((ridge, c) for ridge, c in counts.items() if c != 2)


def _check_validation_work(vertex_count, n):
    """Raise BudgetExceededError when validating that many vertices of a
    simple n-polytope takes more work than VALIDATION_BUDGET."""
    work = vertex_count * (n * math.comb(n, 2) + 128)
    if work > VALIDATION_BUDGET:
        raise BudgetExceededError(
            "%d vertices in dimension %d: validation needs about %d steps, over the "
            "budget of %d" % (vertex_count, n, work, VALIDATION_BUDGET))


# ----------------------------------------------------------------------
# exact facet coloring

DEFAULT_NODE_BUDGET = 10 ** 6


def greedy_coloring(p: SimplePolytope):
    """Greedy upper-bound coloring, facets in descending-degree order."""
    return _greedy(p.facet_adjacency())[0]


def _greedy(adj):
    """greedy_coloring on the facet adjacency sets, and the order it used."""
    order = sorted(range(len(adj)), key=lambda i: (-len(adj[i]), i))
    colors = {}
    for i in order:
        used = {colors[j] for j in adj[i] if j in colors}
        c = 1
        while c in used:
            c += 1
        colors[i] = c
    return FacetColoring(colors, max(colors.values())), order


def _k_coloring(adj, order, k, budget):
    """Backtracking k-coloring; deterministic lowest-admissible-color order.

    Depth first over the facets in order, with an explicit stack of each
    placed facet's untried colors, so a long order needs no deep recursion.
    Returns a color dict or None; raises BudgetExceededError when the node
    budget runs out (inconclusive, never a wrong answer).
    """
    colors = {}
    untried = []  # per placed facet, in order: its colors not yet tried, lowest last
    nodes = 0
    while len(untried) < len(order):
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(
                "coloring search inconclusive: node budget %d exceeded" % budget)
        i = order[len(untried)]
        used = {colors[j] for j in adj[i] if j in colors}
        top = min(k, (max(colors.values()) if colors else 0) + 1)
        untried.append([c for c in range(top, 0, -1) if c not in used])
        while not untried[-1]:  # backtrack to the last facet with a color left
            untried.pop()
            if not untried:
                return None
            del colors[order[len(untried) - 1]]
        colors[order[len(untried) - 1]] = untried[-1].pop()
    return colors


def facet_chromatic(p: SimplePolytope):
    """Exact facet chromatic number with a witnessing coloring.

    The n facets at any vertex are pairwise adjacent, so n is a clique lower
    bound; a greedy run seeds the upper bound.  A search past
    DEFAULT_NODE_BUDGET nodes raises BudgetExceededError (inconclusive).
    """
    p.require_valid()
    n = p.dim
    adj = p.facet_adjacency()
    greedy, order = _greedy(adj)
    if greedy.color_count == n:
        return n, greedy
    for d in range(n, greedy.color_count + 1):
        found = _k_coloring(adj, order, d, DEFAULT_NODE_BUDGET)
        if found is not None:
            coloring = FacetColoring(found, d)
            verify_coloring(p, coloring)
            return d, coloring
    # greedy witnesses its own count, so the loop cannot fall through
    raise InternalConsistencyError("chromatic search fell through")  # pragma: no cover


def verify_coloring(p: SimplePolytope, coloring: FacetColoring):
    """Independent properness pass over each facet pair of p.facet_pairs()
    once; raises ValidationError on a bad coloring, naming the first pair
    of equal colors in vertex order."""
    colors = coloring.colors
    if set(colors) != set(range(p.facet_count)):
        raise ValidationError("coloring does not cover all facets")
    if any(not 1 <= c <= coloring.color_count for c in colors.values()):
        raise ValidationError("coloring uses out-of-range colors")
    if any(colors[i] == colors[j] for i, j in p.facet_pairs()):
        i, j = next((i, j) for v in p.vertices for i, j in itertools.combinations(v, 2)
                    if colors[i] == colors[j])
        raise ValidationError(
            "facets %d,%d share a vertex but also color %d" % (i, j, colors[i]))
    return True


# ----------------------------------------------------------------------
# built-in families


def cube(n: int) -> SimplePolytope:
    """Combinatorial n-cube; facets j and j+n are opposite."""
    if n < 1:
        raise StructureError("cube dimension must be >= 1")
    _check_validation_work(2 ** min(n, 64), n)  # 2^64 vertices are over any budget
    verts = []
    for bits in itertools.product((0, 1), repeat=n):
        verts.append(tuple(j + n * b for j, b in enumerate(bits)))
    names = ["x%d+" % j for j in range(n)] + ["x%d-" % j for j in range(n)]
    return SimplePolytope(n, verts, facet_count=2 * n, facet_names=names,
                          name="cube:%d" % n)


def simplex(n: int) -> SimplePolytope:
    if n < 1:
        raise StructureError("simplex dimension must be >= 1")
    _check_validation_work(n + 1, n)
    verts = [tuple(j for j in range(n + 1) if j != i) for i in range(n + 1)]
    return SimplePolytope(n, verts, facet_count=n + 1, name="simplex:%d" % n)


def polygon(k: int) -> SimplePolytope:
    if k < 3:
        raise StructureError("polygon needs at least 3 edges")
    _check_validation_work(k, 2)
    verts = [tuple(sorted((i, (i + 1) % k))) for i in range(k)]
    return SimplePolytope(2, verts, facet_count=k, name="polygon:%d" % k)


def interval() -> SimplePolytope:
    return cube(1)


def prism(k: int) -> SimplePolytope:
    """Prism over a k-gon."""
    p = polygon(k).product(interval())
    p.name = "prism:%d" % k
    return p
