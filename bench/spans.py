"""Spans and counters around the public entry points of each qtoric module.

The tracer patches the module and class attributes listed in ``SPANS`` for
the duration of a traced round and puts the originals back afterwards, so
untraced rounds run the program exactly as shipped.  Names that a later
version no longer has are skipped and reported, never fatal.

Time is attributed to the innermost open span, which partitions a round's
wall time into per-span and per-layer self times.  A span's inclusive time
counts only its outermost occurrence, so recursion through the same entry
point is not counted twice.  The span names are the stage names that an
in-program trace should reuse.
"""

from __future__ import annotations

import weakref
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "polytope", "charpair", "cohomology", "qseries", "polynomial",
          "index", "symmetry")

# (module, attribute path, span name).  A function imported by name into
# another module is patched there too, so every call site goes through it.
SPANS = (
    ("cli", "main", "cli.main"),
    ("charpair", "CharacteristicPair.from_json_dict", "charpair.load"),
    ("charpair", "CharacteristicPair.validate", "charpair.validate"),
    ("polytope", "SimplePolytope.validate", "polytope.validate"),
    ("polytope", "facet_chromatic", "polytope.chromatic"),
    ("cohomology", "QuasitoricModel.__init__", "cohomology.model"),
    ("cohomology", "check_admissible", "cohomology.admissible"),
    ("cohomology", "IndexModel.pair_top", "cohomology.pair"),
    ("qseries", "bundle_series", "qseries.build"),
    ("qseries", "root_factor", "qseries.build"),
    ("qseries", "QSeries.__mul__", "qseries.build"),
    ("polynomial", "GradedPolynomial.mul", "polynomial.mul"),
    ("index", "phi_c", "index.phi_c"),
    ("index", "witten_genus", "index.genus"),
    ("index", "elliptic_genus", "index.genus"),
    ("index", "verify_exhaustive_split_vanishing", "index.split"),
    ("index", "exists_nonvanishing_signs", "index.signs"),
    ("symmetry", "symmetry_report", "symmetry.report"),
)

SPAN_NAMES = sorted({name for _, _, name in SPANS})


class Tracer:
    """Per-round span and counter totals; one instance per traced round."""

    def __init__(self):
        self.stack = []
        self.last = 0.0
        self.self_time = defaultdict(float)
        self.inclusive = defaultdict(float)
        self.depth = defaultdict(int)
        self.counts = defaultdict(int)
        self.seen_models = weakref.WeakSet()
        self.seen_pairs = weakref.WeakSet()
        self.seen_polytopes = weakref.WeakSet()
        self.distinct = weakref.WeakKeyDictionary()

    def enter(self, name):
        now = perf_counter()
        if self.stack:
            self.self_time[self.stack[-1][0]] += now - self.last
        self.last = now
        self.stack.append((name, now))
        self.depth[name] += 1

    def leave(self):
        now = perf_counter()
        name, start = self.stack.pop()
        self.self_time[name] += now - self.last
        self.last = now
        self.depth[name] -= 1
        if not self.depth[name]:
            self.inclusive[name] += now - start

    def call(self, name, fn, args, kwargs):
        self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.leave()

    # -- entry points with counters -------------------------------------

    def pair_top(self, fn, model, poly):
        n = model.n
        terms = [mon for mon in poly.terms if len(mon) == n]
        if self.depth["cohomology.admissible"]:
            self.counts["cohomology.admissible_pairings"] += 1
        else:
            self.counts["cohomology.pair_top_calls"] += 1
            self.counts["cohomology.pair_terms"] += len(terms)
            seen = self.distinct.setdefault(model, set())
            before = len(seen)
            seen.update(terms)
            self.counts["cohomology.pair_terms_distinct"] += len(seen) - before
        if model in self.seen_models:
            return self.call("cohomology.pair", fn, (model, poly), {})
        self.seen_models.add(model)
        return self.call("cohomology.model", fn, (model, poly), {})

    def mul(self, fn, a, b, trunc=None):
        self.counts["polynomial.mul_calls"] += 1
        self.counts["polynomial.mul_term_pairs"] += len(a.terms) * len(b.terms)
        return self.call("polynomial.mul", fn, (a, b, trunc), {})

    def validate_pair(self, fn, pair):
        report = self.call("charpair.validate", fn, (pair,), {})
        if pair not in self.seen_pairs:
            self.seen_pairs.add(pair)
            if report.ok:
                self.counts["charpair.vertex_blocks"] += len(pair.polytope.vertices)
        return report

    def validate_polytope(self, fn, poly):
        report = self.call("polytope.validate", fn, (poly,), {})
        if poly not in self.seen_polytopes:
            self.seen_polytopes.add(poly)
            self.counts["polytope.vertices"] += len(poly.vertices)
        return report

    # -- totals ---------------------------------------------------------

    def layer_self(self):
        out = dict.fromkeys(LAYERS, 0.0)
        for name, t in self.self_time.items():
            out[name.split(".")[0]] += t
        return out


_SPECIAL = {
    "cohomology.pair": "pair_top",
    "polynomial.mul": "mul",
    "charpair.validate": "validate_pair",
    "polytope.validate": "validate_polytope",
}


def _make_wrapper(tracer, name, fn):
    special = _SPECIAL.get(name)
    if special:
        hook = getattr(tracer, special)

        def wrapper(*args, **kwargs):
            return hook(fn, *args, **kwargs)
    else:
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)
    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    return wrapper


class Installed:
    """Patches in a tracer's wrappers; ``restore()`` puts every original back."""

    def __init__(self, tracer, modules):
        self.saved = []
        self.missing = []
        for modname, path, name in SPANS:
            mod = modules[modname]
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            if owner is None or attr not in vars(owner):
                self.missing.append("%s.%s" % (modname, path))
                continue
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                new = classmethod(_make_wrapper(tracer, name, raw.__func__))
            else:
                new = _make_wrapper(tracer, name, raw)
            self._patch(owner, attr, raw, new)
            if owner is mod:
                # call sites that imported the function by name
                for other in modules.values():
                    if other is not mod and vars(other).get(attr) is raw:
                        self._patch(other, attr, raw, new)

    def _patch(self, owner, attr, raw, new):
        self.saved.append((owner, attr, raw))
        setattr(owner, attr, new)

    def restore(self):
        for owner, attr, raw in reversed(self.saved):
            setattr(owner, attr, raw)
        self.saved = []
