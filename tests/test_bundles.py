"""Line bundles as integer items against the GradedPolynomial route they replaced.

A BundleSpec keeps each first Chern class as its integer items, sorted
(generator, coefficient) pairs, read once when the spec is built;
check_admissible forms p1(V + W - TM) from them as an integer quadratic form,
and phi_c plans its roots from them.  ReferenceBundle, reference_admissible
and reference_plan below are the route as it was, written out here so that it
no longer lives in the library: each class a Fraction GradedPolynomial, c1 a
sum of them, p1 a sum of their squares, and the plan's roots the classes
themselves, read into items only at the end (through _linear_items, the
helper every test uses to turn a class into items).  On seeded bundles the
two routes must agree on every vector, report, witness and plan, and so on
every series.
"""

import random
from fractions import Fraction

import pytest

from qtoric.charpair import cp_pair, cube_pair, hirzebruch_pair
from qtoric.cohomology import (
    AdmissibilityReport,
    BundleSpec,
    QuasitoricModel,
    _linear_items,
    check_admissible,
)
from qtoric.errors import StructureError
from qtoric.index import (
    ConnectedSumModel,
    ProductModel,
    extend_bundles,
    phi_c,
    tensor_extend,
)
from qtoric.polynomial import GradedPolynomial as GP
from test_charpair import vertex_cuts
from test_fixed_point_engine import reference_pair_series

Q_ORDER = 1


class ReferenceBundle:
    """BundleSpec as it was: Fraction-coefficient classes, c1 their sum."""

    def __init__(self, classes, gen_count):
        self.classes = list(classes)
        self.gen_count = gen_count

    def c1_vector(self):
        total = GP.zero()
        for c in self.classes:
            total = total + c
        return total.integer_vector(self.gen_count)

    def to_vectors(self):
        return [list(c.integer_vector(self.gen_count)) for c in self.classes]


def reference_p1(plus, minus):
    """p1 of the line bundles plus minus those of minus: the squares summed."""
    total = GP.zero()
    for sign, classes in ((1, plus), (-1, minus)):
        for c in classes:
            total = total + c.mul(c).scale(sign)
    return total


def reference_admissible(model, V, W, c1c=None):
    """check_admissible as it was, on ReferenceBundles."""
    if V.classes:
        c1c_vec = V.c1_vector()
    else:
        c1c_vec = tuple(c1c) if c1c is not None else (0,) * model.gen_count
    spin_c = model.is_even_vector([a - b for a, b in zip(c1c_vec, model.c1_vector)])
    face = model.nonzero_face(reference_p1(V.classes + W.classes, model.tangent_roots))
    witness = None if face is None else tuple(model.gen_labels[i] for i in face)
    return AdmissibilityReport(spin_c, model.is_even_vector(W.c1_vector()), face is None,
                               tuple(c1c_vec), witness)


def reference_plan(model, V, W, c1c_vector):
    """phi_c's plan as it was built, over the classes; the roots read into
    items last."""
    twist = W.classes == model.tangent_roots
    plan = [(("Q1", "AHAT", "Q3") if twist else ("Q1", "AHAT"), model.tangent_roots)]
    if V.classes:
        plan.append((("EXPHALF", "Q2"), V.classes))
    else:
        plan.append((("EXPHALF",), [GP.linear(c1c_vector)]))
    if W.classes and not twist:
        plan.append((("Q3",), W.classes))
    return [(kinds, [_linear_items(r, model.gen_count) for r in roots]) for kinds, roots in plan]


def _models():
    return {
        "cp:4": QuasitoricModel(cp_pair(4)),
        "cube:4": QuasitoricModel(cube_pair(4)),
        "hirzebruch:1 x cp:2": ProductModel(QuasitoricModel(hirzebruch_pair(1)),
                                            QuasitoricModel(cp_pair(2))),
        "cube:3 # cube:3": ConnectedSumModel(QuasitoricModel(cube_pair(3)),
                                             QuasitoricModel(cube_pair(3)), 1),
        "cube:4 with vertex cuts": QuasitoricModel(vertex_cuts(cube_pair(4), 2, 5)),
    }


MODELS = _models()


def _draws(model, rng):
    """Seeded (V, W) vector lists: entries up to 3 in size and of either
    sign, zero vectors, an empty V or W, and W equal to the tangent roots."""
    m = model.gen_count
    tangent = [list(r.integer_vector(m)) for r in model.tangent_roots]

    def vectors(count):
        out = []
        for _ in range(count):
            if rng.random() < 0.2:
                out.append([0] * m)
            else:
                out.append([rng.choice((-3, -2, -1, 1, 2, 3)) if rng.random() < 0.3 else 0
                            for _ in range(m)])
        return out

    draws = [([], []), ([], tangent), (vectors(1), tangent), (tangent, []),
             (tangent[:2], tangent[2:])]
    draws += [(vectors(rng.randint(0, 3)), vectors(rng.randint(0, 3))) for _ in range(10)]
    return draws


@pytest.mark.parametrize("name", list(MODELS))
def test_items_route_matches_polynomial_route(name, monkeypatch):
    """Both constructors and the reference give the same vectors and
    admissibility report, p1_witness included, and phi_c pairs the
    reference's plan: the tangent twist is found for a W given as the
    tangent roots' vectors, and the series is the dense loop's."""
    model = MODELS[name]
    m = model.gen_count
    plans = []
    engine = model.pair_series
    monkeypatch.setattr(model, "pair_series",
                        lambda plan, q_order: plans.append(plan) or engine(plan, q_order))
    rng = random.Random(name)
    witnesses, twists = set(), 0
    for V_vectors, W_vectors in _draws(model, rng):
        ref_V = ReferenceBundle([GP.linear(v) for v in V_vectors], m)
        ref_W = ReferenceBundle([GP.linear(w) for w in W_vectors], m)
        c1c = None if V_vectors or rng.random() < 0.5 else list(model.c1_vector)
        expected = reference_admissible(model, ref_V, ref_W, c1c)
        for V, W in ((BundleSpec.from_vectors(V_vectors, m),
                      BundleSpec.from_vectors(W_vectors, m)),
                     (BundleSpec(ref_V.classes, m), BundleSpec(ref_W.classes, m))):
            for spec, ref in ((V, ref_V), (W, ref_W)):
                assert spec.c1_vector() == ref.c1_vector()
                assert spec.to_vectors() == ref.to_vectors()
                assert spec.classes == ref.classes
                assert spec.p1() == reference_p1(ref.classes, ())
            assert check_admissible(model, V, W, c1c) == expected
        witnesses.add(expected.p1_witness)
        result = phi_c(model, V_vectors, W_vectors, q_order=Q_ORDER, c1c=c1c)
        assert result.admissibility == expected
        plan = reference_plan(model, ref_V, ref_W, expected.c1c_vector)
        assert plans[-1] == plan
        assert result.series == reference_pair_series(model, plan, Q_ORDER)
        twists += plan[0][0] == ("Q1", "AHAT", "Q3")
    assert twists == 2  # W = TM, with V = 0 and with V a drawn vector
    assert None in witnesses and len(witnesses) > 1  # p1 zero and nonzero both drawn


def test_extended_bundles_match_polynomial_route():
    """extend_bundles and tensor_extend shift the right side's items, as the
    classes were shifted, and tensor_extend pads the shorter side."""
    rng = random.Random(3)
    for model in (MODELS["hirzebruch:1 x cp:2"], MODELS["cube:3 # cube:3"]):
        for dims in ((1, 3), (3, 1), (2, 2)):
            V1, V2 = (BundleSpec.from_vectors([[rng.randint(-2, 2) for _ in range(side.gen_count)]
                                               for _ in range(dim)], side.gen_count)
                      for side, dim in zip((model.left, model.right), dims))
            shifted = [c.shift_generators(model.offset) for c in V2.classes]
            assert extend_bundles(model, V1, V2).classes == V1.classes + shifted
            if isinstance(model, ConnectedSumModel):
                left = V1.classes + [GP.zero()] * (3 - V1.dim)
                right = shifted + [GP.zero()] * (3 - V2.dim)
                assert (tensor_extend(model, V1, V2).classes
                        == [a + b for a, b in zip(left, right)][:max(dims)])


# ----------------------------------------------------------------------
# refusals


REFUSALS = [  # (what, entry, message), the messages as before items
    ("a Fraction entry", [Fraction(3, 2), 0, 0],
     "bundle vector must be a list of integers, got [Fraction(3, 2), 0, 0]"),
    ("a bool entry", [True, 0, 0], "bundle vector must be a list of integers, got [True, 0, 0]"),
    ("a short vector", [1, 0], "bundle vector (1, 0) has length 2, expected 3"),
    ("a long vector", [1, 0, 0, 0], "bundle vector (1, 0, 0, 0) has length 4, expected 3"),
    ("a Fraction coefficient", GP.linear([Fraction(3, 2), 0, 0]),
     "not an integral linear class in u_0..u_2: GradedPolynomial(3/2*u0)"),
    ("a generator past gen_count", GP.generator(3),
     "not an integral linear class in u_0..u_2: GradedPolynomial(u3)"),
    ("a negative generator", GP.generator(-1),
     "not an integral linear class in u_0..u_2: GradedPolynomial(u-1)"),
    ("a class that is not linear", GP.generator(0).mul(GP.generator(1)),
     "not an integral linear class in u_0..u_2: GradedPolynomial(u0*u1)"),
]


@pytest.mark.parametrize("what, entry, message", REFUSALS, ids=[r[0] for r in REFUSALS])
def test_both_constructors_refuse_with_the_same_messages(what, entry, message):
    """from_vectors refuses each bad entry; the class constructor refuses
    each bad class with the same message, and anything but a class."""
    with pytest.raises(StructureError) as caught:
        BundleSpec.from_vectors([[1, 0, 0], entry], 3)
    assert str(caught.value) == message
    with pytest.raises(StructureError) as caught:
        BundleSpec([GP.generator(0), entry], 3)
    expected = message if isinstance(entry, GP) else "bundle classes must be GradedPolynomial"
    assert str(caught.value) == expected


@pytest.mark.parametrize("spec", [5, {}, "", "ab"], ids=repr)
def test_a_spec_that_is_not_a_list_is_refused(spec):
    """A spec that is not a list or tuple of vectors is refused, named,
    before anything is paired: 5 used to raise TypeError, {} and "" were
    taken as V = 0, and "ab" was refused as "got 'a'"."""
    model = MODELS["cp:4"]
    message = "bundle spec must be a list of coefficient vectors, got %r" % (spec,)
    for call in (lambda: phi_c(model, spec), lambda: phi_c(model, None, spec),
                 lambda: BundleSpec.from_vectors(spec, model.gen_count)):
        with pytest.raises(StructureError) as caught:
            call()
        assert str(caught.value) == message
