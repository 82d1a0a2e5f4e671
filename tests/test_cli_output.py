"""The CLI's JSON writer and the two-face list that analyze prints.

cli._json_text must write the bytes of json.dumps(obj, sort_keys=True,
indent=2) for every value an answer can hold, refuse any other value with
InternalConsistencyError (exit 4), and leave no cyclic garbage.  analyze's
"two_faces" skips the sort of the facet complements only when every
two-face has the same size; it must always read as two_face_sizes() does.
"""

import gc
import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_charpair import vertex_cuts

from qtoric import cli
from qtoric import polytope as pt
from qtoric.charpair import cp_pair, cube_pair, hirzebruch_pair, polygon_pair
from qtoric.cli import _digit_limit, _json_text, generate_pair, main
from qtoric.errors import InternalConsistencyError

# strings with non-ASCII characters, quotes, backslashes and control characters
TEXT = st.text(st.one_of(st.characters(codec="utf-8"),
                         st.sampled_from('"\\\x00\x1f\x7f\n\t é\U0001f600')),
               max_size=8)
# integers past Python's 4,300-digit limit on integer strings
LONG = st.integers(4301, 4400).map(lambda k: -(10 ** (k - 1)) - 7)
LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), LONG, TEXT)
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.lists(st.integers(), max_size=8),
        st.dictionaries(TEXT, inner, max_size=5),
        st.dictionaries(st.integers(), inner, max_size=5)),
    max_leaves=30)


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(VALUES)
def test_writer_matches_json_dumps(obj):
    with _digit_limit(0):
        assert _json_text(obj) == json.dumps(obj, sort_keys=True, indent=2)


def test_writer_spells_keys_as_json_does():
    for obj in ({2: 0, 10: 1, -3: 2}, {True: [], False: {}}, {None: 0}, {"b": (), "a": [[]]},
                {10 ** 5000: 1}):
        with _digit_limit(0):
            assert _json_text(obj) == json.dumps(obj, sort_keys=True, indent=2)


@pytest.mark.parametrize("obj", [1.5, Fraction(1, 2), [0, 1, 2.0], {"x": (Fraction(3),)},
                                 {1.5: 0}, {(0, 1): 0}, {0, 1}])
def test_writer_refuses_what_is_no_exact_answer(obj):
    with pytest.raises(InternalConsistencyError):
        _json_text(obj)


def test_a_float_in_an_answer_exits_4(tmp_path, capsys, monkeypatch):
    path = tmp_path / "cube3.json"
    path.write_text(json.dumps(generate_pair("cube:3").to_json_dict()))
    monkeypatch.setattr(pt.SimplePolytope, "two_face_size_list", lambda self: [4.0] * 6)
    assert main(["analyze", "--manifold", str(path)]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("internal consistency error: cannot write a float")


def test_writer_leaves_no_garbage():
    payload = {"pair": generate_pair("cube:4*polygon:5").to_json_dict(),
               "rows": [{"l": 1, "alpha": "1/2", "witnesses": ["A1"]}], "ok": True}
    gc.collect()
    gc.disable()
    try:
        text = _json_text(payload)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert text == json.dumps(payload, sort_keys=True, indent=2)


# ----------------------------------------------------------------------
# Every subcommand's payload, in process: the writer's text is json.dumps's,
# and it is what stdout reads.

FAMILIES = ("cube:3", "cp:3", "hirzebruch:1", "polygon:7*polygon:6", "s2xs2")


def _commands(m, other):
    return [
        ["generate", "cube:3"], ["generate", "polygon:7*cp:2"],
        ["validate", "--manifold", m], ["analyze", "--manifold", m], ["chi", "--manifold", m],
        ["index", "--q-order", "2", "--V", "[[1,0,0,0,0,0]]", "--manifold", m],
        ["genus", "--kind", "witten", "--q-order", "2", "--manifold", m],
        ["genus", "--kind", "elliptic", "--q-order", "1", "--manifold", m],
        ["color-index", "--q-order", "1", "--manifold", m],
        ["verify", "--theorem", "split", "--S", "0,3", "--q-order", "1", "--manifold", m],
        ["verify", "--theorem", "product", "--q-order", "1", "--manifold", m, "--other", other],
        ["verify", "--theorem", "connsum", "--q-order", "1", "--manifold", m, "--other", other],
        ["symmetry-report", "--manifold", m], ["alpha", "--max-rank", "3"],
    ]


def test_every_subcommand_writes_the_bytes_of_json_dumps(tmp_path, capsys, monkeypatch):
    written = []
    real = cli._json_text

    def spy(obj, pad="\n"):
        text = real(obj, pad)
        if pad == "\n":
            written.append((obj, text))
        return text

    monkeypatch.setattr(cli, "_json_text", spy)
    other = tmp_path / "cp2.json"
    other.write_text(json.dumps(generate_pair("cp:2").to_json_dict()))
    checked = set()
    for family in FAMILIES:
        path = tmp_path / (family.replace(":", "").replace("*", "x") + ".json")
        path.write_text(json.dumps(generate_pair(family).to_json_dict()))
        for argv in _commands(str(path), str(other)):
            del written[:]
            code = main(argv)
            out, _ = capsys.readouterr()
            if not out:  # refused before any answer, e.g. an uncolourable polytope
                assert code in (2, 3)
                continue
            obj, text = written[-1]  # the outermost call returns last
            with _digit_limit(0):
                assert text == json.dumps(obj, sort_keys=True, indent=2)
            assert out == text + "\n"
            checked.add(argv[0] + (argv[2] if argv[0] in ("verify", "genus") else ""))
    assert len(checked) == 13


# ----------------------------------------------------------------------
# analyze's "two_faces" reads as two_face_sizes(), sorted or not.

EQUAL_SIZES = ([("cube:%d" % n, lambda n=n: cube_pair(n)) for n in range(3, 10)]
               + [("cp:4", lambda: cp_pair(4)),
                  ("polygon:6", lambda: polygon_pair(6))])
MIXED_SIZES = [
    ("polygon:6*polygon:6", lambda: polygon_pair(6).product_pair(polygon_pair(6))),
    ("polygon:7*polygon:6", lambda: polygon_pair(7).product_pair(polygon_pair(6))),
    ("cube:4 with 5 vertex cuts", lambda: vertex_cuts(cube_pair(4), 5, 1)),
    ("cp:3 with 4 vertex cuts", lambda: vertex_cuts(cp_pair(3), 4, 2)),
    ("cp:4 with 3 vertex cuts", lambda: vertex_cuts(cp_pair(4), 3, 4)),
    ("cube:5 with 24 vertex cuts", lambda: vertex_cuts(cube_pair(5), 24, 5)),
    ("hirzebruch:2*polygon:5", lambda: hirzebruch_pair(2).product_pair(polygon_pair(5))),
]


def _analyze_two_faces(tmp_path, capsys, pair):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair.to_json_dict()))
    assert main(["analyze", "--manifold", str(path)]) == 0
    return json.loads(capsys.readouterr().out)["two_faces"]


@pytest.mark.parametrize("make,equal", [(m, True) for _, m in EQUAL_SIZES]
                         + [(m, False) for _, m in MIXED_SIZES],
                         ids=[name for name, _ in EQUAL_SIZES + MIXED_SIZES])
def test_analyze_two_faces_read_as_two_face_sizes(tmp_path, capsys, make, equal):
    pair = make()
    two_faces = _analyze_two_faces(tmp_path, capsys, pair)
    assert two_faces == [size for _, size in pair.polytope.two_face_sizes()]
    assert (len(set(two_faces)) == 1) is equal

