import json
import resource
import subprocess
import sys

import pytest

from qtoric.cli import build_parser, generate_pair, main
from qtoric.cohomology import DEFAULT_SEED

PY = [sys.executable, "-m", "qtoric"]


def run_cli(args, stdin=None):
    proc = subprocess.run(PY + args, input=stdin, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_generate_chi_pipe():
    code, out, _ = run_cli(["generate", "cube:3"])
    assert code == 0
    code, out2, _ = run_cli(["chi", "--format", "text"], stdin=out)
    assert code == 0 and out2.strip() == "8"


def test_generate_into_a_closed_pipe_exits_0_quietly():
    """A reader that stops after one byte sees no traceback, and generate
    keeps its own exit code."""
    proc = subprocess.Popen(PY + ["generate", "cube:12"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    try:
        assert proc.wait(timeout=60) == 0
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.stderr.close()


def test_generate_product_family():
    code, out, _ = run_cli(["generate", "cube:2*polygon:6"])
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 4 and len(data["vertices"]) == 4 * 6


def test_generate_unknown_family_exits_2():
    code, _, err = run_cli(["generate", "dodecahedron:5"])
    assert code == 2 and "unknown family" in err


def test_validate_bad_input_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "dim": 2, "vertices": [[0, 1, 2], [0, 1], [1, 2]],
    }))
    code, out, _ = run_cli(["validate", "--manifold", str(bad)])
    assert code == 2
    report = json.loads(out)
    assert not report["ok"]


def test_malformed_json_exit_2(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{nope")
    code, _, err = run_cli(["chi", "--manifold", str(bad)])
    assert code == 2


def _cp2(**overrides):
    data = {"name": "cp:2", "dim": 2, "facets": ["F0", "F1", "F2"],
            "vertices": [[0, 1], [0, 2], [1, 2]],
            "lambda": [[1, 0], [0, 1], [-1, -1]], "signs": [1, 1, 1]}
    data.update(overrides)
    return data


# Non-integral or mistyped data must never be truncated to a different pair
# or crash with a traceback: each of these exits 2 with an error message.
BAD_INPUTS = [
    ("lambda 1.5", _cp2(**{"lambda": [[1.5, 0], [0, 1], [-1, -1]]}), []),
    ("lambda 1.0", _cp2(**{"lambda": [[1.0, 0], [0, 1], [-1, -1]]}), []),
    ("lambda true", _cp2(**{"lambda": [[True, 0], [0, 1], [-1, -1]]}), []),
    ("lambda string", _cp2(**{"lambda": [["a", 0], [0, 1], [-1, -1]]}), []),
    ("lambda scalar", _cp2(**{"lambda": 5}), []),
    ("signs 1.0", _cp2(signs=[1, 1.0, 1]), []),
    ("signs true", _cp2(signs=[1, True, 1]), []),
    ("vertex string", _cp2(vertices=[["x", 1], [0, 2], [1, 2]]), []),
    ("vertices scalar", _cp2(vertices=5), []),
    ("dim true", {"dim": True, "vertices": [[0], [1]], "lambda": [[1], [-1]]}, []),
    ("facets scalar", _cp2(facets=5), []),
    ("facet names integers", _cp2(facets=[1, 2, 3]), []),
    ("not an object", 5, []),
    ("--V string entry", _cp2(), ["--V", '[[1,"a",0]]']),
    ("--V 0.5", _cp2(), ["--V", "[[1,0.5,0]]"]),
    ("--V flat", _cp2(), ["--V", "[1,0,0]"]),
    ("--V 1.7", _cp2(), ["--V", "[[1.7,0,0]]"]),
]


@pytest.mark.parametrize("data,flags", [(d, f) for _, d, f in BAD_INPUTS],
                         ids=[name for name, _, _ in BAD_INPUTS])
def test_malformed_pair_data_exits_2(tmp_path, capsys, data, flags):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(data))
    command = ["index"] if flags else ["validate"]
    assert main(command + flags + ["--manifold", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


def _unreadable(capsys, argv, named):
    """argv run in process exits 2 with one error line that names the input."""
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and named in err and "Traceback" not in err


def test_an_integer_past_the_digit_limit_exits_2(tmp_path, capsys):
    """Python refuses to read an integer of more than 4,300 digits; in the
    manifold file or in --V the refusal is an input error naming it."""
    big = "1" * 4301
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(_cp2(**{"lambda": "BIG"})).replace('"BIG"', "[[%s, 0]]" % big))
    _unreadable(capsys, ["validate", "--manifold", str(path)], str(path))
    path.write_text(json.dumps(_cp2()))
    _unreadable(capsys, ["index", "--V", "[[%s,0,0]]" % big, "--manifold", str(path)],
                "--V")


def test_deeply_nested_json_exits_2(tmp_path, capsys):
    """100,000 nested lists overflow the JSON reader's recursion, in the
    manifold file or in --V."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    _unreadable(capsys, ["validate", "--manifold", str(path)], str(path))
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(_cp2()))
    _unreadable(capsys, ["index", "--W", "[" * 100000, "--manifold", str(path)],
                "--W")


def test_a_manifold_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "bytes.json"
    path.write_bytes(b"\xff\xfe\x00{")
    _unreadable(capsys, ["chi", "--manifold", str(path)], str(path))


# Integer lists given as flag text: a non-integer entry exits 2, not 1.
BAD_FLAG_VALUES = [
    ("--signs letters", "hirzebruch:2", ["color-index", "--signs", "a,b,c,d"]),
    ("--signs one letter", "hirzebruch:2", ["color-index", "--signs", "1,x,1,1"]),
    ("--S letter", "cp:3", ["verify", "--theorem", "split", "--S", "a"]),
    ("--S 1.5", "cp:3", ["verify", "--theorem", "split", "--S", "1.5"]),
]


@pytest.mark.parametrize("family,argv", [(f, a) for _, f, a in BAD_FLAG_VALUES],
                         ids=[name for name, _, _ in BAD_FLAG_VALUES])
def test_non_integer_flag_values_exit_2(tmp_path, capsys, family, argv):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(generate_pair(family).to_json_dict()))
    assert main(argv + ["--manifold", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


RP2_DUAL = {
    "name": "rp2-dual", "dim": 3,
    "vertices": [[0, 1, 3], [0, 1, 5], [0, 2, 4], [0, 2, 5], [0, 3, 4],
                 [1, 2, 3], [1, 2, 4], [1, 4, 5], [2, 3, 5], [3, 4, 5]],
    "lambda": [[1, 0, 0], [0, 1, 0], [-1, -1, -1], [0, 0, 1], [-1, -1, 0], [-1, 0, -1]],
}

# the dual of the 7-vertex torus: orientable, but m - V/2 = 0, not 2
TORUS_DUAL = {
    "name": "torus-dual", "dim": 3,
    "vertices": [[0, 1, 3], [0, 1, 5], [0, 2, 3], [0, 2, 6], [0, 4, 5], [0, 4, 6], [1, 2, 4],
                 [1, 2, 6], [1, 3, 4], [1, 5, 6], [2, 3, 5], [2, 4, 5], [3, 4, 6], [3, 5, 6]],
}


@pytest.mark.parametrize("argv", [
    ["chi"], ["index"], ["genus", "--kind", "witten"], ["color-index"],
    ["symmetry-report"], ["verify", "--theorem", "split", "--S", "0"],
])
def test_non_orientable_pair_exits_2(tmp_path, capsys, argv):
    # every block is unimodular, but the polytope carries no orientation
    path = tmp_path / "rp2.json"
    path.write_text(json.dumps(RP2_DUAL))
    assert main(argv + ["--manifold", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "polytope-valid: orientable; euler-characteristic" in err


def test_validate_names_the_orientation_clash(tmp_path, capsys):
    path = tmp_path / "rp2.json"
    path.write_text(json.dumps(RP2_DUAL))
    assert main(["validate", "--manifold", str(path)]) == 2
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks == [
        {"name": "polytope-valid", "passed": False, "detail": "orientable; euler-characteristic"},
        {"name": "primitive-rows", "passed": True, "detail": ""}]
    # the bare polytope names the clash
    path.write_text(json.dumps({k: RP2_DUAL[k] for k in ("name", "dim", "vertices")}))
    assert main(["validate", "--manifold", str(path)]) == 2
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks[-2] == {
        "name": "orientable", "passed": False,
        "detail": "the orientations carried along the edges clash"}
    # a valid pair lists no orientation check
    path.write_text(json.dumps(generate_pair("cp:3").to_json_dict()))
    assert main(["validate", "--manifold", str(path)]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["name"] for c in checks] == ["polytope-valid", "primitive-rows", "vertex-unimodular"]


# validate on a pair with a non-primitive row and on a bare non-simple
# polytope: the report's checks, as JSON and as text lines
VALIDATE_REPORTS = [
    ("non-primitive pair", _cp2(**{"lambda": [[2, 0], [0, 1], [-1, -1]]}), [
        ("polytope-valid", True, ""),
        ("primitive-rows", False, "lambda row 0 = (2, 0) is not primitive"),
        ("vertex-unimodular", False, "vertex (0, 1) has det 2, expected +-1")],
     "polytope-valid: ok \n"
     "primitive-rows: FAIL lambda row 0 = (2, 0) is not primitive\n"
     "vertex-unimodular: FAIL vertex (0, 1) has det 2, expected +-1\n"),
    ("non-simple polytope", {"dim": 2, "vertices": [[0, 1, 2], [0, 1], [1, 2]]}, [
        ("simplicity", False, "vertex (0, 1, 2) has 3 facets, expected 2"),
        ("edge-graph-connected", False, "edge graph is disconnected or undefined"),
        ("facet-coverage", True, "")],
     "simplicity: FAIL vertex (0, 1, 2) has 3 facets, expected 2\n"
     "edge-graph-connected: FAIL edge graph is disconnected or undefined\n"
     "facet-coverage: ok \n"),
]


@pytest.mark.parametrize("data,checks,text", [r[1:] for r in VALIDATE_REPORTS],
                         ids=[r[0] for r in VALIDATE_REPORTS])
def test_validate_report_output(tmp_path, capsys, data, checks, text):
    path = tmp_path / "manifold.json"
    path.write_text(json.dumps(data))
    assert main(["validate", "--manifold", str(path)]) == 2
    out, err = capsys.readouterr()
    assert err == "" and out == json.dumps({"ok": False, "checks": [
        {"name": name, "passed": passed, "detail": detail} for name, passed, detail in checks]},
        sort_keys=True, indent=2) + "\n"
    assert main(["validate", "--format", "text", "--manifold", str(path)]) == 2
    assert capsys.readouterr() == (text, "")


def test_analyze_joswig_fields():
    _, pair, _ = run_cli(["generate", "cube:3"])
    code, out, _ = run_cli(["analyze"], stdin=pair)
    assert code == 0
    data = json.loads(out)
    assert data["is_even"] and data["vertex_graph_bipartite"]
    assert data["facet_chromatic"] == 3 and data["joswig_consistent"]
    assert data["edges"] == 12 and data["two_faces"] == [4] * 6


def test_index_series_json():
    _, pair, _ = run_cli(["generate", "s2"])
    code, out, _ = run_cli(["index", "--V", "[[1,1]]"], stdin=pair)
    assert code == 0
    data = json.loads(out)
    assert data["series"] == ["2", "0", "0", "0", "0"]
    assert data["admissibility"]["hypotheses_met"]


def test_index_q_order_flag_after_subcommand():
    _, pair, _ = run_cli(["generate", "s2"])
    code, out, _ = run_cli(["index", "--V", "[[1,1]]", "--q-order", "2"], stdin=pair)
    assert code == 0
    assert len(json.loads(out)["series"]) == 3


def test_negative_q_order_exits_2(capsys):
    _, pair, _ = run_cli(["generate", "cp:2"])
    code, out, err = run_cli(["genus", "--kind", "witten", "--q-order", "-1"], stdin=pair)
    assert code == 2 and out == "" and "q_order" in err
    # rejected before any subcommand runs, even one that never builds a series
    assert main(["alpha", "--q-order", "-1"]) == 2
    assert "q_order" in capsys.readouterr().err


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))


def _run_limited(args, stdin=None):
    """The CLI with 1 GiB of address space; it must end within 30 s."""
    return subprocess.run(PY + args, input=stdin, capture_output=True, text=True, timeout=30,
                          preexec_fn=_limit_address_space)


def _assert_over_budget(proc):
    assert proc.returncode == 3 and proc.stdout == "", proc.stderr
    assert "budget" in proc.stderr and "Traceback" not in proc.stderr


def _run_huge_q_order(family, args):
    _, pair, _ = run_cli(["generate", family])
    _assert_over_budget(_run_limited(args + ["--q-order", "1000000000"], pair))


def test_huge_q_order_exits_3_before_any_series():
    """The pairing budget refuses --q-order 10^9 before any table is built.
    The run has 1 GiB of address space, so it could not allocate a list of
    10^9 + 1 entries (8 GB) and still exit 3."""
    _run_huge_q_order("cp:2", ["genus", "--kind", "witten"])


@pytest.mark.parametrize("argv, label", [
    (["genus", "--kind", "witten", "--q-order", "1000000000"],
     "budget exceeded: q_order 1000000000"),
    (["genus", "--kind", "elliptic"], "hypothesis unmet: elliptic genus needs a Spin model"),
], ids=["budget", "hypothesis"])
def test_exit_3_names_its_cause(tmp_path, capsys, argv, label):
    """Exit code 3 covers a refused budget and an unmet hypothesis; stderr
    says which (cp:2 is not Spin)."""
    path = tmp_path / "cp2.json"
    path.write_text(json.dumps(generate_pair("cp:2").to_json_dict()))
    assert main(argv + ["--manifold", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(label), err


@pytest.mark.parametrize("family,args", [
    # odd n: every L_k that fits is identically zero
    ("cube:3", ["genus", "--kind", "witten"]),
    ("cube:3", ["genus", "--kind", "elliptic"]),
    # more Euler classes than n
    ("cp:2", ["index", "--V", "[[1,0,0],[1,0,0],[1,0,0]]"]),
], ids=["witten cube:3", "elliptic cube:3", "index cp:2 3 V rows"])
def test_huge_q_order_exits_3_where_no_exponent_vector_is_formed(family, args):
    """pair_series would form no exponent vector here, so only the table work
    makes the budget refuse --q-order 10^9."""
    _run_huge_q_order(family, args)


def _simplex_json(n):
    return json.dumps({"dim": n, "vertices": [[j for j in range(n + 1) if j != i]
                                              for i in range(n + 1)]})


@pytest.mark.parametrize("args,stdin", [
    (["generate", "cube:40"], None),
    (["generate", "polygon:100000000"], None),
    (["generate", "cp:100000"], None),
    (["validate"], _simplex_json(160)),
    (["alpha", "--max-rank", "1000000"], None),
], ids=["generate cube:40", "generate polygon:10^8", "generate cp:100000",
        "validate 160-simplex", "alpha --max-rank 10^6"])
def test_oversize_inputs_exit_3(args, stdin):
    """Refused on a budget before the work starts: without one, each fills
    or overruns 1 GiB of address space, or does not finish in 30 s."""
    _assert_over_budget(_run_limited(args, stdin))


def test_duplicate_vertex_in_a_large_polygon_exits_2():
    vertices = [[i, (i + 1) % 20000] for i in range(20000)]
    vertices.append(vertices[-1])
    proc = _run_limited(["validate"], json.dumps({"dim": 2, "vertices": vertices}))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: duplicate vertex (0, 19999)\n"


def test_a_huge_facet_index_exits_2():
    """With no facets list the facet count is inferred from the largest
    index; 10^8 facets cannot be covered by 2 incidences, and the run ends
    before it builds 10^8 facet names, which 1 GiB could not hold."""
    proc = _run_limited(["validate"], json.dumps({"dim": 1, "vertices": [[0], [100000000]]}))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: facet index 100000000 implies 100000001 facets, more than "
                           "the 2 facet incidences of the vertices can cover\n")


def test_symmetry_report_on_four_decagons():
    """The least nonzero sign mask of polygon:10^4 is 50,529,027; the sign
    search fixes one sign at a time instead of trying every smaller mask."""
    _, pair, _ = run_cli(["generate", "polygon:10*polygon:10*polygon:10*polygon:10"])
    proc = _run_limited(["symmetry-report"], pair)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["index_nonvanishing"] is True


def test_genus_elliptic_refusal_exit_3():
    _, pair, _ = run_cli(["generate", "cp:2"])
    code, _, err = run_cli(["genus", "--kind", "elliptic"], stdin=pair)
    assert code == 3 and "Spin" in err


def test_genus_witten():
    _, pair, _ = run_cli(["generate", "s2xs2"])
    code, out, _ = run_cli(["genus", "--kind", "witten"], stdin=pair)
    assert code == 0
    assert all(c == "0" for c in json.loads(out)["series"])


def test_color_index_hirzebruch():
    _, pair, _ = run_cli(["generate", "hirzebruch:2"])
    code, out, _ = run_cli(["color-index", "--signs", "++++"], stdin=pair)
    assert code == 0
    data = json.loads(out)
    assert data["series"] == ["4", "0", "0", "0", "0"]
    assert data["predicted_constant"] == "4"


def test_color_index_uncolorable_exit_3():
    _, pair, _ = run_cli(["generate", "cp:2"])
    code, _, err = run_cli(["color-index"], stdin=pair)
    assert code == 3


def test_verify_split():
    _, pair, _ = run_cli(["generate", "cp:3"])
    code, out, _ = run_cli(["verify", "--theorem", "split", "--S", "0,1"], stdin=pair)
    assert code == 0
    assert json.loads(out)["is_zero"]


def test_verify_split_hypothesis_unmet_exit_3():
    _, pair, _ = run_cli(["generate", "cp:3"])
    code, out, _ = run_cli(["verify", "--theorem", "split", "--S", "0"], stdin=pair)
    assert code == 3


def test_verify_product(tmp_path):
    _, pair, _ = run_cli(["generate", "s2"])
    other = tmp_path / "s2.json"
    other.write_text(pair)
    code, out, _ = run_cli([
        "verify", "--theorem", "product", "--other", str(other),
        "--V1", "[[1,1]]", "--V2", "[[1,1]]"], stdin=pair)
    assert code == 0 and json.loads(out)["equal"]


def test_verify_connsum(tmp_path):
    _, pair, _ = run_cli(["generate", "cube:2"])
    other = tmp_path / "c2.json"
    other.write_text(pair)
    V = "[[1,0,1,0],[0,1,0,1]]"
    code, out, _ = run_cli([
        "verify", "--theorem", "connsum", "--other", str(other),
        "--V1", V, "--V2", V], stdin=pair)
    assert code == 0
    data = json.loads(out)
    assert data["equal"] and data["lhs"][0] == "8"


def test_symmetry_report_cube():
    _, pair, _ = run_cli(["generate", "cube:3"])
    code, out, _ = run_cli(["symmetry-report"], stdin=pair)
    assert code == 0
    data = json.loads(out)
    assert data["index_nonvanishing"] is True
    assert data["N_max"] == 9
    assert [g["name"] for g in data["simple_candidates"]] == ["SU(2)", "Spin(5)"]


def test_alpha_dump():
    code, out, _ = run_cli(["alpha", "--max-rank", "6"])
    assert code == 0
    rows = json.loads(out)["alpha"]
    assert rows[0] == {"l": 1, "alpha": "3", "witnesses": ["SU(2)"]}
    assert rows[4]["witnesses"] == []


@pytest.mark.parametrize("rank", ["0", "-3"])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_alpha_max_rank_below_one_exits_2(rank, fmt):
    # alpha(l) needs l >= 1, so an empty table is no answer
    code, out, err = run_cli(["alpha", "--max-rank", rank, "--format", fmt])
    assert code == 2 and out == "" and "max-rank" in err


def test_determinism_byte_identical():
    _, pair, _ = run_cli(["generate", "hirzebruch:1"])
    outs = set()
    for _ in range(2):
        code, out, _ = run_cli(["index", "--V", "[[1,0,1,0]]", "--seed", "7"],
                               stdin=pair)
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_round_trip_file_vs_pipe(tmp_path):
    _, pair, _ = run_cli(["generate", "cube:2"])
    path = tmp_path / "c2.json"
    path.write_text(pair)
    _, via_file, _ = run_cli(["chi", "--manifold", str(path)])
    _, via_pipe, _ = run_cli(["chi"], stdin=pair)
    assert via_file == via_pipe


def test_main_callable_in_process(capsys):
    assert main(["alpha", "--max-rank", "2", "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "G2" in out


def test_repeated_main_calls_share_no_state(tmp_path, capsys):
    # the parser is built once per process; nothing a call parses may leak
    # into the next one
    path = tmp_path / "s2xs2.json"
    path.write_text(json.dumps(generate_pair("s2xs2").to_json_dict()))
    genus = ["genus", "--kind", "witten", "--manifold", str(path)]

    def run(argv):
        code = main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    def payload(argv):
        code, out, _ = run(argv)
        assert code == 0
        return json.loads(out)

    assert build_parser() is build_parser()
    assert payload(genus + ["--q-order", "2"])["q_order"] == 2
    assert payload(genus)["q_order"] == 4
    assert payload(["--q-order", "2"] + genus)["q_order"] == 2
    assert payload(genus)["q_order"] == 4
    assert payload(genus + ["--seed", "3"])["seed"] == 3
    assert payload(genus)["seed"] == DEFAULT_SEED
    code, text, _ = run(genus + ["--format", "text"])
    assert code == 0 and text.count("\n") == 1
    code, out, _ = run(genus)
    assert code == 0 and out.startswith("{\n") and json.loads(out)["genus"] == "witten"
    # a usage error, then a valid call
    with pytest.raises(SystemExit) as exc:
        main(["genus", "--kind", "bogus", "--manifold", str(path)])
    assert exc.value.code == 2
    capsys.readouterr()
    assert payload(genus)["q_order"] == 4
    # a validation error, then a valid call
    code, out, err = run(["chi", "--manifold", str(tmp_path / "missing.json")])
    assert code == 2 and out == "" and err.startswith("error: ")
    code, out, _ = run(["chi", "--manifold", str(path), "--format", "text"])
    assert code == 0 and out == "4\n"


SPLIT_FACE = {
    "name": "split-face", "dim": 3,
    "vertices": [[0, 1, 5], [0, 1, 6], [0, 5, 9], [0, 6, 10], [0, 9, 10], [1, 2, 6],
                 [1, 2, 10], [1, 5, 10], [2, 3, 7], [2, 3, 10], [2, 6, 7], [3, 4, 8],
                 [3, 4, 10], [3, 7, 8], [4, 5, 9], [4, 5, 10], [4, 8, 9], [6, 7, 10],
                 [7, 8, 10], [8, 9, 10]],
}


def _exits_2_on_split_face(tmp_path, data, detail):
    """validate and analyze on data exit 2, naming the split two-face."""
    path = tmp_path / "split.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(["validate", "--manifold", str(path)])
    assert code == 2 and "Traceback" not in err
    checks = json.loads(out)["checks"]
    assert [c["name"] for c in checks if not c["passed"]] == ["two-faces-polygonal"]
    assert checks[-1]["detail"] == detail
    code, out, err = run_cli(["analyze", "--manifold", str(path)])
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.startswith("error: ") and detail in err


def test_two_face_of_several_cycles_exits_2(tmp_path):
    # an icosahedron's dual with antipodal vertices identified: its two-face
    # of facet 10 is two pentagons
    _exits_2_on_split_face(tmp_path, SPLIT_FACE, "two-face (10,) is not a single cycle")


def test_two_face_of_two_triangles_exits_2(tmp_path):
    # the 3-cube with two opposite vertices cut off by one shared facet 6:
    # its two-face of facet 6 is two triangles, 6 vertices in all
    _exits_2_on_split_face(tmp_path, {"name": "two-triangles", "dim": 3, "vertices": [
        [0, 2, 5], [0, 3, 4], [0, 3, 5], [1, 2, 4], [1, 2, 5], [1, 3, 4],
        [0, 2, 6], [0, 4, 6], [2, 4, 6], [1, 3, 6], [1, 5, 6], [3, 5, 6]]},
        "two-face (6,) is not a single cycle")


@pytest.mark.parametrize("data, failed", [
    ({k: RP2_DUAL[k] for k in ("name", "dim", "vertices")}, ["orientable", "euler-characteristic"]),
    (TORUS_DUAL, ["euler-characteristic"]),
], ids=["rp2-dual", "torus-dual"])
def test_surface_duals_other_than_the_sphere_exit_2(tmp_path, capsys, data, failed):
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(data))
    assert main(["validate", "--manifold", str(path)]) == 2
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["name"] for c in checks if not c["passed"]] == failed
    assert main(["analyze", "--manifold", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: invalid polytope %s: " % data["name"])
