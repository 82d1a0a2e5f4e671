"""The exit-code contract under fuzzing.

Built-in pairs have their lambda rows, signs and vertex lists mutated, and
each mutant goes through a subcommand of `cli.main` with random twist,
sign, subset and truncation arguments.  Whatever the input, the command
must end with exit code 0, 2, 3 or 4 and never with a traceback.  The runs
are derandomized and keep no example database; conftest.py moves
Hypothesis's other storage to a temporary directory.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qtoric import cli

BASES = {spec: cli.generate_pair(spec).to_json_dict()
         for spec in ("s2", "cp:2", "cp:3", "hirzebruch:1", "hirzebruch:2", "s2xs2",
                      "cube:3", "polygon:5", "cp:2*s2")}

SMALL = st.integers(-3, 3)
JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                 st.floats(allow_nan=True, allow_infinity=True),
                 st.integers(-10 ** 30, 10 ** 30), st.lists(SMALL, max_size=3),
                 st.dictionaries(st.text(max_size=2), SMALL, max_size=2))
ENTRY = st.one_of(SMALL, SMALL, JUNK)


def _mutate_list(data, rows, entry, label):
    """One edit of a list: an entry, a deletion, a duplicate or a new item."""
    if not isinstance(rows, list) or not rows:
        return
    k = data.draw(st.integers(0, len(rows) - 1), label=label + " index")
    kind = data.draw(st.sampled_from(("entry", "delete", "duplicate", "append", "replace")),
                     label=label + " edit")
    if kind == "delete":
        del rows[k]
    elif kind == "duplicate":
        rows.append(rows[k])
    elif kind == "append":
        rows.append(data.draw(entry, label=label + " new"))
    elif kind == "replace":
        rows[k] = data.draw(JUNK, label=label + " junk")
    elif isinstance(rows[k], list) and rows[k]:
        row = list(rows[k])
        row[data.draw(st.integers(0, len(row) - 1), label=label + " column")] = data.draw(
            ENTRY, label=label + " value")
        rows[k] = row
    else:
        rows[k] = data.draw(entry, label=label + " value")


def _mutant(data):
    spec = data.draw(st.sampled_from(sorted(BASES)), label="pair")
    pair = json.loads(json.dumps(BASES[spec]))
    m = len(pair["lambda"])
    rows = st.lists(SMALL, min_size=1, max_size=4)
    vertex = st.lists(st.integers(-1, m), min_size=1, max_size=4)
    for _ in range(data.draw(st.sampled_from((0, 1, 1, 2, 3)), label="edits")):
        key = data.draw(st.sampled_from(
            ("lambda", "lambda", "signs", "vertices", "vertices", "dim", "drop")), label="field")
        if key == "lambda":
            _mutate_list(data, pair.get("lambda"), rows, "lambda")
        elif key == "signs":
            _mutate_list(data, pair.get("signs"), st.sampled_from((1, -1, 0, 2)), "signs")
        elif key == "vertices":
            _mutate_list(data, pair.get("vertices"), vertex, "vertices")
        elif key == "dim":
            pair["dim"] = data.draw(ENTRY, label="dim")
        else:
            pair.pop(data.draw(st.sampled_from(sorted(pair)), label="dropped"), None)
    return pair, m


# integers of about Python's 4,300-digit reading limit, and lists nested
# about as deep as the JSON reader's recursion allows, or far deeper
DIGITS = st.integers(4295, 4305).map(lambda k: "7" * k)
DEPTH = st.one_of(st.integers(990, 1010), st.just(100000))


def _bundle(m):
    vectors = st.one_of(st.lists(st.lists(SMALL, min_size=m, max_size=m), max_size=3),
                        st.lists(st.lists(SMALL, max_size=m + 1), max_size=3))
    return st.one_of(st.none(), vectors.map(json.dumps), JUNK.map(json.dumps),
                     st.sampled_from(("[[1,", "[[1.5]]", '[["a"]]', "[[true]]", "{}")),
                     DIGITS.map(lambda d: "[[%s]]" % d),
                     DEPTH.map(lambda k: "[" * k + "]" * k))


def _manifold(data, pair):
    """The pair as the bytes of a manifold file: its JSON, or that JSON with
    a lambda entry of many digits, wrapped in deeply nested lists, or with
    raw bytes in front (often not UTF-8)."""
    text = json.dumps(pair)
    form = data.draw(st.sampled_from(("json", "json", "digits", "nested", "bytes")),
                     label="manifold form")
    if form == "digits" and pair.get("lambda"):
        text = json.dumps(dict(pair, **{"lambda": "BIG"})).replace(
            '"BIG"', "[[%s]]" % data.draw(DIGITS, label="digits"))
    elif form == "nested":
        depth = data.draw(DEPTH, label="depth")
        text = "[" * depth + text + "]" * depth
    raw = text.encode()
    if form == "bytes":
        raw = data.draw(st.binary(min_size=1, max_size=4), label="raw bytes") + raw
    return raw


def _arguments(data, m):
    command = data.draw(st.sampled_from(
        ("validate", "chi", "analyze", "index", "genus", "color-index", "verify",
         "symmetry-report")), label="command")
    argv = [command]
    q_order = data.draw(st.sampled_from(
        ("0", "1", "2", "0", "1", "2", "-1", "1.5", "40", "1000000000")), label="q-order")
    argv += ["--q-order", q_order, "--seed", str(data.draw(st.integers(-5, 10 ** 6)))]
    if command == "index":
        for flag in ("--V", "--W"):
            value = data.draw(_bundle(m), label=flag)
            if value is not None:
                argv += [flag, value]
    elif command == "genus":
        argv += ["--kind", data.draw(st.sampled_from(("witten", "elliptic")))]
    elif command == "color-index":
        signs = data.draw(st.one_of(
            st.none(), st.text("+-", min_size=m, max_size=m), st.text("+-", max_size=m + 1),
            st.lists(st.sampled_from((1, -1, 0, 2)), max_size=m + 1).map(
                lambda xs: ",".join(map(str, xs))),
            st.text(max_size=4)), label="signs")
        if signs is not None:
            argv += ["--signs", signs]
    elif command == "verify":
        theorem = data.draw(st.sampled_from(("split", "product", "connsum")), label="theorem")
        argv += ["--theorem", theorem]
        if theorem == "split":
            subset = data.draw(st.one_of(
                st.none(), st.lists(st.integers(-1, m), max_size=m).map(
                    lambda xs: ",".join(map(str, xs))),
                st.text(max_size=4)), label="S")
            if subset is not None:
                argv += ["--S", subset]
        else:
            argv += ["--other", "OTHER"]
            for flag in ("--V1", "--W1", "--V2", "--W2"):
                value = data.draw(_bundle(m), label=flag)
                if value is not None:
                    argv += [flag, value]
    elif command == "symmetry-report" and data.draw(st.booleans(), label="assume"):
        argv.append("--assume-index-nonzero")
    return argv


def _run(argv, manifold):
    """cli.main on the manifold given as stdin: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(manifold)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=400, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_exit_code_contract_on_mutated_pairs(data):
    pair, m = _mutant(data)
    argv = _arguments(data, m)
    with tempfile.TemporaryDirectory() as tmp:
        other = os.path.join(tmp, "other.json")
        with open(other, "wb") as fh:
            fh.write(_manifold(data, pair))
        argv = [other if a == "OTHER" else a for a in argv]
        if data.draw(st.booleans(), label="manifold from a file"):
            argv += ["--manifold", other]
        code, _, err = _run(argv, json.dumps(pair))
    assert code in (0, 2, 3, 4), (argv, pair, code, err)
    assert "Traceback" not in err, (argv, pair, err)
