"""Command-line front end.

Reads manifolds as JSON (from a file or stdin), dispatches the library
computations, and emits machine-readable JSON (default) or plain text.
Rationals are serialized as strings "p/q" so nothing is lost to floats.
The JSON is the same bytes as json.dumps(obj, sort_keys=True, indent=2),
written by _json_text with strings escaped and lists of plain integers
joined at C level.  It writes dicts, lists, tuples, str, int, bool and None
only, so a float (or a Fraction) in an answer is an internal-consistency
error (exit 4).

Exit codes: 0 success, 2 validation failure or malformed input,
3 hypothesis unmet or budget exceeded (a refused computation, whose stderr
reads "budget exceeded: ..."), 4 internal-consistency error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii

from . import charpair as cp
from . import polytope as pt
from .cohomology import DEFAULT_SEED
from .errors import (
    BudgetExceededError,
    HypothesisUnmetError,
    InternalConsistencyError,
    QtoricError,
    StructureError,
    ValidationError,
)
from .index import (
    check_q_order,
    colored_index,
    elliptic_genus,
    exists_nonvanishing_signs,
    phi_c,
    verify_connected_sum_formula,
    verify_exhaustive_split_vanishing,
    verify_product_formula,
    witten_genus,
)
from .symmetry import alpha_table, symmetry_report

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_HYPOTHESIS = 3
EXIT_INTERNAL = 4

# Python's limit on the digits of an integer string (0: none), under which the
# inputs are read; main lifts it for the exact answers.
_INPUT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()

_FAMILIES = {
    "cube": cp.cube_pair,
    "simplex": cp.cp_pair,
    "cp": cp.cp_pair,
    "polygon": cp.polygon_pair,
    "hirzebruch": cp.hirzebruch_pair,
}
_PLAIN = {
    "s2": cp.sphere_pair,
    "s2xs2": cp.s2xs2_pair,
}


@contextlib.contextmanager
def _digit_limit(limit):
    """Integer strings of more than limit digits (0: any) are refused within,
    and the limit is restored after.  Python has the limit from 3.10.7 on."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


def generate_pair(spec: str) -> cp.CharacteristicPair:
    """Built-in families: cube:n, simplex:n, polygon:k, hirzebruch:k, cp:n,
    s2, s2xs2, and products joined with '*'."""
    parts = spec.split("*")
    pairs = []
    for part in parts:
        part = part.strip()
        if part in _PLAIN:
            pairs.append(_PLAIN[part]())
            continue
        if ":" not in part:
            raise StructureError("unknown family %r" % part)
        fam, _, arg = part.partition(":")
        if fam not in _FAMILIES:
            raise StructureError("unknown family %r" % fam)
        try:
            with _digit_limit(_INPUT_DIGITS):
                k = int(arg)
        except ValueError:
            raise StructureError("bad family parameter in %r" % part)
        pairs.append(_FAMILIES[fam](k))
    out = pairs[0]
    for other in pairs[1:]:
        out = out.product_pair(other)
    return out


def _read_json(path: str):
    try:
        with _digit_limit(_INPUT_DIGITS):
            if path == "-":
                data = json.load(sys.stdin)
            else:
                with open(path) as fh:
                    data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad UTF-8, JSON or digits
        raise StructureError("cannot read manifold JSON from %r: %s" % (path, exc))
    if not isinstance(data, dict):
        raise StructureError("manifold JSON must be an object, got %r" % (data,))
    return data


def load_pair(path: str) -> cp.CharacteristicPair:
    return cp.CharacteristicPair.from_json_dict(_read_json(path))


def load_manifold(path: str):
    """The pair if the JSON has a 'lambda' matrix, else the bare polytope."""
    data = _read_json(path)
    if "lambda" in data:
        return cp.CharacteristicPair.from_json_dict(data)
    return pt.SimplePolytope.from_json_dict(data)


def _write(text):
    """Print text and flush it.  A reader that has closed stdout gets nothing
    more: stdout then points at os.devnull, and the command carries on to
    its own exit code."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _json_text(obj, pad="\n"):
    """obj as json.dumps(obj, sort_keys=True, indent=2) writes it, pad being
    the line break and indent of obj's own line.  A list of plain ints is
    joined in one pass; any type json would not write as the text of an
    exact answer raises InternalConsistencyError.  A module-level function
    and no encoder closures: a call leaves no cyclic garbage."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if set(map(type, obj)) == {int}:
            items = map(int.__repr__, obj)
        else:
            items = [_json_text(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return "{" + inner + ("," + inner).join(
            [_json_key(k) + ": " + _json_text(obj[k], inner) for k in sorted(obj)]) + pad + "}"
    raise InternalConsistencyError("cannot write a %s as exact JSON: %r"
                                   % (type(obj).__name__, obj))


def _json_key(key):
    """A dict key as json spells it: a string, or an int, bool or None
    quoted; any other key raises InternalConsistencyError."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, int):
        return '"%s"' % _json_text(key)
    raise InternalConsistencyError("cannot write a %s as a JSON key: %r"
                                   % (type(key).__name__, key))


def _emit(args, payload, text_lines=None):
    if args.format == "json":
        _write(_json_text(payload))
    else:
        _write("\n".join(text_lines or [json.dumps(payload, sort_keys=True)]))


def _parse_bundle(arg, flag):
    if arg is None:
        return None
    try:
        with _digit_limit(_INPUT_DIGITS):
            data = json.loads(arg)
    except (ValueError, RecursionError) as exc:
        raise StructureError("%s: bundle spec must be JSON like [[1,0,1,0]]: %s" % (flag, exc))
    if not isinstance(data, list):
        raise StructureError("%s: bundle spec must be a list of coefficient vectors" % flag)
    return data


def _parse_ints(arg, what):
    """Integers separated by commas or spaces, e.g. '0,1'."""
    try:
        with _digit_limit(_INPUT_DIGITS):
            return [int(x) for x in arg.replace(",", " ").split()]
    except ValueError:
        raise StructureError("%s must be integers like '0,1', got %r" % (what, arg))


def _parse_signs(arg, m):
    if arg is None:
        return None
    if set(arg) <= {"+", "-"}:
        signs = [1 if ch == "+" else -1 for ch in arg]
    else:
        signs = _parse_ints(arg, "--signs")
    if len(signs) != m:
        raise StructureError("signs need one entry per facet (%d)" % m)
    return signs


# ----------------------------------------------------------------------
# subcommand handlers


def cmd_generate(args):
    pair = generate_pair(args.family)
    pair.require_valid()
    _write(_json_text(pair.to_json_dict()))
    return EXIT_OK


def cmd_validate(args):
    report = load_manifold(args.manifold).validate()
    _emit(args, report.as_dict(),
          ["%s: %s %s" % (c.name, "ok" if c.passed else "FAIL", c.detail)
           for c in report.checks])
    return EXIT_OK if report.ok else EXIT_VALIDATION


def cmd_analyze(args):
    manifold = load_manifold(args.manifold)
    poly = getattr(manifold, "polytope", manifold).require_valid()
    even = poly.is_even()
    bip = poly.is_vertex_graph_bipartite()
    d_min, coloring = pt.facet_chromatic(poly)
    joswig = (even == bip == (d_min == poly.dim))
    payload = {
        "name": poly.name,
        "dim": poly.dim,
        "facets": poly.facet_count,
        "vertices": len(poly.vertices),
        "edges": len(poly.vertices) * poly.dim // 2,  # n distinct neighbours per vertex
        "two_faces": poly.two_face_size_list(),
        "is_even": even,
        "vertex_graph_bipartite": bip,
        "facet_chromatic": d_min,
        "coloring": coloring.as_dict(),
        "joswig_consistent": joswig,
    }
    _emit(args, payload)
    if not joswig:
        raise InternalConsistencyError(
            "evenness, bipartiteness and n-colorability disagree")
    return EXIT_OK


def cmd_chi(args):
    pair = load_pair(args.manifold)
    chi = pair.euler_characteristic()
    _emit(args, {"name": pair.name, "chi": chi}, [str(chi)])
    return EXIT_OK


def cmd_index(args):
    pair = load_pair(args.manifold)
    model = pair.to_index_model(seed=args.seed)
    result = phi_c(model, _parse_bundle(args.V, "--V"), _parse_bundle(args.W, "--W"),
                   q_order=args.q_order)
    _emit(args, result.as_dict(),
          ["phi_c(%s) = %s" % (model.name,
                               " + ".join("%s q^%d" % (c, j)
                                          for j, c in enumerate(result.series)))])
    return EXIT_OK


def cmd_genus(args):
    pair = load_pair(args.manifold)
    model = pair.to_index_model(seed=args.seed)
    if args.kind == "witten":
        result = witten_genus(model, q_order=args.q_order)
    else:
        result = elliptic_genus(model, q_order=args.q_order)
    _emit(args, result.as_dict())
    return EXIT_OK


def cmd_color_index(args):
    pair = load_pair(args.manifold)
    model = pair.to_index_model(seed=args.seed)
    d_min, coloring = pt.facet_chromatic(pair.polytope)
    if d_min != pair.n:
        raise HypothesisUnmetError(
            "orbit polytope is not n-colorable (d_min=%d, n=%d)" % (d_min, pair.n))
    signs = _parse_signs(args.signs, pair.m)
    result = colored_index(model, coloring, signs, q_order=args.q_order)
    payload = result.as_dict()
    payload["coloring"] = coloring.as_dict()
    _emit(args, payload)
    return EXIT_OK


def cmd_verify(args):
    pair = load_pair(args.manifold)
    model = pair.to_index_model(seed=args.seed)
    if args.theorem == "split":
        if args.S is None:
            raise StructureError("verify split needs --S like '0,1'")
        subset = _parse_ints(args.S, "--S")
        payload = verify_exhaustive_split_vanishing(model, subset, q_order=args.q_order)
        _emit(args, payload)
        if not payload["hypotheses_met"]:
            return EXIT_HYPOTHESIS
        if not payload["is_zero"]:
            raise InternalConsistencyError("admissible split with nonzero index")
        return EXIT_OK
    if args.other is None:
        raise StructureError("verify %s needs --other" % args.theorem)
    other = load_pair(args.other).to_index_model(seed=args.seed)
    V1, W1 = _parse_bundle(args.V1, "--V1"), _parse_bundle(args.W1, "--W1")
    V2, W2 = _parse_bundle(args.V2, "--V2"), _parse_bundle(args.W2, "--W2")
    if args.theorem == "product":
        payload = verify_product_formula(model, V1, W1, other, V2, W2,
                                         q_order=args.q_order)
    else:
        payload = verify_connected_sum_formula(
            model, V1, W1, other, V2, W2, q_order=args.q_order,
            orientation_sign=args.orientation_sign)
    _emit(args, payload)
    if not payload.get("hypotheses_met", True):
        return EXIT_HYPOTHESIS
    if not payload["equal"]:
        raise InternalConsistencyError("formula verification failed")
    return EXIT_OK


def cmd_symmetry_report(args):
    pair = load_pair(args.manifold)
    model = pair.to_index_model(seed=args.seed)
    nonzero = args.assume_index_nonzero
    if not nonzero:
        try:
            d_min, coloring = pt.facet_chromatic(pair.polytope)
            if d_min == pair.n:
                nonzero, _ = exists_nonvanishing_signs(model, coloring)
        except BudgetExceededError:
            nonzero = False
    report = symmetry_report(model, index_nonvanishing=nonzero)
    _emit(args, report.as_dict())
    return EXIT_OK


def cmd_alpha(args):
    if args.max_rank < 1:
        raise StructureError("--max-rank must be at least 1, got %d" % args.max_rank)
    rows = [{"l": l, "alpha": str(value), "witnesses": [g.name for g in witnesses]}
            for l, (value, witnesses) in enumerate(alpha_table(args.max_rank), 1)]
    _emit(args, {"alpha": rows},
          ["l=%2d  alpha=%4s  witnesses: %s" %
           (r["l"], r["alpha"], ", ".join(r["witnesses"]) or "none") for r in rows])
    return EXIT_OK


# ----------------------------------------------------------------------


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it
    unchanged, so repeated in-process calls of `main` can share it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--q-order", type=int, dest="q_order",
                        default=argparse.SUPPRESS,
                        help="truncation order in q (default 4)")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="seed for the generic localization points")
    common.add_argument("--format", choices=("json", "text"),
                        default=argparse.SUPPRESS)

    parser = argparse.ArgumentParser(
        prog="qtoric", parents=[common],
        description="Twisted Dirac indices, genera, facet colorings and "
                    "symmetry bounds for quasitoric manifolds")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[common],
                       help="emit a built-in family as pair JSON")
    p.add_argument("family", help="cube:n, simplex:n, polygon:k, hirzebruch:k, "
                                  "cp:n, s2, s2xs2, or products joined with '*'")
    p.set_defaults(func=cmd_generate)

    def with_manifold(name, **kw):
        q = sub.add_parser(name, parents=[common], **kw)
        q.add_argument("--manifold", default="-",
                       help="path to manifold JSON, '-' for stdin (default)")
        return q

    p = with_manifold("validate", help="validate a polytope or pair")
    p.set_defaults(func=cmd_validate)

    p = with_manifold("analyze", help="evenness, bipartiteness, chromatic number")
    p.set_defaults(func=cmd_analyze)

    p = with_manifold("chi", help="Euler characteristic")
    p.set_defaults(func=cmd_chi)

    p = with_manifold("index", help="twisted index phi_c(M;V,W)")
    p.add_argument("--V", help="bundle spec JSON, e.g. [[1,0,1,0]]")
    p.add_argument("--W", help="bundle spec JSON")
    p.set_defaults(func=cmd_index)

    p = with_manifold("genus", help="Witten or elliptic genus")
    p.add_argument("--kind", choices=("witten", "elliptic"), required=True)
    p.set_defaults(func=cmd_genus)

    p = with_manifold("color-index", help="index twisted by a minimal facet coloring")
    p.add_argument("--signs", help="per-facet signs like '++-+' or '1,-1,...'")
    p.set_defaults(func=cmd_color_index)

    p = with_manifold("verify", help="numerically verify an index theorem")
    p.add_argument("--theorem", choices=("split", "product", "connsum"), required=True)
    p.add_argument("--S", help="facet subset for split, e.g. '0,1'")
    p.add_argument("--other", help="second manifold JSON for product/connsum")
    p.add_argument("--V1"), p.add_argument("--W1")
    p.add_argument("--V2"), p.add_argument("--W2")
    p.add_argument("--orientation-sign", type=int, default=1,
                   choices=(-1, 1), dest="orientation_sign")
    p.set_defaults(func=cmd_verify)

    p = with_manifold("symmetry-report", help="symmetry-degree bounds and candidates")
    p.add_argument("--assume-index-nonzero", action="store_true",
                   dest="assume_index_nonzero")
    p.set_defaults(func=cmd_symmetry_report)

    p = sub.add_parser("alpha", parents=[common], help="dump the alpha table")
    p.add_argument("--max-rank", type=int, default=8, dest="max_rank")
    p.set_defaults(func=cmd_alpha)

    return parser


def main(argv=None) -> int:
    # The global flags' defaults go in a fresh namespace, not on their
    # actions, which the subcommands share: a default set there would
    # overwrite a flag given before the subcommand.
    args = build_parser().parse_args(
        argv, argparse.Namespace(q_order=4, seed=DEFAULT_SEED, format="json"))
    try:
        check_q_order(args.q_order)
        with _digit_limit(0):  # an exact answer may have any number of digits
            return args.func(args)
    except (StructureError, ValidationError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION
    except HypothesisUnmetError as exc:
        print("hypothesis unmet: %s" % exc, file=sys.stderr)
        return EXIT_HYPOTHESIS
    except BudgetExceededError as exc:
        print("budget exceeded: %s" % exc, file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (InternalConsistencyError, QtoricError) as exc:
        print("internal consistency error: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
