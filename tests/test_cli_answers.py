"""An exact answer of any length.

Python refuses to convert an integer of more than 4,300 digits to a string.
The CLI reads its inputs under that limit (an input past it exits 2, see
test_cli.py) and lifts it for the answer, which it writes exactly; main
leaves the interpreter's limit as it found it.
"""

import json
import sys

import pytest

from qtoric.cli import generate_pair, main
from qtoric.index import phi_c

pytestmark = pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                                reason="this Python has no digit limit")


def test_an_answer_past_the_digit_limit_is_written_exactly(tmp_path, capsys):
    """cp:2 with V = N u_0, N (u_0 + u_1), N = 10^2200 + 1: the q^0
    coefficient has more than 4,300 digits, and stdout matches phi_c."""
    big = 10 ** 2200 + 1
    V = [[big, 0, 0], [big, big, 0]]
    path = tmp_path / "cp2.json"
    path.write_text(json.dumps(generate_pair("cp:2").to_json_dict()))
    limit = sys.get_int_max_str_digits()
    argv = ["--q-order", "1", "index", "--V", json.dumps(V), "--manifold", str(path)]
    assert main(argv) == 0
    assert sys.get_int_max_str_digits() == limit
    out, err = capsys.readouterr()
    assert err == ""
    series = json.loads(out)["series"]
    assert len(series[0]) > 4300
    expected = phi_c(generate_pair("cp:2").to_index_model(), V, q_order=1).series
    sys.set_int_max_str_digits(0)
    try:
        assert series == [str(c) for c in expected]
    finally:
        sys.set_int_max_str_digits(limit)
