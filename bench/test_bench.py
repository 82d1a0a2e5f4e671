"""Self-tests of the benchmark's generator and checks.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from math import gcd

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gen  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402


def _det(rows):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def _rounds():
    for name in gen.WORKLOADS:
        for seed in (1, 7):
            files, jobs = gen.workload_round(name, seed, 0)
            yield name, files, jobs


@pytest.mark.parametrize("name,files,jobs", list(_rounds()))
def test_generated_pairs_are_valid(name, files, jobs):
    for key, pair in files.items():
        n = pair["dim"]
        assert all(gcd(*row) == 1 for row in pair["lambda"]), key
        for v in pair["vertices"]:
            assert len(v) == n, key
            assert abs(_det([pair["lambda"][i] for i in v])) == 1, (key, v)
        assert len({tuple(v) for v in pair["vertices"]}) == len(pair["vertices"])
    for job in jobs:
        pair = files[job["file"]]
        assert len(pair["vertices"]) == gen.vertex_count(job["spec"], job.get("cuts", 0))


def test_generated_pairs_pass_qtoric_validation():
    qtoric = pytest.importorskip("qtoric")
    for name in gen.WORKLOADS:
        files, _ = gen.workload_round(name, 3, 0)
        for key, pair in files.items():
            report = qtoric.CharacteristicPair.from_json_dict(pair).validate()
            assert report.ok, (name, key)


def test_vertex_count_formula():
    assert gen.vertex_count("cube:9") == 512
    assert gen.vertex_count("cp:4") == 5
    assert gen.vertex_count("hirzebruch:1*cp:2") == 12
    assert gen.vertex_count("s2xs2*polygon:6*cube:1") == 48
    assert gen.vertex_count("cube:5", 60) == 32 + 60 * 4
    pair = gen.family("cp:3*cp:3")
    assert len(pair["vertices"]) == 16 and pair["dim"] == 6


def test_same_seed_same_inputs():
    for name in gen.WORKLOADS:
        assert gen.workload_round(name, 5, 2) == gen.workload_round(name, 5, 2)
        assert gen.workload_round(name, 5, 2) != gen.workload_round(name, 6, 2)


def test_rebasing_is_unimodular_and_dense():
    import random
    rng = random.Random(0)
    for n in range(2, 10):
        for make in (gen.rebasing_matrix, gen.shear_matrix):
            a = make(n, rng)
            assert abs(_det(a)) == 1
        assert all(x > 0 for row in gen.rebasing_matrix(n, rng) for x in row)


def test_spin_predicate():
    assert gen.is_spin(gen.family("cube:3"))
    assert gen.is_spin(gen.family("cp:3")) and not gen.is_spin(gen.family("cp:4"))
    assert gen.is_spin(gen.family("hirzebruch:2"))
    assert not gen.is_spin(gen.family("hirzebruch:1"))


def test_oracle_known_cp_values():
    # A-hat genus (the q^0 term): -1/8 on CP^2, 3/128 on CP^4, 0 on odd CP^n
    assert oracles.cp_witten(2, 3) == [Fraction(-1, 8), 3, 9, 12]
    assert oracles.cp_witten(4, 3) == [Fraction(3, 128), Fraction(-5, 8),
                                       Fraction(105, 8), Fraction(165, 2)]
    for n in (1, 3, 5):
        assert oracles.cp_witten(n, 3)[0] == 0
    # S^2 = CP^1: both genera vanish, hence on every product with an S^2 factor
    assert not any(oracles.cp_witten(1, 4)) and not any(oracles.cp_elliptic(1, 4))
    # index of S^2 twisted by O(2) = TS^2 is 2 (the CLI test suite's value)
    assert oracles.cp_index(1, 2, V=[2]) == [2, 0, 0]


def _job(name, seed, pred):
    files, jobs = gen.workload_round(name, seed, 0)
    for job in jobs:
        if pred(job):
            return job, files[job["file"]], jobs
    raise AssertionError("no such job")


def _series_text(series):
    return json.dumps({"series": [str(c) for c in series]})


def test_checks_reject_perturbed_series():
    job, pair, _ = _job("cli-genus", 1, lambda j: j["spec"] == "cp:4" and
                        j["argv"][:3] == ["genus", "--kind", "witten"])
    good = oracles.cp_witten(4, job["q"])
    assert run.check_job("cli-genus", job, pair, _series_text(good), None) is None
    bad = list(good)
    bad[2] += Fraction(1, 3)
    assert run.check_job("cli-genus", job, pair, _series_text(bad), None)


def test_checks_reject_product_and_index_errors():
    job, pair, _ = _job("cli-genus", 1, lambda j: j["spec"] == "cp:3*cp:3")
    good = run.family_oracle(job["spec"], "witten", job["q"], job["argv"])
    assert good == oracles.series_product(oracles.cp_witten(3, job["q"]),
                                          oracles.cp_witten(3, job["q"]))
    assert run.check_job("cli-genus", job, pair, _series_text(good), None) is None
    assert run.check_job("cli-genus", job, pair, _series_text([1] + good[1:]), None)
    job, pair, _ = _job("cli-genus", 1, lambda j: j["argv"][0] == "index")
    a = sum(json.loads(job["argv"][2])[0])
    good = oracles.cp_index(pair["dim"], job["q"], V=[a])
    assert run.check_job("cli-genus", job, pair, _series_text(good), None) is None
    assert run.check_job("cli-genus", job, pair, _series_text([good[0] + 1] + good[1:]), None)


def test_checks_reject_twin_and_combinatorial_errors():
    job, pair, jobs = _job("cli-genus", 1, lambda j: j.get("twin_of") is not None)
    text = _series_text(oracles.cp_witten(pair["dim"], job["q"]))
    assert run.check_job("cli-genus", job, pair, text, text) is None
    assert run.check_job("cli-genus", job, pair, text, text + " ") is not None
    job, pair, _ = _job("cli-combinatorics", 1, lambda j: j["argv"] == ["chi"])
    count = len(pair["vertices"])
    assert run.check_job("cli-combinatorics", job, pair,
                         json.dumps({"chi": count}), None) is None
    assert run.check_job("cli-combinatorics", job, pair,
                         json.dumps({"chi": count + 1}), None)


def test_checks_reject_nonzero_admissible_split():
    job, pair, _ = _job("spin-session", 1, lambda j: j["kind"] == "split")
    zero = {"series": ["0", "0", "0"], "hypotheses_met": True}
    assert run.check_job("spin-session", job, pair, json.dumps(zero), None) is None
    assert run.check_job("spin-session", job, pair,
                         json.dumps(dict(zero, series=["0", "1", "0"])), None)
    assert run.check_job("spin-session", job, pair,
                         json.dumps(dict(zero, hypotheses_met=False)), None)
