"""qtoric benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload cli-genus --seed 3 --seconds 30 --trace 0

Run from the repository root.  The script generates the workload's inputs
from the seed (gen.py), starts the timed process (workload.py) on them, then
checks every output (oracles.py) and prints one JSON line: with --trace 0
the end-to-end metrics, with --trace 1 the per-layer metrics.  A full record
(host, per-job rows, spans) goes to bench/results/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import gen
import oracles

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
DEFAULT_SEED = 1
DIGESTS = os.path.join(BENCH, "digests.json")
SETUP_PROBES = 6
# The calibration kernel's time (workload.calibrate) on the reference host,
# 2 vCPU Intel Xeon, Python 3.11.  Reported job times are in seconds of
# that host: each round's wall times are scaled by REF_CALIBRATION_S over
# the mean of the kernel's times just before and just after the round.
REF_CALIBRATION_S = 0.23
CHILD_TIMEOUT_S = 165.0


# ----------------------------------------------------------------------
# inputs


def write_inputs(workload, seed, rounds, work):
    """Generate ``rounds`` rounds into ``work``; returns the job lists and the pairs."""
    all_jobs, pairs = [], {}
    for rnd in range(rounds):
        files, jobs = gen.workload_round(workload, seed, rnd)
        paths = {}
        os.makedirs(os.path.join(work, "r%d" % rnd))
        for i, (key, pair) in enumerate(sorted(files.items())):
            paths[key] = "r%d/f%d.json" % (rnd, i)
            with open(os.path.join(work, paths[key]), "w") as fh:
                json.dump(pair, fh)
            pairs[(rnd, key)] = pair
        for job in jobs:
            job["path"] = paths[job["file"]]
        all_jobs.append(jobs)
    with open(os.path.join(work, "rounds.json"), "w") as fh:
        json.dump(all_jobs, fh)
    return all_jobs, pairs


def rounds_needed(seconds):
    return int(seconds) // 2 + 6


# ----------------------------------------------------------------------
# the timed process


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_probe(work):
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "workload.py"), "--setup-only", work, repr(t0)],
        env=child_env(), capture_output=True, text=True, timeout=60, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError("set-up probe failed:\n" + proc.stderr)
    return json.loads(proc.stdout)["setup_s"]


def timed_run(work, seconds, trace):
    out = os.path.join(work, "result.json")
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "workload.py"), work, out, repr(t0),
         str(seconds), str(trace)],
        env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError("workload process failed:\n" + proc.stderr)
    with open(out) as fh:
        *rounds, result = (json.loads(line) for line in fh)
    result["rounds"] = rounds
    return result


# ----------------------------------------------------------------------
# checks


@functools.lru_cache(maxsize=None)
def cp_oracle(n, q, kind, a=None):
    if kind == "witten":
        return oracles.cp_witten(n, q)
    if kind == "elliptic":
        return oracles.cp_elliptic(n, q)
    return oracles.cp_index(n, q, V=[a])


def family_oracle(spec, kind, q, argv):
    """Series predicted for a CP^n job or a product of two, else None."""
    parts = spec.split("*")
    if not all(p.startswith("cp:") for p in parts):
        return None
    if kind == "index":
        if len(parts) != 1:
            return None
        vec = json.loads(argv[argv.index("--V") + 1])[0]
        return cp_oracle(int(parts[0][3:]), q, "index", sum(vec))
    out = None
    for p in parts:
        s = list(cp_oracle(int(p[3:]), q, kind))
        out = s if out is None else oracles.series_product(out, s)
    return out


def check_job(workload, job, pair, text, twin_text):
    """None when the output is right, else the reason it is wrong."""
    if job.get("twin_of") is not None and text != twin_text:
        return "differs from its standard twin"
    spec, n, m = job["spec"], pair["dim"], len(pair["lambda"])
    count = gen.vertex_count(spec, job.get("cuts", 0))
    kind = job["kind"]
    if kind == "cli":
        kind = job["argv"][0]
        if kind == "genus":
            kind = job["argv"][2]
    if not text:
        return None  # an expected refusal (exit 3) prints nothing on stdout
    out = json.loads(text)
    if kind in ("validate", "open"):
        return None if out["ok"] else "valid pair reported invalid"
    if kind == "build":
        return None if (out["n"], out["gens"], out["euler"]) == (n, m, count) else "model shape"
    if kind == "chi":
        return None if out["chi"] == count else "chi %r != %d vertices" % (out["chi"], count)
    if kind == "analyze":
        cuts = job.get("cuts", 0)
        want = {"vertices": count, "facets": m, "dim": n, "joswig_consistent": True}
        if not cuts and spec.startswith("cube:"):
            want.update(is_even=True, facet_chromatic=n)
        elif not cuts and spec.startswith("cp:"):
            want.update(is_even=False, facet_chromatic=n + 1)
        elif n >= 3:
            want.update(is_even=False)  # the cut facets are simplices: triangles
        bad = [k for k, v in want.items() if out[k] != v]
        return "analyze fields %s" % bad if bad else None
    if kind in ("symmetry-report", "symmetry"):
        report = out.get("report", out)
        colourable = not job.get("cuts") and not spec.startswith("cp:")
        if (report["n"], report["chi"]) != (n, count):
            return "symmetry report n/chi"
        return None if report["index_nonvanishing"] == colourable else "index_nonvanishing"
    series = [Fraction(c) for c in out["series"]]
    if kind == "split":
        complement = [0 if i in job["S"] else 1 for i in range(m)]
        met = gen.even_mod2(pair["lambda"], complement)
        if out["hypotheses_met"] != met:
            return "split hypotheses reported %r, expected %r" % (out["hypotheses_met"], met)
        return "admissible split is not zero" if met and any(series) else None
    if workload == "spin-session" and kind in ("witten", "elliptic"):
        # every spin model here has an S^2 factor, on which both genera vanish
        return "genus of a product with S^2 is not zero" if any(series) else None
    if kind in ("witten", "elliptic", "index"):
        want = family_oracle(spec, kind, job["q"], job["argv"])
        if want is not None and series != want:
            return "series differs from the CP^n oracle"
    return None


def load_digests():
    try:
        with open(DIGESTS) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


# ----------------------------------------------------------------------
# metrics


def speed_factor(rnd):
    return REF_CALIBRATION_S / statistics.mean(rnd["calibration_s"])


def batch_time(rounds):
    """Sum over the round's job slots of each slot's median reference time.

    Every round runs the same job mix, so slot j is the same kind of job in
    each round.  A burst of host noise slows a few jobs of some rounds; the
    per-slot median leaves it out where a median of round totals would not.
    """
    slots = zip(*([row["wall_s"] * speed_factor(r) for row in r["jobs"]] for r in rounds))
    return sum(statistics.median(walls) for walls in slots)


def per_layer(traced):
    inc, slf, cnt = traced["inclusive"], traced["self"], traced["counts"]
    layer = traced["layer_self"]
    terms = cnt.get("cohomology.pair_terms", 0)
    distinct = cnt.get("cohomology.pair_terms_distinct", 0)
    return {
        "cli.self_s": slf.get("cli.main", 0.0),
        "charpair.load_s": inc.get("charpair.load", 0.0),
        "charpair.validate_s": slf.get("charpair.validate", 0.0),
        "charpair.vertex_blocks": cnt.get("charpair.vertex_blocks", 0),
        "polytope.validate_s": inc.get("polytope.validate", 0.0),
        "polytope.chromatic_s": inc.get("polytope.chromatic", 0.0),
        "polytope.vertices": cnt.get("polytope.vertices", 0),
        "cohomology.model_s": slf.get("cohomology.model", 0.0),
        "cohomology.admissible_s": inc.get("cohomology.admissible", 0.0),
        "cohomology.admissible_pairings": cnt.get("cohomology.admissible_pairings", 0),
        "cohomology.pair_s": inc.get("cohomology.pair", 0.0),
        "cohomology.pair_top_calls": cnt.get("cohomology.pair_top_calls", 0),
        "cohomology.pair_terms": terms,
        "cohomology.pair_terms_distinct": distinct,
        "cohomology.reuse_ratio": 1 - distinct / terms if terms else 0.0,
        "qseries.build_s": inc.get("qseries.build", 0.0),
        "polynomial.mul_s": inc.get("polynomial.mul", 0.0),
        "polynomial.mul_calls": cnt.get("polynomial.mul_calls", 0),
        "polynomial.mul_term_pairs": cnt.get("polynomial.mul_term_pairs", 0),
        "index.phi_c_s": inc.get("index.phi_c", 0.0),
        "index.self_s": layer["index"],
        "index.signs_s": inc.get("index.signs", 0.0),
        "symmetry.report_s": inc.get("symmetry.report", 0.0),
    }


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def host_info():
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "platform": platform.platform()}


# ----------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="store this run's output digests as the reference "
                         "(default seed only)")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "qtoric", "__init__.py")):
        print("error: no qtoric sources under %s" % SRC, file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    work = os.path.join(BENCH, "work", tag)
    shutil.rmtree(work, ignore_errors=True)
    try:
        rounds, pairs = write_inputs(args.workload, args.seed,
                                     rounds_needed(args.seconds), work)
        setups = [setup_probe(work) for _ in range(SETUP_PROBES)]
        result = timed_run(work, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(result["setup_s"])

    digests = load_digests().get(args.workload, {}) if args.seed == DEFAULT_SEED else {}
    rows, failed, wrong = [], 0, 0
    for rec in result["rounds"]:
        jobs = rounds[rec["round"]]
        outputs = rec["outputs"]
        for job, row in zip(jobs, rec["jobs"]):
            pair = pairs[(rec["round"], job["file"])]
            twin = job.get("twin_of")
            if row["code"] != job.get("expect", 0):
                failed += 1
                problem = row["error"] or "exit code %r" % row["code"]
            else:
                problem = check_job(args.workload, job, pair, outputs[job["id"]],
                                    outputs[jobs[twin]["id"]] if twin is not None else None)
                if problem is None and job["id"] in digests \
                        and digests[job["id"]] != row["digest"]:
                    problem = "stdout differs from the recorded digest"
                if problem:
                    wrong += 1
            rows.append({
                "id": job["id"], "round": rec["round"], "traced": rec["traced"],
                "call": " ".join(job["argv"]) if job["kind"] == "cli" else job["kind"],
                "spec": job["spec"], "n": pair["dim"], "m": len(pair["lambda"]),
                "vertices": len(pair["vertices"]), "q_order": job.get("q"),
                "wall_s": row["wall_s"], "ref_s": row["wall_s"] * speed_factor(rec),
                "exit_code": row["code"],
                "digest": row["digest"], "problem": problem,
            })
    attempted = len(rows)

    untraced = [r for r in result["rounds"] if not r["traced"]]
    traced = [r for r in result["rounds"] if r["traced"]]
    if args.trace:
        layers = [per_layer(r["trace"]) for r in traced]
        for d, r in zip(layers, traced):
            d.update((k, v * speed_factor(r)) for k, v in d.items() if k.endswith("_s"))
        metrics = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
        metrics["bench.trace_overhead_frac"] = batch_time(traced) / batch_time(untraced) - 1
        metrics["bench.layer_self_frac"] = statistics.median(
            sum(r["trace"]["layer_self"].values()) / r["wall_s"] for r in traced)
    else:
        walls = [row["ref_s"] for row in rows]
        metrics = {
            "setup_s": statistics.median(setups),
            "batch_s": batch_time(untraced),
            "job_p50_s": statistics.median(walls),
            "job_p90_s": statistics.quantiles(walls, n=10)[8],
            "peak_rss_mb": result["peak_rss_kb"] / 1024,
        }

    summary = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host_info(), "setup_probes_s": setups,
        "failed_frac": failed / attempted if attempted else 0.0,
        "wrong_results": wrong, "summary": summary,
        "rounds": [{"round": r["round"], "traced": r["traced"], "wall_s": r["wall_s"],
                    "calibration_s": r["calibration_s"], "speed_factor": speed_factor(r),
                    "trace": r["trace"]} for r in result["rounds"]],
        "span_names": result["span_names"],
        "missing_entry_points": result["missing_entry_points"],
        "jobs": rows,
    }
    os.makedirs(os.path.join(BENCH, "results"), exist_ok=True)
    with open(os.path.join(BENCH, "results", tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if args.record_digests:
        if args.seed != DEFAULT_SEED:
            print("error: digests are recorded for seed %d only" % DEFAULT_SEED,
                  file=sys.stderr)
            return 2
        table = load_digests()
        table[args.workload] = {row["id"]: row["digest"] for row in rows}
        with open(DIGESTS, "w") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
