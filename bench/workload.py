"""The timed process: one client running a workload's jobs in a closed loop.

Usage (run.py starts it; the inputs come from gen.py):

    PYTHONPATH=src python3 bench/workload.py INPUT_DIR OUT_FILE T0 SECONDS TRACE
    PYTHONPATH=src python3 bench/workload.py --setup-only INPUT_DIR T0

T0 is the parent's ``time.monotonic()`` just before it started this process,
so the set-up time covers the interpreter, ``import qtoric`` and reading the
job list.  Each job starts when the previous one has ended.  Rounds (one
seeded batch of jobs each) run until SECONDS have passed and at least
MIN_JOBS jobs are done.  A fixed calibration kernel runs before the first
round and after each one.  With TRACE=1, untraced and traced rounds
alternate, which gives the tracing overhead.

This process imports qtoric and nothing of the checks: every job's output
is written to OUT_FILE (one JSON line per round, then a summary line) and
judged by run.py afterwards.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction

import qtoric
from qtoric import charpair, cli, cohomology, index, polynomial, polytope, qseries, symmetry

MODULES = {"cli": cli, "charpair": charpair, "cohomology": cohomology,
           "index": index, "polynomial": polynomial, "polytope": polytope,
           "qseries": qseries, "symmetry": symmetry}

JOB_LIMIT_S = 30.0      # a job over this is stopped and counted as failed
MIN_JOBS = 100          # enough jobs for a p90 with 10 samples beyond it
LOOP_CAP_S = 120.0      # no new round after this, whatever SECONDS says


def calibrate():
    """Time a fixed piece of pure-Python work shaped like the program's inner
    loops: sorted-tuple keys, dict updates and small Fraction sums.

    run.py scales each round by this kernel's speed around it, which takes
    out most of the drift in host speed between and within runs.  The
    collector is off, so the kernel's cost does not depend on the heap that
    the jobs left behind.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        acc = {}
        for i in range(1, 60000):
            key = tuple(sorted((i % 5, i % 7, i % 11)))
            acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 13 + 1, i % 17 + 1)
        return time.perf_counter() - start
    finally:
        gc.enable()


class JobTimeout(BaseException):
    """Raised by the wall-limit alarm; not an Exception, so no handler eats it."""


def _alarm(signum, frame):
    raise JobTimeout()


class Session:
    """Library state of the spin-session workload: one model per input file."""

    def __init__(self, input_dir):
        self.input_dir = input_dir
        self.models = {}

    def path(self, job):
        return os.path.join(self.input_dir, job["path"])

    def run(self, job):
        kind = job["kind"]
        if kind == "cli":
            return run_cli(job["argv"] + ["--manifold", self.path(job)])
        if kind == "open":
            return run_cli(["validate", "--manifold", self.path(job)])
        if kind == "build":
            with open(self.path(job)) as fh:
                data = json.load(fh)
            pair = charpair.CharacteristicPair.from_json_dict(data)
            model = pair.to_index_model()
            self.models[job["file"]] = (pair, model)
            return 0, json.dumps({"name": model.name, "n": model.n,
                                  "gens": model.gen_count, "euler": model.euler},
                                 sort_keys=True)
        pair, model = self.models[job["file"]]
        q = job.get("q")
        if kind == "witten":
            out = index.witten_genus(model, q_order=q).as_dict()
        elif kind == "elliptic":
            out = index.elliptic_genus(model, q_order=q).as_dict()
        elif kind == "split":
            out = index.verify_exhaustive_split_vanishing(model, job["S"], q_order=q)
        elif kind == "phi":
            out = index.phi_c(model, job["V"], job["W"], q_order=q).as_dict()
        elif kind == "symmetry":
            d_min, coloring = polytope.facet_chromatic(pair.polytope)
            nonzero = False
            if d_min == pair.n:
                nonzero, _ = index.exists_nonvanishing_signs(model, coloring)
            report = symmetry.symmetry_report(model, index_nonvanishing=nonzero)
            out = {"d_min": d_min, "index_nonvanishing": nonzero,
                   "report": report.as_dict()}
        else:
            raise ValueError("unknown job kind %r" % kind)
        return 0, json.dumps(out, sort_keys=True)


def run_cli(argv):
    """In-process ``qtoric.cli.main(argv)``: exit code and captured stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def run_round(session, jobs):
    rows, outputs = [], {}
    start = time.perf_counter()
    for job in jobs:
        t = time.perf_counter()
        error = None
        signal.setitimer(signal.ITIMER_REAL, JOB_LIMIT_S)
        try:
            code, text = session.run(job)
        except JobTimeout:
            code, text, error = None, "", "timeout after %gs" % JOB_LIMIT_S
        except Exception as exc:  # recorded as a failed job; the run goes on
            code, text, error = None, "", "%s: %s" % (type(exc).__name__, exc)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - t
        rows.append({"id": job["id"], "wall_s": wall, "code": code, "error": error,
                     "digest": hashlib.sha256(text.encode()).hexdigest()[:16]})
        outputs[job["id"]] = text
    return time.perf_counter() - start, rows, outputs


def trace_totals(tracer):
    return {"self": dict(tracer.self_time), "inclusive": dict(tracer.inclusive),
            "counts": dict(tracer.counts), "layer_self": tracer.layer_self()}


def main(argv):
    if argv[0] == "--setup-only":
        input_dir, t0 = argv[1], float(argv[2])
        with open(os.path.join(input_dir, "rounds.json")) as fh:
            json.load(fh)
        print(json.dumps({"setup_s": time.monotonic() - t0}))
        return 0
    input_dir, out_file, t0, seconds, trace = argv
    t0, seconds, trace = float(t0), float(seconds), trace == "1"
    with open(os.path.join(input_dir, "rounds.json")) as fh:
        rounds = json.load(fh)
    setup_s = time.monotonic() - t0

    signal.signal(signal.SIGALRM, _alarm)
    if trace:
        import spans
    session = Session(input_dir)
    done, missing = 0, []
    loop_start = time.perf_counter()
    # one JSON line per round, written between rounds, so that stored
    # outputs do not add to the peak RSS; the last line is the summary
    calibrate()  # warm-up: the first pass allocates and specializes
    calibration = [calibrate()]
    with open(out_file, "w") as fh:
        for rnd, jobs in enumerate(rounds):
            elapsed = time.perf_counter() - loop_start
            enough = elapsed >= LOOP_CAP_S or (elapsed >= seconds and done >= MIN_JOBS)
            # a traced run stops only after a traced round, so it has one of each
            if done and enough and not (trace and rnd % 2):
                break
            traced = trace and rnd % 2 == 1
            tracer = installed = None
            if traced:
                tracer = spans.Tracer()
                installed = spans.Installed(tracer, MODULES)
                missing = installed.missing
            try:
                wall, rows, outputs = run_round(session, jobs)
            finally:
                if installed:
                    installed.restore()
            session.models.clear()
            calibration.append(calibrate())
            done += len(rows)
            fh.write(json.dumps({"round": rnd, "traced": traced, "wall_s": wall,
                                 "calibration_s": calibration[-2:],
                                 "jobs": rows, "outputs": outputs,
                                 "trace": trace_totals(tracer) if traced else None}) + "\n")
        fh.write(json.dumps({
            "setup_s": setup_s,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "qtoric_version": getattr(qtoric, "__version__", None),
            "missing_entry_points": missing,
            "span_names": spans.SPAN_NAMES if trace else None,
        }) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
