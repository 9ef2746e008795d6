"""One workload process: set up, run the timed jobs, check, report.

Started by ``run.py``, never by hand. The BLAS thread variables are set
before numpy is imported. The last stdout line is one JSON object.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
SRC = os.path.join(CHECKOUT, "src")
sys.path.insert(0, SRC)

import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import HookGuardError, Tracer  # noqa: E402


def _import_package():
    import logsymrate
    import logsymrate.cli  # noqa: F401  (submodules used as attributes below)
    import logsymrate.diagnostics  # noqa: F401
    import logsymrate.synthetic  # noqa: F401
    path = os.path.realpath(logsymrate.__file__)
    if not path.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"logsymrate imported from {path}, not from {SRC}")
    return logsymrate


def _environment() -> dict:
    """Versions, and the BLAS thread count as OpenBLAS reports it."""
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                threads = getattr(lib, sym)()
                break
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads}


def run_job(lsr, probe, job, tracer=None):
    """One closed-loop job: returns (seconds, record). With a tracer, the
    ``cli.main`` call is the job's root span."""
    out, err = io.StringIO(), io.StringIO()
    crash = None

    def call():
        return lsr.cli.main(list(job.argv))

    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = tracer.run_job(job.index, call) if tracer else call()
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a crashed job is recorded as failed; the run goes on
        rc, crash = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return seconds, reference.job_record(job, rc, crash, probe.take(), out.getvalue(),
                                         err.getvalue())


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", default="full", choices=sorted(workloads.SCALES))
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() when the launcher started this process")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--reference", required=True)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    wl = workloads.WORKLOADS[args.workload]

    lsr = _import_package()
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr)
    try:
        tracer = Tracer() if args.trace else None
    except HookGuardError as exc:
        print(f"hook guard: {exc}", file=sys.stderr)
        return 2
    probe = reference.Probe(lsr)
    os.makedirs(args.run_dir, exist_ok=True)
    os.chdir(args.run_dir)

    # set-up: inputs, then one untimed warm-up job
    # a traced run makes every job twice, untraced then traced, so it takes
    # half as many jobs to stay about as long as an untraced run
    seconds = args.seconds / 2 if args.trace else args.seconds
    n_jobs = wl.job_count(seconds) if args.scale == "full" else wl.cycle
    if tracer:
        tracer.install()
    jobs = workloads.make_jobs(lsr, args.workload, "inputs", args.seed, range(n_jobs),
                               args.scale)
    anchor = workloads.make_jobs(lsr, args.workload, "anchor", workloads.ANCHOR_SEED,
                                 [0], args.scale)[0]
    if tracer:
        tracer.uninstall()
    _, anchor_rec = run_job(lsr, probe, anchor)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # timed phase: closed loop, one client
    untraced, traced, records = [], [], []
    phase_start = time.perf_counter()
    for job in jobs:
        seconds, rec = run_job(lsr, probe, job)
        untraced.append(seconds)
        records.append(rec)
        if tracer:
            tracer.install()
            try:
                seconds, rec_traced = run_job(lsr, probe, job, tracer)
            finally:
                tracer.uninstall()
            traced.append(seconds)
            if rec_traced["sha256"] != rec["sha256"]:
                records[-1]["trace_changed_artifacts"] = True
    phase_s = time.perf_counter() - phase_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # checks
    problems, changed = [], []
    ref_doc = reference.load(args.reference)
    seed_refs = {r["job"]: r for r in ref_doc["seeds"].get(str(args.seed), [])}
    anchor_refs = {r["job"]: r for r in ref_doc["seeds"].get(str(workloads.ANCHOR_SEED), [])}
    checked = []
    for job, rec in [(anchor, anchor_rec)] + list(zip(jobs, records)):
        is_anchor = job is anchor
        found = reference.invariant_problems(job, rec)
        if rec.get("trace_changed_artifacts"):
            found.append(f"{job.label}: field sha256: artifacts differ with tracing on")
        ref = (anchor_refs if is_anchor else seed_refs).get(job.index)
        if ref is not None and not args.record:
            checked.append("warm-up" if is_anchor else job.index)
            found += reference.compare(job, rec, ref)
            changed += reference.changed_artifacts(job, rec, ref)
        problems += [("warm-up " if is_anchor else "") + p for p in found]
    # repeated jobs (large-fit reuses one table) must give identical bytes
    first_seen = {}
    for job, rec in zip(jobs, records):
        key = tuple(a for a in job.argv if not a.startswith(os.path.join("inputs", "job")))
        if key in first_seen and first_seen[key]["sha256"] != rec["sha256"]:
            problems.append(f"{job.label}: field sha256: artifacts differ from job "
                            f"{first_seen[key]['job']} on the same inputs")
        first_seen.setdefault(key, rec)
    if args.record:
        ref_doc["seeds"][str(args.seed)] = records
        if str(workloads.ANCHOR_SEED) not in ref_doc["seeds"]:
            ref_doc["seeds"][str(workloads.ANCHOR_SEED)] = [anchor_rec]
        reference.save(args.reference, ref_doc)

    failed_jobs = sum(1 for r in records if r["crash"] is not None or r["exit"] != 0)
    result = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "jobs": len(jobs), "setup_s": setup_s,
        "job_s": untraced, "phase_s": phase_s, "peak_rss_mb": peak_rss_mb,
        "failed_jobs": failed_jobs,
        "benchmark_failures": sum(1 for r in records if r["crash"] is not None),
        "problems": problems,
        "reference": ("recorded" if args.record else
                      f"checked jobs {checked}" if checked else "no stored reference"),
        "changed_artifacts": changed,
        "records": [{k: v for k, v in r.items() if k != "sha256"} for r in records],
        "environment": _environment(),
    }
    if tracer:
        job_ids = [job.index for job in jobs]
        calls = tracer.layer_calls(job_ids)
        calls["synthetic"] = tracer.layer_calls(["setup"]).get("synthetic", 0)
        zero = [layer for layer in wl.layers + ("synthetic",) if not calls.get(layer)]
        if zero:
            problems.append("hook guard: no calls seen in layer(s) " + ", ".join(zero)
                            + f" that {args.workload} must exercise")
        failed_by_job = {r["job"]: r["crash"] is not None or r["exit"] != 0 for r in records}
        result["layer_calls"] = calls
        result["layers"] = tracer.layer_metrics(job_ids, failed_by_job, untraced, traced)
        result["traced_job_s"] = traced
        tracer.write(os.path.join(os.path.dirname(args.run_dir),
                                  f"spans-{args.workload}-seed{args.seed}.jsonl"))
    os.chdir(CHECKOUT)
    shutil.rmtree(args.run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
