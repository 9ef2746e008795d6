"""logsymrate benchmark.

    python3 perfbench/run.py --workload large-fit --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Runs from the root of a checkout. Each workload runs in worker processes
started with the BLAS thread count pinned to 1. Set-up runs SETUPS times,
each in a fresh process, and ``setup_s`` is their median; the last of them
goes on to the timed jobs. The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from tracer import LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
REFERENCE_DIR = os.path.join(HERE, "reference")
WORKLOADS = ("large-fit", "select-mid", "envelope-mid")
SETUPS = 3
RUN_BUDGET_S = 170.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _reference_name(args) -> str:
    """The stored references are full scale; other scales keep their own."""
    suffix = "" if args.scale == "full" else f"-{args.scale}"
    return f"{args.workload}{suffix}.json"


def _worker(args, run_dir, setup_only, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--run-dir", run_dir,
           "--reference", os.path.join(args.reference_dir, _reference_name(args)),
           "--t0", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    if args.record:
        cmd.append("--record")
    env = dict(os.environ, **PINNED)
    proc = subprocess.run(cmd, cwd=CHECKOUT, env=env, stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - time.monotonic()), text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(lines[-1])


def _src_facts():
    src = os.path.join(CHECKOUT, "src", "logsymrate")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=CHECKOUT, text=True,
                                capture_output=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {"src_lines": lines, "commit": commit or "unknown (not a git checkout)"}


def _metadata(worker_env: dict) -> dict:
    meta = dict(worker_env, **_src_facts())
    meta["nproc"] = os.cpu_count()
    meta["machine"] = platform.machine()
    meta["blas_env"] = PINNED
    return meta


def run_workload(args) -> dict:
    """All processes of one workload run; returns the summary."""
    deadline = time.monotonic() + RUN_BUDGET_S
    run_dir = os.path.join(OUT, f"run-{args.workload}-{os.getpid()}")
    setups = 1 if args.trace or args.record or args.scale != "full" else SETUPS
    setup_times = []
    for _ in range(setups - 1):
        setup_times.append(_worker(args, run_dir, True, deadline)["setup_s"])
    res = _worker(args, run_dir, False, deadline)
    setup_times.append(res["setup_s"])
    job_s = res["job_s"]
    res["setup_s_all"] = setup_times
    res["metrics"] = {
        "setup_s": statistics.median(setup_times),
        "job_s_p50": statistics.median(job_s),
        "jobs_per_min": 60.0 * len(job_s) / sum(job_s),
        "peak_rss_mb": res["peak_rss_mb"],
        "failed_ratio": res["failed_jobs"] / len(job_s),
    }
    return res


END_TO_END = (("setup_s", "s"), ("job_s_p50", "s"), ("jobs_per_min", "1/min"),
              ("peak_rss_mb", "MB"))


def _summary(res) -> str:
    m = res["metrics"]
    return (f"{res['workload']:<13} seed {res['seed']}: setup_s {m['setup_s']:.3f} "
            f"(median of {len(res['setup_s_all'])})  job_s_p50 {m['job_s_p50']:.3f} "
            f"(n={res['jobs']})  jobs_per_min {m['jobs_per_min']:.2f}  "
            f"failed_ratio {m['failed_ratio']:.3f} ({res['failed_jobs']}/{res['jobs']})  "
            f"peak_rss_mb {m['peak_rss_mb']:.1f}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: small tables, for the self-test only")
    ap.add_argument("--record", action="store_true",
                    help="store this seed's job results as the reference")
    ap.add_argument("--reference-dir", default=REFERENCE_DIR)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(CHECKOUT, "src", "logsymrate", "__init__.py")):
        print(f"error: no src/logsymrate under {CHECKOUT}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        args.workload = name
        try:
            res = run_workload(args)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        res["meta"] = _metadata(res.pop("environment"))
        print("meta " + json.dumps(res["meta"], sort_keys=True))
        with open(os.path.join(OUT, f"result-{name}-seed{args.seed}-trace{args.trace}.json"),
                  "w", encoding="utf-8") as fh:
            json.dump(res, fh, indent=1)
        print(_summary(res))
        print(f"  reference: {res['reference']}")
        if res["changed_artifacts"]:
            print("  changed artifacts (information): " + ", ".join(res["changed_artifacts"]))
        for problem in res["problems"]:
            print("  MISMATCH " + problem)
        results.append(res)

    res = results[-1]
    values, units = (res["layers"], LAYER_METRICS) if args.trace else (res["metrics"], END_TO_END)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    print(json.dumps({
        "correct": all(not r["problems"] for r in results),
        "attempted": sum(r["jobs"] * (2 if args.trace else 1) for r in results),
        "failed": sum(r["benchmark_failures"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
