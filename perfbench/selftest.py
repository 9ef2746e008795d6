"""Smoke test of the benchmark itself, at tiny table sizes (about 30 s).

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
in untraced and traced runs of every workload; that the reference check
rejects a perturbed reference value and names the job and field; that the
hook guard rejects a call site that does not exist; and that the benchmark
fails without printing a result where the package source is missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
SCRATCH = os.path.join(HERE, "out", "selftest")
SEED = 7

# field to perturb in job 0 of each workload, and by how much
PERTURB = {"large-fit": ("aic", 1.0), "select-mid": ("aic", 1.0),
           "envelope-mid": ("outside_count", 1)}


def _run(args, cwd=CHECKOUT):
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def _result(lines):
    try:
        doc = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    return doc if isinstance(doc, dict) and "correct" in doc else None


def main() -> int:
    with open(os.path.join(CHECKOUT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    ref_dir = os.path.join(SCRATCH, "reference")
    errors = []

    def expect(cond, msg):
        if not cond:
            errors.append(msg)

    for w in bench["workloads"]:
        name = w["name"]
        common = ["--workload", name, "--seed", str(SEED), "--seconds", "1",
                  "--scale", "tiny", "--reference-dir", ref_dir]
        # the untraced run records the reference that the traced run checks
        for trace, key, extra in ((0, "end_to_end", ["--record"]), (1, "per_layer", [])):
            rc, lines = _run(common + ["--trace", str(trace)] + extra)
            res = _result(lines)
            expect(rc == 0 and res is not None, f"{name} trace {trace}: exit {rc}, no result")
            if res is None:
                continue
            expect(res["correct"], f"{name} trace {trace}: not correct: {lines[-5:]}")
            expect(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                   f"{name}: result keys {sorted(res)}")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            expect(got == want, f"{name} trace {trace}: metrics {got} != {want}")
            expect(all(isinstance(v["value"], (int, float)) for v in res["metrics"].values()),
                   f"{name} trace {trace}: a metric value is not a number")

        path = os.path.join(ref_dir, f"{name}-tiny.json")
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        field, delta = PERTURB[name]
        doc["seeds"][str(SEED)][0][field] = (
            [v + delta for v in doc["seeds"][str(SEED)][0][field]] if field == "aic"
            else doc["seeds"][str(SEED)][0][field] + delta)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        rc, lines = _run(common + ["--trace", "0"])
        res = _result(lines)
        named = [ln for ln in lines if "MISMATCH job 0 " in ln and f"field {field}" in ln]
        expect(res is not None and not res["correct"] and named,
               f"{name}: perturbed {field} was not rejected by job and field: {lines[-4:]}")

    sys.path.insert(0, os.path.join(CHECKOUT, "src"))
    sys.path.insert(0, HERE)
    from tracer import HookGuardError, resolve_hooks
    try:
        resolve_hooks([("logsymrate.cli", "no_such_callable", "x.y", "span")])
        errors.append("hook guard accepted a missing call site")
    except HookGuardError:
        pass

    bare = os.path.join(SCRATCH, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(CHECKOUT, "BENCHMARK.json"), bare)
    rc, lines = _run(["--workload", bench["workloads"][0]["name"], "--seed", "1",
                      "--seconds", "1", "--trace", "0"], cwd=bare)
    expect(rc != 0 and _result(lines) is None,
           f"without src/ the benchmark exited {rc} with {lines[-1:]}")

    shutil.rmtree(SCRATCH, ignore_errors=True)
    for e in errors:
        print("FAIL " + e)
    print("selftest " + ("ok" if not errors else f"failed ({len(errors)})"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
