"""What a job computed, and its comparison with the stored reference.

A job record holds the exit code, the ``converged`` flag of every model
fitted at the CLI level, and from the artifacts the AIC values, the lambda
of every term, and the envelope ``outside_count``; ``n_failures`` and the
error class come from the envelope call itself, since no artifact carries
them. The sha256 of every artifact is kept too: a changed digest is
listed, but only the fields above decide whether the run is correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re

# AIC may move by this many multiples of the spec's tolerances: a fit that
# stops on |dL| <= tol_loglik (1 + |L|) and |d theta| <= tol_param can land
# anywhere in that band, and AIC adds the effective df.
AIC_TOL_FACTOR = 1e3
LAMBDA_RTOL = 1e-9

_ENVELOPE_FAILURES = re.compile(r"(\d+) of (\d+) envelope refits failed")


class Probe:
    """Result probes on the calls whose outcome no artifact records. One
    wrapped call per model fit or envelope, so the cost is negligible;
    installed in traced and untraced runs alike."""

    SITES = (("cli", "fit_logsym"), ("cli", "fit_poisson"),
             ("diagnostics", "simulated_envelope"))

    def __init__(self, lsr):
        self.events = []
        for modname, attr in self.SITES:
            mod = getattr(lsr, modname)
            setattr(mod, attr, self._wrap(getattr(mod, attr), attr))

    def _wrap(self, fn, attr):
        def wrapped(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.events.append((attr, None, exc))
                raise
            self.events.append((attr, result, None))
            return result
        return wrapped

    def take(self) -> list:
        events, self.events = self.events, []
        return events


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _outside_count(path: str) -> int:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return sum(1 for r in rows
               if float(r["residual"]) < float(r["band_lo"])
               or float(r["residual"]) > float(r["band_hi"]))


def job_record(job, rc, crash, events, stdout: str, stderr: str) -> dict:
    rec = {"job": job.index, "command": job.command, "family": job.family,
           "exit": rc, "crash": crash, "stderr": stderr.strip()[-300:],
           "converged": [], "aic": [], "lambda": {},
           "outside_count": None, "n_failures": None, "error": None, "sha256": {}}
    for attr, result, exc in events:
        if attr == "simulated_envelope":
            if exc is None:
                rec["n_failures"] = int(result.n_failures)
            else:
                rec["error"] = type(exc).__name__
                m = _ENVELOPE_FAILURES.search(str(exc))
                rec["n_failures"] = int(m.group(1)) if m else None
        elif exc is None:
            rec["converged"].append(bool(result.converged))
    if os.path.isdir(job.out):
        for name in sorted(os.listdir(job.out)):
            rec["sha256"][name] = _sha256(os.path.join(job.out, name))
    fit_json = os.path.join(job.out, "fit.json")
    cmp_json = os.path.join(job.out, "comparison.json")
    env_csv = os.path.join(job.out, "envelope.csv")
    if job.command == "fit" and os.path.exists(fit_json):
        with open(fit_json, encoding="utf-8") as fh:
            doc = json.load(fh)
        rec["aic"] = [doc["aic"]]
        rec["lambda"] = {lab: t["lambda"] for lab, t in doc.get("terms", {}).items()}
    if job.command == "compare" and os.path.exists(cmp_json):
        with open(cmp_json, encoding="utf-8") as fh:
            doc = json.load(fh)
        rec["aic"] = [m["aic"] for m in doc["models"]]
        for m in doc["models"]:
            rec["lambda"].update({lab: t["lambda"] for lab, t in m["terms"].items()})
    if job.command.startswith("envelope") and os.path.exists(env_csv):
        rec["outside_count"] = _outside_count(env_csv)
        m = re.search(r"outside (\d+)/", stdout)
        rec["printed_outside"] = int(m.group(1)) if m else None
    return rec


def invariant_problems(job, rec) -> list:
    """Checks that hold for any seed, reference or not."""
    out = []
    if rec["crash"] is not None:
        out.append(f"{job.label}: raised {rec['crash']}")
        return out
    if rec["exit"] not in (0, 3):
        out.append(f"{job.label}: field exit: unexpected exit code {rec['exit']}")
    if job.command == "fit":
        if "fit.json" not in rec["sha256"]:
            out.append(f"{job.label}: field sha256: fit.json was not written")
        elif rec["converged"] and (rec["exit"] == 0) != rec["converged"][0]:
            out.append(f"{job.label}: field exit: exit {rec['exit']} disagrees with "
                       f"converged={rec['converged'][0]}")
    if rec["exit"] == 0:
        if any(not (isinstance(a, float) and math.isfinite(a)) for a in rec["aic"]):
            out.append(f"{job.label}: field aic: not finite: {rec['aic']}")
        if job.command.startswith("envelope") \
                and rec["outside_count"] != rec.get("printed_outside"):
            out.append(f"{job.label}: field outside_count: envelope.csv gives "
                       f"{rec['outside_count']}, stdout {rec.get('printed_outside')}")
    return out


def _tolerances(spec_path: str):
    with open(spec_path, encoding="utf-8") as fh:
        conv = json.load(fh).get("convergence", {})
    return conv.get("tol_loglik", 1e-8), conv.get("tol_param", 1e-6)


def compare(job, rec, ref) -> list:
    """Mismatches of ``rec`` against reference record ``ref``, each naming
    the job and the field."""
    out = []

    def bad(field, got, want):
        out.append(f"{job.label}: field {field}: got {got!r}, reference {want!r}")

    for field in ("exit", "converged", "outside_count", "n_failures", "error"):
        if rec[field] != ref[field]:
            bad(field, rec[field], ref[field])
    tol_loglik, tol_param = _tolerances(job.spec)
    if len(rec["aic"]) != len(ref["aic"]):
        bad("aic", rec["aic"], ref["aic"])
    else:
        for got, want in zip(rec["aic"], ref["aic"]):
            tol = AIC_TOL_FACTOR * (tol_loglik * (1.0 + abs(want)) + tol_param)
            if not abs(got - want) <= tol:
                bad("aic", got, want)
    if set(rec["lambda"]) != set(ref["lambda"]):
        bad("lambda", rec["lambda"], ref["lambda"])
    else:
        for lab, want in ref["lambda"].items():
            if not abs(rec["lambda"][lab] - want) <= LAMBDA_RTOL * abs(want):
                bad(f"lambda[{lab}]", rec["lambda"][lab], want)
    return out


def changed_artifacts(job, rec, ref) -> list:
    return [f"job{job.index}/{name}" for name in sorted(set(rec["sha256"]) | set(ref["sha256"]))
            if rec["sha256"].get(name) != ref["sha256"].get(name)]


def load(path: str) -> dict:
    if not os.path.exists(path):
        return {"seeds": {}}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def save(path: str, doc: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    lines = ["{", '  "seeds": {']
    seeds = sorted(doc["seeds"], key=int)
    for i, seed in enumerate(seeds):
        recs = doc["seeds"][seed]
        body = ",\n".join("      " + json.dumps(r, sort_keys=True) for r in recs)
        lines.append(f'    "{seed}": [\n{body}\n    ]' + ("," if i < len(seeds) - 1 else ""))
    lines += ["  }", "}"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
