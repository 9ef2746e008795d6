"""Spans around the package's public callables, installed from outside.

Each hook names a call site: the module whose namespace the caller looks
the callable up in, and the attribute name there. ``logsym_fit`` imports
``logpdf`` by name, for example, so the hook for objective evaluations sits
on ``logsymrate.logsym_fit.logpdf``, not on ``logsym_family.logpdf``.

Two kinds of hook:

* span: records (id, metric, start, end, parent span, job) plus a few
  attributes of the call or its result.
* leaf: for callables that run thousands of times per job and call
  nothing that is hooked. Only a count and a time sum are kept, per
  (job, parent span, metric), so memory stays small; the parent's self
  time still subtracts them.

Spans stay in memory and are written out once at the end of a run.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import defaultdict

# (call-site module, attribute, metric, kind)
HOOKS = (
    ("logsymrate.cli", "parse_mortality_csv", "data_ingest.read", "span"),
    ("logsymrate.cli", "aggregate_cells", "data_ingest.read", "span"),
    ("logsymrate.cli", "apply_zero_policy", "data_ingest.read", "span"),
    ("logsymrate.cli", "fit_logsym", "logsym_fit.fit", "span"),
    ("logsymrate.cli", "fit_poisson", "poisson_glm.fit", "span"),
    ("logsymrate.data_ingest", "make_cell", "data_ingest.make_cell", "leaf"),
    ("logsymrate.synthetic", "simulate_table", "synthetic.simulate", "span"),
    ("logsymrate.logsym_fit", "build_term_block", "spline_bases.build", "span"),
    ("logsymrate.logsym_fit", "check_full_rank", "poisson_glm.rank_check", "span"),
    ("logsymrate.logsym_fit", "logpdf", "logsym_family.logpdf", "leaf"),
    ("logsymrate.logsym_fit", "weight_v", "logsym_family.weight_v", "leaf"),
    ("logsymrate.logsym_fit", "weight_v_prime", "logsym_family.weight_v_prime", "leaf"),
    ("logsymrate.poisson_glm", "check_full_rank", "poisson_glm.rank_check", "span"),
    ("logsymrate.diagnostics", "simulated_envelope", "diagnostics.envelope", "span"),
    ("logsymrate.diagnostics", "logsym_fit_fn", "logsym_fit.fit", "span"),
    ("logsymrate.diagnostics", "make_cell", "data_ingest.make_cell", "leaf"),
    ("logsymrate.diagnostics", "sample_with_rng", "logsym_family.sample", "leaf"),
    ("logsymrate.diagnostics", "envelope_to_csv", "diagnostics.csv", "span"),
    ("logsymrate.diagnostics", "curves_to_csv", "diagnostics.csv", "span"),
    ("logsymrate.diagnostics", "scatter_to_csv", "diagnostics.csv", "span"),
    ("logsymrate.specio", "fit_to_dict", "specio.dump", "span"),
    ("logsymrate.specio", "dump_json", "specio.dump", "span"),
)

ROOT = "cli.main"

# Per-layer metrics, in the order they are reported, with their units.
LAYER_METRICS = (
    ("cli.self_s", "s/job"),
    ("cli.failed_ratio", "ratio"),
    ("data_ingest.read_s", "s/job"),
    ("data_ingest.rows_read", "rows/job"),
    ("data_ingest.make_cell_calls", "calls/job"),
    ("data_ingest.make_cell_s", "s/job"),
    ("synthetic.simulate_s", "s"),
    ("spline_bases.build_calls", "calls/job"),
    ("spline_bases.build_s", "s/job"),
    ("poisson_glm.rank_check_calls", "calls/job"),
    ("poisson_glm.rank_check_s", "s/job"),
    ("poisson_glm.fit_s", "s/job"),
    ("logsym_family.logpdf_calls", "calls/job"),
    ("logsym_family.logpdf_s", "s/job"),
    ("logsym_family.weight_v_calls", "calls/job"),
    ("logsym_family.weight_v_prime_calls", "calls/job"),
    ("logsym_family.sample_calls", "calls/job"),
    ("logsym_fit.fit_calls", "calls/job"),
    ("logsym_fit.fit_s", "s/job"),
    ("logsym_fit.fit_self_s", "s/job"),
    ("logsym_fit.iterations", "iterations/job"),
    ("logsym_fit.converged_ratio", "ratio"),
    ("logsym_fit.select_s_per_grid_fit", "s"),
    ("diagnostics.envelope_s", "s/job"),
    ("diagnostics.refit_attempts", "calls/job"),
    ("diagnostics.replicate_s", "s"),
    ("diagnostics.replicate_ok_ratio", "ratio"),
    ("diagnostics.csv_s", "s/job"),
    ("diagnostics.csv_bytes", "bytes/job"),
    ("specio.dump_s", "s/job"),
    ("specio.dump_bytes", "bytes/job"),
    ("trace.overhead_s", "s"),
)


class HookGuardError(RuntimeError):
    """A hooked (module, name) pair no longer exists."""


def resolve_hooks(hooks=HOOKS) -> list:
    """Return (module, attr, metric, kind, site) for every hook,
    or raise HookGuardError naming each pair that is gone."""
    resolved, missing = [], []
    for modname, attr, metric, kind in hooks:
        try:
            mod = importlib.import_module(modname)
        except ImportError:
            missing.append(f"{modname} (module not importable)")
            continue
        if not callable(getattr(mod, attr, None)):
            missing.append(f"{modname}.{attr}")
            continue
        resolved.append((mod, attr, metric, kind, modname.rsplit(".", 1)[-1]))
    if missing:
        raise HookGuardError("hooked call sites no longer exist: " + ", ".join(missing))
    return resolved


def _span_attrs(metric, site, args, result):
    """The few call or result attributes the layer metrics need."""
    if metric == "data_ingest.read" and isinstance(result, list):
        return {"rows": len(result)}
    if metric == "logsym_fit.fit":
        spec = args[0]
        n_select = sum(1 for sub in (spec.location, spec.dispersion)
                       for t in sub.terms if t.lam is None)
        return {"site": site, "grid_fits": len(spec.lambda_grid) * n_select + 1,
                "iterations": result.iterations, "converged": bool(result.converged)}
    if metric in ("diagnostics.csv", "specio.dump") and isinstance(result, str):
        return {"bytes": len(result.encode("utf-8"))}
    return None


class Tracer:
    def __init__(self, hooks=HOOKS):
        self._hooks = resolve_hooks(hooks)
        self.spans = []     # (id, metric, start, end, parent, job)
        self.attrs = {}     # span id -> dict
        self.leaves = defaultdict(lambda: [0, 0.0])  # (job, parent, metric) -> [n, s]
        self.job = "setup"
        self._stack = [0]
        self._next_id = 1
        self._installed = []

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        for mod, attr, metric, kind, site in self._hooks:
            current = getattr(mod, attr)
            wrap = self._leaf if kind == "leaf" else self._span
            setattr(mod, attr, wrap(current, metric, site))
            self._installed.append((mod, attr, current))

    def uninstall(self) -> None:
        while self._installed:
            mod, attr, current = self._installed.pop()
            setattr(mod, attr, current)

    # -- recording ---------------------------------------------------------
    def _open(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, metric, start, attrs):
        self._stack.pop()
        self.spans.append((sid, metric, start, time.perf_counter(), parent, self.job))
        if attrs:
            self.attrs[sid] = attrs

    def _span(self, fn, metric, site):
        def wrapped(*args, **kwargs):
            sid, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(sid, parent, metric, start,
                            {"site": site, "error": type(exc).__name__})
                raise
            self._close(sid, parent, metric, start,
                        _span_attrs(metric, site, args, result))
            return result
        return wrapped

    def _leaf(self, fn, metric, site):
        leaves, stack = self.leaves, self._stack

        def wrapped(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                acc = leaves[(self.job, stack[-1], metric)]
                acc[0] += 1
                acc[1] += time.perf_counter() - start
        return wrapped

    def run_job(self, job_id, call):
        """Run ``call()`` as the root span ``cli.main`` of job ``job_id``."""
        self.job = job_id
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            return call()
        finally:
            self._close(sid, parent, ROOT, start, None)
            self.job = "idle"

    # -- output --------------------------------------------------------------
    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, metric, start, end, parent, job in self.spans:
                row = {"id": sid, "name": metric, "start": start, "end": end,
                       "parent": parent, "job": job}
                row.update(self.attrs.get(sid, {}))
                fh.write(json.dumps(row) + "\n")
            for (job, parent, metric), (n, secs) in self.leaves.items():
                fh.write(json.dumps({"leaf": metric, "parent": parent, "job": job,
                                     "calls": n, "seconds": secs}) + "\n")

    def layer_calls(self, jobs) -> dict:
        """Calls per package module over the given jobs."""
        jobs = set(jobs)
        out = defaultdict(int)
        for _, metric, _, _, _, job in self.spans:
            if job in jobs:
                out[metric.split(".")[0]] += 1
        for (job, _, metric), (n, _) in self.leaves.items():
            if job in jobs:
                out[metric.split(".")[0]] += n
        return dict(out)

    def layer_metrics(self, jobs, job_failed, untraced_s, traced_s) -> dict:
        """Per-layer metrics over the traced jobs ``jobs``: per-job means of
        counts and times, pooled ratios. ``job_failed`` maps job id to
        whether that job raised or exited non-zero."""
        jobs = set(jobs)
        n_jobs = max(len(jobs), 1)
        dur = defaultdict(float)
        count = defaultdict(int)
        child = defaultdict(float)   # span id -> time covered by children
        by_id = {}
        for sid, metric, start, end, parent, job in self.spans:
            by_id[sid] = (metric, end - start, job)
            child[parent] += end - start
        for (job, parent, metric), (n, secs) in self.leaves.items():
            child[parent] += secs
            if job in jobs:
                dur[metric] += secs
                count[metric] += n

        self_s = defaultdict(float)
        fits = {"n": 0, "converged": 0, "iterations": 0, "per_grid": []}
        refits = {"n": 0, "converged": 0}
        rows = nbytes_csv = nbytes_dump = 0
        simulate_s = 0.0
        for sid, (metric, d, job) in by_id.items():
            if metric == "synthetic.simulate" and job == "setup":
                simulate_s += d
            if job not in jobs:
                continue
            dur[metric] += d
            count[metric] += 1
            self_s[metric] += d - child[sid]
            a = self.attrs.get(sid, {})
            rows += a.get("rows", 0)
            if metric == "diagnostics.csv":
                nbytes_csv += a.get("bytes", 0)
            if metric == "specio.dump":
                nbytes_dump += a.get("bytes", 0)
            if metric == "logsym_fit.fit":
                fits["n"] += 1
                fits["converged"] += a.get("converged", False)
                fits["iterations"] += a.get("iterations", 0)
                if a.get("site") == "cli" and "grid_fits" in a:
                    fits["per_grid"].append(d / a["grid_fits"])
                if a.get("site") == "diagnostics":
                    refits["n"] += 1
                    refits["converged"] += a.get("converged", False)

        def per_job(x):
            return x / n_jobs

        def ratio(num, den):
            return num / den if den else 0.0

        n_draws = count["logsym_family.sample"]
        return {
            "cli.self_s": per_job(self_s[ROOT]),
            "cli.failed_ratio": ratio(sum(bool(job_failed[j]) for j in jobs), len(jobs)),
            "data_ingest.read_s": per_job(dur["data_ingest.read"]),
            "data_ingest.rows_read": per_job(rows),
            "data_ingest.make_cell_calls": per_job(count["data_ingest.make_cell"]),
            "data_ingest.make_cell_s": per_job(dur["data_ingest.make_cell"]),
            "synthetic.simulate_s": simulate_s,
            "spline_bases.build_calls": per_job(count["spline_bases.build"]),
            "spline_bases.build_s": per_job(dur["spline_bases.build"]),
            "poisson_glm.rank_check_calls": per_job(count["poisson_glm.rank_check"]),
            "poisson_glm.rank_check_s": per_job(dur["poisson_glm.rank_check"]),
            "poisson_glm.fit_s": per_job(dur["poisson_glm.fit"]),
            "logsym_family.logpdf_calls": per_job(count["logsym_family.logpdf"]),
            "logsym_family.logpdf_s": per_job(dur["logsym_family.logpdf"]),
            "logsym_family.weight_v_calls": per_job(count["logsym_family.weight_v"]),
            "logsym_family.weight_v_prime_calls":
                per_job(count["logsym_family.weight_v_prime"]),
            "logsym_family.sample_calls": per_job(n_draws),
            "logsym_fit.fit_calls": per_job(count["logsym_fit.fit"]),
            "logsym_fit.fit_s": per_job(dur["logsym_fit.fit"]),
            "logsym_fit.fit_self_s": per_job(self_s["logsym_fit.fit"]),
            "logsym_fit.iterations": per_job(fits["iterations"]),
            "logsym_fit.converged_ratio": ratio(fits["converged"], fits["n"]),
            "logsym_fit.select_s_per_grid_fit":
                statistics.fmean(fits["per_grid"]) if fits["per_grid"] else 0.0,
            "diagnostics.envelope_s": per_job(dur["diagnostics.envelope"]),
            "diagnostics.refit_attempts": per_job(refits["n"]),
            "diagnostics.replicate_s": ratio(dur["diagnostics.envelope"], n_draws),
            "diagnostics.replicate_ok_ratio": ratio(refits["converged"], refits["n"]),
            "diagnostics.csv_s": per_job(dur["diagnostics.csv"]),
            "diagnostics.csv_bytes": per_job(nbytes_csv),
            "specio.dump_s": per_job(dur["specio.dump"]),
            "specio.dump_bytes": per_job(nbytes_dump),
            "trace.overhead_s": statistics.median(traced_s) - statistics.median(untraced_s),
        }
