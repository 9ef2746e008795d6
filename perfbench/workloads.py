"""Workload definitions: the inputs each workload generates from its seed
and the fixed list of CLI jobs it runs on them.

A job is one ``logsymrate.cli.main(argv)`` call. Job ``k`` of a workload
depends only on the workload seed and ``k``, never on how many jobs a run
makes, so a stored reference for the first jobs of a seed stays valid
for any run length.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

FAMILIES = {
    "normal": {"name": "normal"},
    "student": {"name": "student", "nu": 5.0},
    "contnormal": {"name": "contnormal", "nu1": 0.15, "nu2": 0.25},
    "powerexp": {"name": "powerexp", "zeta": 0.4},
}
MID_FAMILIES = ("normal", "student", "contnormal", "powerexp")

# The warm-up job of every run is job 0 of this seed. Its inputs do not
# depend on --seed, so every run checks at least one job against a stored
# reference, whatever seed it is given.
ANCHOR_SEED = 0

# Table and replicate sizes. "tiny" exists only for the self-test.
SCALES = {
    "full": {
        "large_ages": tuple(range(0, 91)), "large_periods": tuple(range(1940, 2020)),
        "mid_ages": tuple(range(50, 73)), "mid_periods": tuple(range(1980, 2014)),
        "m_sims": 100, "lambda_grid": None,
    },
    "tiny": {
        "large_ages": tuple(range(40, 52)), "large_periods": tuple(range(2000, 2010)),
        "mid_ages": tuple(range(50, 62)), "mid_periods": tuple(range(2000, 2006)),
        "m_sims": 10, "lambda_grid": {"lo": 1e-2, "hi": 1e4, "num": 4},
    },
}

POISSON_SPEC = {"model": "poisson", "covariates": ["intercept", "age", "period"]}


@dataclass(frozen=True)
class Job:
    index: int
    command: str
    family: str
    argv: tuple
    out: str
    spec: str  # path of the log-symmetric spec, for its tolerances

    @property
    def label(self) -> str:
        return f"job {self.index} ({self.command} {self.family})"


@dataclass(frozen=True)
class Workload:
    cycle: int            # jobs after which the mix of commands and families repeats
    nominal_job_s: float  # sizes the job count for a given --seconds
    layers: tuple         # package modules a traced run must see called

    def job_count(self, seconds: float) -> int:
        """Whole cycles that take about ``seconds`` at the nominal job time.
        A fixed function of ``seconds``: the work does not depend on how
        fast the machine is."""
        return self.cycle * max(1, round(seconds / (self.cycle * self.nominal_job_s)))


_ALL_LAYERS = ("cli", "data_ingest", "spline_bases", "logsym_family",
               "logsym_fit", "poisson_glm", "specio")
# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {
    "large-fit": Workload(cycle=6, nominal_job_s=1.8, layers=_ALL_LAYERS + ("diagnostics",)),
    "select-mid": Workload(cycle=4, nominal_job_s=1.2, layers=_ALL_LAYERS),
    "envelope-mid": Workload(
        cycle=8, nominal_job_s=3.5,
        layers=tuple(x for x in _ALL_LAYERS if x != "specio") + ("diagnostics",)),
}


def derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


def _log_rate_bump(age):
    return 0.3 * math.exp(-((age - 60.0) / 8.0) ** 2)


def write_table(lsr, path: str, ages, periods, family: str, phi: float,
                population: float, seed: int) -> None:
    """Simulate one log-symmetric table with ``synthetic.simulate_table`` and
    write it as a raw mortality CSV with single-year age bands."""
    truth = lsr.synthetic.TruthSpec(
        ages=ages, periods=periods,
        beta0=10.8, beta_age=0.09, beta_period=-0.01, f_age=_log_rate_bump,
        population=population, noise="logsym",
        generator=lsr.specio.parse_model_spec(
            {"model": "logsym", "family": FAMILIES[family],
             "location": {"covariates": ["intercept"]}}).generator,
        phi=phi,
    )
    sim = lsr.synthetic.simulate_table(truth, seed)
    records = lsr.synthetic.simulated_to_records(sim, band_width=1)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(lsr.data_ingest.records_to_csv(records))


def write_spec(path: str, family: str, location_terms, dispersion_terms,
               location_covariates, lambda_grid=None) -> None:
    doc = {
        "model": "logsym",
        "family": FAMILIES[family],
        "location": {"covariates": list(location_covariates),
                     "terms": location_terms, "use_offset": True},
        "dispersion": {"covariates": ["intercept"], "terms": dispersion_terms},
    }
    if lambda_grid is not None:
        doc["lambda_grid"] = lambda_grid
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)


def _ncs(cov, lam):
    return {"kind": "ncs", "covariate": cov, "lambda": lam}


def _psp(cov, lam):
    return {"kind": "psp", "covariate": cov, "basis_dim": 10, "lambda": lam}


def _large_jobs(lsr, root, seed, indices, scale):
    os.makedirs(root, exist_ok=True)
    table = os.path.join(root, "large.csv")
    write_table(lsr, table, scale["large_ages"], scale["large_periods"], "normal",
                phi=0.01, population=1e6, seed=derived_seed(1, seed))
    poisson = os.path.join(root, "poisson.json")
    with open(poisson, "w", encoding="utf-8") as fh:
        json.dump(POISSON_SPEC, fh)
    specs = {}
    for family in ("normal", "student"):
        specs[family] = os.path.join(root, f"large-{family}.json")
        write_spec(specs[family], family,
                   [_ncs("age", 10.0), _ncs("period", 10.0)], [_ncs("age", 10.0)],
                   ["intercept"])
    jobs = []
    for k in indices:
        command = ("fit", "compare", "curves")[k % 3]
        family = ("normal", "student")[k % 2]
        out = os.path.join(root, f"job{k}")
        argv = [command, "--input", table, "--spec", specs[family], "--out", out,
                "--force"]
        if command == "compare":
            argv += ["--spec2", poisson]
        jobs.append(Job(k, command, family, tuple(argv), out, specs[family]))
    return jobs


def _select_jobs(lsr, root, seed, indices, scale):
    os.makedirs(root, exist_ok=True)
    jobs = []
    for k in indices:
        family = MID_FAMILIES[k % 4]
        table = os.path.join(root, f"table{k}.csv")
        spec = os.path.join(root, f"spec{k}.json")
        write_table(lsr, table, scale["mid_ages"], scale["mid_periods"], family,
                    phi=0.03, population=1e5, seed=derived_seed(2, seed, k))
        write_spec(spec, family, [_ncs("age", "select")], [_psp("age", "select")],
                   ["intercept", "period"], scale["lambda_grid"])
        out = os.path.join(root, f"job{k}")
        argv = ["fit", "--input", table, "--spec", spec, "--out", out, "--force"]
        jobs.append(Job(k, "fit", family, tuple(argv), out, spec))
    return jobs


def _envelope_jobs(lsr, root, seed, indices, scale):
    os.makedirs(root, exist_ok=True)
    jobs = []
    for k in indices:
        family = MID_FAMILIES[(k // 2) % 4]
        kind = ("location", "dispersion")[k % 2]
        table = os.path.join(root, f"table{k}.csv")
        spec = os.path.join(root, f"spec{k}.json")
        write_table(lsr, table, scale["mid_ages"], scale["mid_periods"], family,
                    phi=0.03, population=1e5, seed=derived_seed(3, seed, k))
        write_spec(spec, family, [_ncs("age", 10.0)], [_psp("age", 10.0)],
                   ["intercept", "period"])
        out = os.path.join(root, f"job{k}")
        argv = ["envelope", "--input", table, "--spec", spec, "--out", out, "--force",
                "--kind", kind, "--m-sims", str(scale["m_sims"]),
                "--seed", str(derived_seed(4, seed, k) % 2**31)]
        jobs.append(Job(k, f"envelope-{kind}", family, tuple(argv), out, spec))
    return jobs


_BUILDERS = {
    "large-fit": _large_jobs,
    "select-mid": _select_jobs,
    "envelope-mid": _envelope_jobs,
}


def make_jobs(lsr, workload: str, root: str, seed: int, indices, scale: str):
    """Write the inputs of jobs ``indices`` under ``root`` and return them.
    ``lsr`` is the imported ``logsymrate`` package."""
    return _BUILDERS[workload](lsr, root, seed, list(indices), SCALES[scale])
