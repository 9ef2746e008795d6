"""Envelopes and "select" fits through ``python -m logsymrate.cli`` in fresh
interpreters, each with its own BLAS setting: a run on forked workers
writes the bytes and the selection log of a run pinned to one CPU by
``taskset -c 0``, and each map forks where ``_map_in_order``'s rule says
it does."""

import json
import shutil
from concurrent.futures import ThreadPoolExecutor

import pytest

from logsymrate.cli import main
from logsymrate.logsym_fit import _cpu_count

from .fresh import BLAS, BLAS_VARS, python, run_fresh

NORMAL_NOISE = {"kind": "logsym", "family": {"name": "normal"}, "phi": 0.04}
LINEAR = {"beta0": -22.0, "beta_age": 0.07, "beta_period": 0.006}
DOCS = {
    # 7 ages x 5 periods
    "small": {"ages": [40, 45, 50, 55, 60, 65, 70], "periods": [2000, 2002, 2004, 2006, 2008],
              "log_rate": LINEAR, "population": 300000.0, "noise": NORMAL_NOISE},
    # the 9 x 10 grid and truth of the tests' small tables
    "tiny": {"ages": list(range(35, 80, 5)), "periods": list(range(1994, 2014, 2)),
             "log_rate": {"beta0": -24.0, "beta_age": 0.075, "beta_period": 0.006},
             "population": 200000.0, "noise": dict(NORMAL_NOISE, phi=0.04)},
    # 20 age bands x 100 years: with the select spec's 219 coefficients, the
    # stencil's 2,000 x 219 cell-coefficients pass the column-update bound
    "big": {"ages": list(range(0, 100, 5)), "periods": list(range(1920, 2020)),
            "log_rate": LINEAR, "population": 300000.0, "noise": NORMAL_NOISE},
    "poisson": {"model": "poisson", "covariates": ["intercept", "age", "period"]},
    "normal": {"model": "logsym", "family": {"name": "normal"},
               "location": {"covariates": ["intercept", "age", "period"], "use_offset": True},
               "dispersion": {"covariates": ["intercept"]}},
    "select": {"model": "logsym", "family": {"name": "normal"},
               "location": {"covariates": ["intercept"], "use_offset": True,
                            "terms": [{"kind": "ncs", "covariate": "age", "lambda": "select"},
                                      {"kind": "ncs", "covariate": "period", "lambda": 10.0}]},
               "dispersion": {"covariates": ["intercept"],
                              "terms": [{"kind": "ncs", "covariate": "period",
                                         "lambda": 100.0}]},
               "lambda_grid": {"lo": 0.1, "hi": 1000.0, "num": 5}},
    # a term at "select" in each submodel, over the default 30 lambdas: the
    # location one wins at the top edge, the dispersion one inside the grid
    "select2": {"model": "logsym", "family": {"name": "normal"},
                "location": {"covariates": ["intercept"], "use_offset": True,
                             "terms": [{"kind": "ncs", "covariate": "age",
                                        "lambda": "select"}]},
                "dispersion": {"covariates": ["intercept"],
                               "terms": [{"kind": "ncs", "covariate": "period",
                                          "lambda": "select"}]}},
}
# case: the command line, its artifact, and the BLAS settings of its runs
# on the pool. The BLAS thread count moves bits of a large fit by itself,
# so the big select fit runs with one BLAS thread only; the small one runs
# in the default environment, where its grids fork by the package's pin.
CASES = {
    "poisson-envelope": (["envelope", "small", "poisson", "--m-sims", "20"], "envelope.csv",
                         ("default", "one")),
    "normal-envelope": (["envelope", "small", "normal", "--m-sims", "20"], "envelope.csv",
                        ("default", "one")),
    "select-fit": (["fit", "big", "select"], "fit.json", ("one",)),
    "small-select-fit": (["fit", "tiny", "select2", "-vv"], "fit.json", ("default",)),
}

# Runs the CLI on its arguments, recording for each map of the run whether
# forked workers ran its tasks, then prints that list, the process's
# _THREADED and its usable CPU count.
RECORD = """\
import json, os, sys
from logsymrate import diagnostics, logsym_fit
from logsymrate.cli import main
forked, real = [], logsym_fit._map_in_order
def recording(fn, m):
    out = real(lambda i: (os.getpid(), fn(i)), m)
    forked.append(any(pid != os.getpid() for pid, _ in out))
    return [got for _, got in out]
logsym_fit._map_in_order = diagnostics._map_in_order = recording
assert main(sys.argv[1:]) == 0
print(json.dumps([forked, logsym_fit._THREADED, logsym_fit._cpu_count()]))
"""

# RECORD where multiprocessing.synchronize cannot be imported, as on a host
# without a working shared semaphore: the maps must fork all the same
NO_SEMAPHORE = 'import sys\nsys.modules["multiprocessing.synchronize"] = None\n' + RECORD
NO_SEMAPHORE_CASES = ("normal-envelope", "small-select-fit")


def expected_forks(case, threaded, cpus):
    """Whether each map of a case's run forks: every map of two or more
    tasks does, whatever its size, given more than one usable CPU and no
    other thread at import."""
    fork = not threaded and cpus > 1
    # the finite-difference check of a fit never maps
    return {"poisson-envelope": [fork],  # the replicates
            "normal-envelope": [fork],
            "select-fit": [fork],  # the lambda grid
            "small-select-fit": [fork, fork]}[case]  # a grid per term


def selection_log(stderr):
    """The lines a run logs while selecting lambdas: each grid point's AIC
    at DEBUG, and a winner at the edge of the grid as a WARNING."""
    return [line for line in stderr.splitlines() if line.startswith("logsymrate ")
            and " select " in line]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """{(case, blas, where): (artifact bytes, selection log, fork record or
    None), or the run's failure} of every run, "pool" and "no-semaphore"
    runs recorded and "cpu0" ones pinned by taskset where it exists; two at
    a time, since most of a run is its single-threaded start."""
    root = tmp_path_factory.mktemp("pool")
    for name, doc in DOCS.items():
        (root / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    for table in ("small", "tiny", "big"):
        assert main(["simulate", "--spec", str(root / f"{table}.json"),
                     "--out", str(root / table)]) == 0
    keys = [(case, blas, "pool") for case, (_, _, settings) in CASES.items()
            for blas in settings]
    keys += [(case, "one", "no-semaphore") for case in NO_SEMAPHORE_CASES]
    if shutil.which("taskset") is not None:
        keys += [(case, "one", "cpu0") for case in CASES]

    def run(key):
        case, blas, where = key
        (command, table, spec, *flags), artifact, _ = CASES[case]
        out = root / "-".join(key)
        argv = [command, "--input", str(root / table / "simulated.csv"),
                "--spec", str(root / f"{spec}.json"), *flags, "--out", str(out)]
        try:
            if where == "cpu0":
                done = python("-m", "logsymrate.cli", *argv, env=BLAS[blas], cpu0=True)
                record = None
            else:
                script = NO_SEMAPHORE if where == "no-semaphore" else RECORD
                done = python("-c", script, *argv, env=BLAS[blas])
                record = json.loads(done.stdout.splitlines()[-1])
        except AssertionError as exc:  # fails only the tests that read this run
            return exc
        return (out / artifact).read_bytes(), selection_log(done.stderr), record

    with ThreadPoolExecutor(2) as pool:
        return dict(zip(keys, pool.map(run, keys)))


def outcome(runs, key):
    """A run's artifact bytes, selection log and fork record; its failure is
    raised."""
    if isinstance(runs[key], AssertionError):
        raise runs[key]
    return runs[key]


@pytest.mark.parametrize("case", CASES)
def test_pooled_runs_write_the_bytes_of_one_cpu(runs, case):
    if shutil.which("taskset") is None:
        pytest.skip("taskset is missing: no run can be pinned to one CPU")
    if _cpu_count() < 2:
        pytest.skip("fewer than 2 usable CPUs: no map forks")
    one_cpu = outcome(runs, (case, "one", "cpu0"))[:2]
    for blas in CASES[case][2]:
        pooled = outcome(runs, (case, blas, "pool"))[:2]
        assert pooled == one_cpu, f"{case} with {blas} BLAS threads"
    if case == "small-select-fit":
        log = one_cpu[1]
        assert sum(" DEBUG select " in line for line in log) == 60
        assert sum(" WARNING select " in line for line in log) == 1


@pytest.mark.parametrize("case, blas", [(case, blas) for case, (_, _, settings) in CASES.items()
                                        for blas in settings])
def test_maps_fork_by_the_rule(runs, case, blas):
    forked, threaded, cpus = outcome(runs, (case, blas, "pool"))[2]
    assert forked == expected_forks(case, threaded, cpus)


@pytest.mark.parametrize("case", NO_SEMAPHORE_CASES)
def test_maps_fork_where_no_semaphore_can_be_made(runs, case):
    # the workers share no lock or counter, so the map needs nothing of
    # multiprocessing.synchronize
    if shutil.which("taskset") is None:
        pytest.skip("taskset is missing: no run can be pinned to one CPU")
    if _cpu_count() < 2:
        pytest.skip("fewer than 2 usable CPUs: no map forks")
    *pooled, (forked, threaded, _) = outcome(runs, (case, "one", "no-semaphore"))
    assert (forked, threaded) == (expected_forks(case, False, 2), False)
    assert pooled == list(outcome(runs, (case, "one", "cpu0"))[:2])


def test_default_environment_forks_a_782_cell_grid(tmp_path):
    # the package pins one BLAS thread before numpy loads, so a CLI run with
    # no thread variable set runs no other thread and forks the default
    # 30-lambda grid on 23 ages x 34 periods, given more than one usable CPU
    # a bump at age 60, so that the selected lambda is inside the grid
    bump = {"x": [50, 55, 60, 65, 72], "y": [0.0, 0.15, 0.3, 0.15, 0.0]}
    truth = dict(DOCS["small"], ages=list(range(50, 73)), periods=list(range(1980, 2014)),
                 log_rate=dict(LINEAR, f_age=bump))
    spec = {"model": "logsym", "family": {"name": "normal"},
            "location": {"covariates": ["intercept", "period"], "use_offset": True,
                         "terms": [{"kind": "ncs", "covariate": "age", "lambda": "select"}]},
            "dispersion": {"covariates": ["intercept"],
                           "terms": [{"kind": "psp", "covariate": "age", "basis_dim": 10,
                                      "lambda": 10.0}]}}
    for name, doc in (("truth", truth), ("spec", spec)):
        (tmp_path / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    assert main(["simulate", "--spec", str(tmp_path / "truth.json"),
                 "--out", str(tmp_path / "mid")]) == 0
    forked, threaded, cpus = run_fresh(
        RECORD, "fit", "--input", str(tmp_path / "mid" / "simulated.csv"),
        "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "fit"),
        env=BLAS["default"])
    assert (forked, threaded) == ([cpus > 1], False)


@pytest.mark.parametrize("case", ["user-variable", "numpy-first"])
def test_a_blas_setting_made_before_the_import_is_left_alone(case):
    script = ("import json, os, sys\n"
              "if sys.argv[1] == 'numpy-first':\n"
              "    import numpy\n"
              "import logsymrate.cli\n"
              f"print(json.dumps([os.environ.get(name) for name in {BLAS_VARS!r}]))\n")
    if case == "user-variable":
        env, expected = dict(BLAS["default"], OPENBLAS_NUM_THREADS="2"), ["2", "1", "1"]
    else:
        env, expected = BLAS["default"], [None, None, None]
    assert run_fresh(script, case, env=env) == expected
