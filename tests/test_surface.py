"""The package's exported names, its import graph and the call sites the
benchmark hooks.

A change in ``src/`` that breaks any of them fails here, not only in
the benchmark's own self-test.
"""

import copy
import importlib.util
import inspect
import json
from pathlib import Path

import logsymrate

from .fresh import BLAS, run_fresh
from .test_cli import BREAST_DOC, POISSON_DOC, TRUTH_DOC
from .test_cli_pool import DOCS as POOL_DOCS

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_hooks_resolve():
    tracer = load_perfbench("tracer")
    assert len(tracer.resolve_hooks()) == len(tracer.HOOKS)


def test_benchmark_probe_sites_resolve():
    # the probe wraps these by name to record each job's converged list
    for modname, attr in load_perfbench("reference").Probe.SITES:
        module = importlib.import_module(f"logsymrate.{modname}")
        assert callable(getattr(module, attr)), (modname, attr)


def test_star_import_gives_exactly_all():
    # raises AttributeError on an export that no longer resolves; a
    # duplicate in __all__ makes the sorted lists differ
    namespace = {}
    exec("from logsymrate import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(logsymrate.__all__)


def test_every_imported_public_name_is_exported():
    # a name imported into the package but left out of __all__ is stale
    public = [name for name, value in vars(logsymrate).items()
              if not name.startswith("_") and not inspect.ismodule(value)]
    assert sorted(public) == sorted(set(logsymrate.__all__) - {"__version__"})


# scipy.stats costs about 0.4 s and 17 MB per process, and scipy.integrate
# pulls in scipy.optimize and scipy.sparse (about 0.2 s and 20 MB). The
# package imports no scipy module at import time (see the tests below): it
# imports scipy.special where a distribution function or a Poisson
# likelihood needs it, scipy.linalg only for the pivoted QR of a design
# whose rank the singular values leave in doubt, and scipy.integrate only
# for the contaminated normal's kappa.
HEAVY_SCIPY = ("scipy.stats", "scipy.interpolate", "scipy.integrate", "scipy.sparse",
               "scipy.optimize")


def test_package_import_leaves_heavy_scipy_modules_unloaded():
    script = ("import json, sys\n"
              "import logsymrate, logsymrate.cli, logsymrate.diagnostics\n"
              f"print(json.dumps([m for m in {HEAVY_SCIPY!r} if m in sys.modules]))\n")
    assert run_fresh(script) == []


def test_package_import_loads_no_scipy_module():
    script = ("import json, sys\n"
              "import logsymrate, logsymrate.cli, logsymrate.diagnostics\n"
              "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy']))\n")
    assert run_fresh(script) == []


def scipy_loaded_by(tmp_path, spec_doc, *commands):
    """The scipy packages, to two name levels, that a fresh process loads
    to simulate TRUTH_DOC's table and run each command on it with
    ``spec_doc``; every command must exit 0. A lambda grid runs in that
    process, not on forked workers, so the grid fits' imports count."""
    (tmp_path / "truth.json").write_text(json.dumps(TRUTH_DOC), encoding="utf-8")
    (tmp_path / "spec.json").write_text(json.dumps(spec_doc), encoding="utf-8")
    script = ("import json, sys\n"
              "from logsymrate import logsym_fit\n"
              "from logsymrate.cli import main\n"
              "logsym_fit._cpu_count = lambda: 1\n"
              "d = sys.argv[1]\n"
              "assert main(['simulate', '--spec', d + '/truth.json', '--out', d + '/sim']) == 0\n"
              "for command in sys.argv[2:]:\n"
              "    assert main([command, '--input', d + '/sim/simulated.csv',\n"
              "                 '--spec', d + '/spec.json', '--out', d + '/' + command]) == 0\n"
              "print(json.dumps(sorted({'.'.join(m.split('.')[:2]) for m in sys.modules\n"
              "                         if m.split('.')[0] == 'scipy'})))\n")
    return run_fresh(script, str(tmp_path), *commands)


def test_a_normal_fit_and_its_curves_load_no_scipy_module(tmp_path):
    # ncs slopes, the rank check of a full-rank design and the normal
    # density are numpy
    assert scipy_loaded_by(tmp_path, BREAST_DOC, "fit", "curves") == []


def test_a_normal_fit_selecting_lambda_loads_no_scipy_module(tmp_path):
    assert scipy_loaded_by(tmp_path, POOL_DOCS["select"], "fit") == []


def test_a_student_fit_loads_scipy_special_but_not_scipy_linalg(tmp_path):
    # the student density's constant takes gammaln
    loaded = scipy_loaded_by(tmp_path, dict(BREAST_DOC, family={"name": "student", "nu": 5.0}),
                             "fit")
    assert "scipy.special" in loaded and "scipy.linalg" not in loaded


def test_a_student_grid_forks_after_scipy_special_is_loaded(tmp_path):
    # a worker forked before the import would import scipy.special itself,
    # once per worker and grid
    (tmp_path / "truth.json").write_text(json.dumps(TRUTH_DOC), encoding="utf-8")
    (tmp_path / "spec.json").write_text(json.dumps(dict(
        POOL_DOCS["select2"], family={"name": "student", "nu": 5.0})), encoding="utf-8")
    script = ("import json, sys\n"
              "from logsymrate import logsym_fit\n"
              "from logsymrate.cli import main\n"
              "seen, map_in_order = [], logsym_fit._map_in_order\n"
              "def spy(fn, m):\n"
              "    seen.append('scipy.special' in sys.modules)\n"
              "    return map_in_order(fn, m)\n"
              "logsym_fit._map_in_order = spy\n"
              "d = sys.argv[1]\n"
              "assert main(['simulate', '--spec', d + '/truth.json', '--out', d + '/sim']) == 0\n"
              "main(['fit', '--input', d + '/sim/simulated.csv', '--spec', d + '/spec.json',\n"
              "      '--out', d + '/fit'])\n"
              "print(json.dumps(seen))\n")
    assert run_fresh(script, str(tmp_path)) == [True, True]


def test_only_a_contaminated_normal_loads_scipy_integrate(tmp_path):
    truth, spec = tmp_path / "truth.json", tmp_path / "spec.json"
    truth.write_text(json.dumps(TRUTH_DOC), encoding="utf-8")
    spec.write_text(json.dumps(BREAST_DOC), encoding="utf-8")
    script = ("import json, sys\n"
              "from logsymrate.cli import main\n"
              "from logsymrate.logsym_family import GeneratorSpec, dispersion_info_const\n"
              "truth, spec, out = sys.argv[1:]\n"
              "assert main(['simulate', '--spec', truth, '--out', out]) == 0\n"
              "assert main(['fit', '--input', out + '/simulated.csv', '--spec', spec,\n"
              "             '--out', out + '/fit']) == 0\n"
              "after_fit = 'scipy.integrate' in sys.modules\n"
              "kappa = dispersion_info_const(GeneratorSpec('contnormal', nu1=0.15, nu2=0.25))\n"
              "print(json.dumps([after_fit, 'scipy.integrate' in sys.modules, kappa.hex()]))\n")
    # integrate.quad's kappa for these weights, pinned to the bit
    assert run_fresh(script, str(truth), str(spec), str(tmp_path / "out")) == \
        [False, True, "0x1.7593ca463cf56p-2"]


def test_fit_compare_and_curves_leave_the_process_pool_unloaded(tmp_path):
    # multiprocessing is imported inside the pool's map, which a fit at fixed
    # lambda never calls: not for a small table, nor for the 2,000-cell one,
    # whose finite-difference check runs in this process too, with one BLAS
    # thread and more than one usable CPU; scipy.special, which compare's
    # Poisson fit loads, imports concurrent.futures, but not its process pool
    big_spec = copy.deepcopy(POOL_DOCS["select"])
    big_spec["location"]["terms"][0]["lambda"] = 1.0
    docs = {"truth": TRUTH_DOC, "spec": BREAST_DOC, "poisson": POISSON_DOC,
            "big-truth": POOL_DOCS["big"], "big-spec": big_spec}
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    script = ("import json, sys\n"
              "from logsymrate.cli import main\n"
              "d = sys.argv[1]\n"
              "pool = ('multiprocessing', 'concurrent.futures.process')\n"
              "for size in ('', 'big-'):\n"
              "    sim = d + '/' + size + 'sim'\n"
              "    common = ['--input', sim + '/simulated.csv',\n"
              "              '--spec', d + '/' + size + 'spec.json']\n"
              "    assert main(['simulate', '--spec', d + '/' + size + 'truth.json',\n"
              "                 '--out', sim]) == 0\n"
              "    assert main(['fit', *common, '--out', sim + '/fit']) == 0\n"
              "    assert main(['compare', *common, '--spec2', d + '/poisson.json',\n"
              "                 '--out', sim + '/cmp']) == 0\n"
              "    assert main(['curves', *common, '--out', sim + '/cur']) == 0\n"
              "print(json.dumps([m for m in pool if m in sys.modules]))\n")
    assert run_fresh(script, str(tmp_path), env=BLAS["one"]) == []


def test_threads_are_read_at_import():
    # with one BLAS thread a process runs no other thread when logsym_fit is
    # imported, and the reading stands; a thread started before the import
    # is seen
    script = ("import json, os, sys, threading\n"
              "os.environ.update(OPENBLAS_NUM_THREADS='1', OMP_NUM_THREADS='1',\n"
              "                  MKL_NUM_THREADS='1')\n"
              "stop = threading.Event()\n"
              "helper = threading.Thread(target=stop.wait)\n"
              "if sys.argv[1] == 'before':\n"
              "    helper.start()\n"
              "from logsymrate import logsym_fit\n"
              "if sys.argv[1] == 'after':\n"
              "    helper.start()\n"
              "stop.set()\n"
              "print(json.dumps(logsym_fit._THREADED))\n")
    assert [run_fresh(script, when) for when in ("after", "before")] == [False, True]
