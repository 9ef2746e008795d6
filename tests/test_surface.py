"""The package's exported names, its import graph and the call sites the
benchmark hooks.

A change in ``src/`` that breaks any of them fails here, not only in
the benchmark's own self-test.
"""

import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import logsymrate

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_hooks_resolve():
    tracer = load_tracer()
    assert len(tracer.resolve_hooks()) == len(tracer.HOOKS)


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


def test_package_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about 0.4 s and 17 MB per process; the package uses
    # the scipy.special functions its distributions wrap. A fresh
    # interpreter, since the test suite itself imports scipy.stats.
    script = ("import sys\n"
              "import logsymrate, logsymrate.cli, logsymrate.diagnostics\n"
              "print('scipy.stats' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(logsymrate.__file__))
    done = subprocess.run([sys.executable, "-c", script],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "False"
