"""The package's exported names and the call sites the benchmark hooks.

A rename or deletion in ``src/`` that breaks either fails here, not only in
the benchmark's own self-test.
"""

import importlib.util
import inspect
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
