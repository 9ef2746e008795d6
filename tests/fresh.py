"""Fresh interpreters on the package's source tree, for what a test cannot
see in its own process: which modules an import loads, forked workers, CPU
affinity and BLAS threads."""

import json
import os
import subprocess
import sys

import logsymrate

SRC = os.path.dirname(os.path.dirname(logsymrate.__file__))
# the variables that set a BLAS's thread count; None unsets one, so the BLAS
# starts its default helper threads
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS = {"default": dict.fromkeys(BLAS_VARS), "one": dict.fromkeys(BLAS_VARS, "1")}


def python(*args, env=None, cpu0=False, timeout=120, **kwargs):
    """``sys.executable`` on ``args`` with ``src`` on its path, ``env`` over
    this process's environment (None unsets a variable), and pinned to CPU 0
    by ``taskset`` if ``cpu0``. Returns the finished process, output as
    text; fails the test on a nonzero exit, showing its stderr."""
    full = {**os.environ, "PYTHONPATH": SRC}
    for name, value in (env or {}).items():
        if value is None:
            full.pop(name, None)
        else:
            full[name] = value
    command = [sys.executable, *args]
    if cpu0:
        command = ["taskset", "-c", "0", *command]
    done = subprocess.run(command, env=full, capture_output=True, text=True,
                          timeout=timeout, **kwargs)
    assert done.returncode == 0, f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}"
    return done


def run_fresh(script, *args, env=None):
    """Last stdout line of ``script`` in a fresh interpreter, as JSON."""
    return json.loads(python("-c", script, *args, env=env).stdout.splitlines()[-1])
