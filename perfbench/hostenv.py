"""Run environment: BLAS thread pinning, the facts a result is recorded
with, and a host calibration reading.

`pin_blas_threads` must run before numpy is first imported; this module
imports numpy only inside the functions that need it.
"""

import ctypes
import hashlib
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Thread-count getters exported by the OpenBLAS builds numpy ships with.
_OPENBLAS_GETTERS = ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads")


def pin_blas_threads():
    """Force every BLAS/OpenMP thread variable to 1."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def blas_env_pinned():
    return all(os.environ.get(var) == "1" for var in BLAS_THREAD_VARS)


def blas_threads():
    """Thread count the loaded BLAS library reports, or None when no
    known library is loaded (then only the environment can vouch)."""
    import numpy  # noqa: F401  (loads the BLAS library)

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in _OPENBLAS_GETTERS:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def _blas_vendor():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def _git_commit(root):
    if not (root / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest(root):
    """SHA-256 over the package sources, so a result names the code it
    measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(root, seed, threads):
    import numpy as np

    return {
        "blas_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "blas_threads": threads,
        "blas_vendor": _blas_vendor(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root),
        "seed": seed,
        "argv": sys.argv[1:],
    }


def calibrate(reps=15):
    """Median ms of a fixed numpy plus pure-Python loop that does not
    touch the package: a reading of how fast the host runs right now."""
    import numpy as np

    a = np.arange(96 * 96, dtype=np.float64).reshape(96, 96) / (96 * 96)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        b = a
        for _ in range(20):
            b = np.tanh(b @ a)
        s = 0
        for i in range(30000):
            s += i % 7
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) * 1e3


def repo_root():
    return Path(__file__).resolve().parent.parent
