"""Set-up child of the benchmark, run as its own process.

``setup_child.py <kind> <config>`` starts the interpreter, imports zoptim,
loads and validates a workload's config and builds its objective, then
exits; the benchmark times the whole process. ``setup_child.py facts``
prints the interpreter, numpy and BLAS facts that the CLI children see.
"""

import json
import sys


def build(kind, path):
    import zoptim
    from zoptim import harness

    if kind == "experiment":
        config = harness.load_config(path)
        objective = harness.make_objective(config.objective)
        harness.resolve_partition(config.partition, objective)
        return
    with open(path) as fh:
        raw = json.load(fh)
    if kind == "fig2":
        for d in raw["dims"]:
            zoptim.BlockQuadratic(d, raw.get("regime", "heterogeneous"), raw.get("quad_seed", 0))
    elif kind == "verify":
        zoptim.BlockQuadratic(raw["d"], raw.get("regime", "heterogeneous"), raw.get("quad_seed", 0))
    else:
        raise SystemExit(f"unknown set-up kind {kind!r}")


def _blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def facts():
    import platform

    import numpy as np

    import zoptim

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        threads = _blas_threads()
    except OSError:
        threads = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "zoptim": zoptim.__version__,
        "zoptim_path": zoptim.__file__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": threads,
    }


if __name__ == "__main__":
    if sys.argv[1:] == ["facts"]:
        print(json.dumps(facts()))
    else:
        build(*sys.argv[1:3])
