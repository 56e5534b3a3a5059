"""Record of the interpreter, numeric libraries and thread settings."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys


def _openblas() -> dict:
    """Version string and live thread count of numpy's bundled OpenBLAS."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if get_threads is None or get_config is None:
                continue
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            get_config.argtypes, get_config.restype = [], ctypes.c_char_p
            return {"config": get_config().decode(), "threads": get_threads()}
    return {"config": None, "threads": None}


def _highs_version():
    try:
        from scipy.optimize._highspy import _core
    except ImportError:
        return None
    parts = [getattr(_core, f"HIGHS_VERSION_{p}", None) for p in ("MAJOR", "MINOR", "PATCH")]
    return None if None in parts else ".".join(str(p) for p in parts)


def collect() -> dict:
    import numpy
    import scipy
    from ldpc_forge import _kernels

    return {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "highs": _highs_version(),
        "openblas": _openblas(),
        "nproc": len(os.sched_getaffinity(0)),
        "USING_NUMBA": bool(_kernels.USING_NUMBA),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "ldpc_forge_env": {k: v for k, v in sorted(os.environ.items())
                           if k.startswith("LDPC_FORGE_")},
    }
