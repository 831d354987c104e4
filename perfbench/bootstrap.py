"""Process set-up shared by the benchmark's entry points.

`prepare()` must run before numpy is imported: it caps the BLAS thread pools
at the CPUs this process may use and puts the checkout's own `src/` first on
the import path, so the benchmark always measures the sources next to it and
never an installed copy of `sada`.
"""

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def prepare() -> None:
    """Exit with code 2 when the checkout holds no `sada` sources."""
    if not (SRC / "sada" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no sada sources under {SRC}\n")
        raise SystemExit(2)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc())
    sys.path.insert(0, str(SRC))


def machine_facts() -> dict:
    import numpy
    import scipy

    return {"nproc": nproc(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": int(os.environ[BLAS_THREAD_VARS[0]])}
