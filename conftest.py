"""Session-wide test settings, loaded before any test module imports numpy.

One BLAS thread per process: the suite's matrices are at most a few
hundred rows, and OpenBLAS's spinning worker threads make single calls
many times slower when another process shares the cores.  A value set in
the environment is kept.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
