"""Suite-wide setup, run before any test module imports numpy.

The ranker's matrix products are small, so a multi-threaded BLAS spends
about twice the CPU time for no wall-time gain.  Pin every common BLAS
backend to one thread unless the caller already chose a count; the
variables only take effect if set before numpy is first imported.
"""

import os

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
