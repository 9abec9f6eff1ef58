"""One BLAS thread for every benchmark script. Import it before numpy.

A second OpenBLAS thread buys nothing at the benchmark's matrix sizes and
spins on the other core.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
