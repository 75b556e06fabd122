"""Desk-scale domain-adaptation pipeline for a tiny byte-level language model."""

import os

# One BLAS/OpenMP thread unless the caller chose a count: the thread count
# changes the summation order inside matmuls, so trained bytes are only
# reproducible at a fixed count. Takes effect when granary loads before numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
