"""Test-session setup: pin BLAS to one thread before numpy is imported.

Criterion 1 gates on wall time, and a multi-threaded BLAS on a shared
host makes its 200 SVDs slow down by several times under load.  This is
the same pin that ``perfbench/run.py`` sets; a value already in the
environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
