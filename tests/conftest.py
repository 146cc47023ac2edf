"""Test-session setup: pin BLAS to one thread before numpy is imported,
and the session's one run of the BER presets.

Criterion 1 gates on wall time, and a multi-threaded BLAS on a shared
host makes its 200 SVDs slow down by several times under load.  This is
the same pin that ``perfbench/run.py`` sets; a value already in the
environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import time  # noqa: E402

import pytest  # noqa: E402

from bicmb.harness import preset, sweep  # noqa: E402


@pytest.fixture(scope="session")
def preset_curves():
    """All BER preset variants at their shipped seeds, plus elapsed time."""
    curves = {}
    t0 = time.perf_counter()
    for name in ("fig3_interleaver", "fig4_streams",
                 "fig5_colocated_vs_distributed", "fig6_fading"):
        p = preset(name)
        curves[name] = {key: sweep(cfg) for key, cfg in p.variants.items()}
    return curves, time.perf_counter() - t0
