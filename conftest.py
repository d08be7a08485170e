"""Test-session setup shared by `tests/` and `perfbench/`.

BLAS is pinned to one thread before numpy first loads, as the `iclattn`
CLI does, so timing-sensitive tests measure what `iclattn bench` measures.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
