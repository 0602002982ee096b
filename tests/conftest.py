"""Pin BLAS to one thread before numpy loads, as the benchmark does.

Unpinned MMSE timings vary about threefold on a 2-core machine, and the
test times quoted in ROADMAP.md are taken pinned.  A value already set in
the environment is kept.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
