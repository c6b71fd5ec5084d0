"""Location Profile Routing workbench.

Subpackages and modules:

- ``analytic``: closed-form success, regularity, and cost models.
- ``figures``: CSV emission for the standard curve families.
- ``profile``: multi-order location profiles (build, predict, serialize).
- ``mobility``: synthetic trace generation and empirical validation.
- ``streams``: many numpy random streams drawn at once, without numpy.random.
- ``simnet``: unit-disk network simulator with GPSR, GHLS, and LPR.
- ``cli``: command-line entry point.

Imported before numpy, lprlab sets OPENBLAS_NUM_THREADS=1 unless
OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS is set.
"""

import os as _os
import sys as _sys

# lprlab makes no BLAS call (tests/test_exports.py guards that), yet at
# `import numpy` OpenBLAS starts a worker per extra CPU, and each spins
# about 0.1-0.15 s of CPU before it sleeps: about a fifth of a benchmark
# job's cpu_s on 2 vCPUs (OpenBLAS 0.3.31). A user's setting wins.
if "numpy" not in _sys.modules and not any(
        name in _os.environ
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"
