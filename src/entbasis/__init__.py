"""Orthonormal bases of maximally entangled vectors in C^d tensor C^d.

Construction (shift-and-multiply from complex Hadamard matrices and Latin
squares), verification, the vector-operator correspondence, factorization
of unitaries into local parts, and numerical checkers for the structure
that singles out d=2: the Bell basis, the antilinear spin flip and its
universality, Clifford anticommutation relations, and the determinant
criterion for locality.
"""

# numpy's OpenBLAS starts a thread per core as it loads; this package's small products only
# stall on them, and a fresh `import entbasis.cli` took 151 ms with them against 84. Default /
# one thread: Fourier d=16 conditions 3+6 636 / 584 ms, gen --dim 24 13.6 / 13.7, dense Gram
# d=24 21 / 29. A user's thread count, or numpy imported first, wins; OpenBLAS reads it at load.
import os as _os
import sys as _sys
if "numpy" not in _sys.modules and _os.environ.keys().isdisjoint(
        ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        __import__("numpy")
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from . import bell, clifford, entangled, factorize, hadamard, linalg
from .bell import *  # noqa: F403 -- each module's __all__ is its public surface
from .clifford import *  # noqa: F403
from .entangled import *  # noqa: F403
from .factorize import *  # noqa: F403
from .hadamard import *  # noqa: F403
from .linalg import *  # noqa: F403
from .reports import CheckReport

__version__ = "0.1.0"

__all__ = sorted(
    ["CheckReport"]
    + bell.__all__
    + clifford.__all__
    + entangled.__all__
    + factorize.__all__
    + hadamard.__all__
    + linalg.__all__
)
