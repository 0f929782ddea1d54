"""Orthonormal bases of maximally entangled vectors in C^d tensor C^d.

Construction (shift-and-multiply from complex Hadamard matrices and Latin
squares), verification, the vector-operator correspondence, factorization
of unitaries into local parts, and numerical checkers for the structure
that singles out d=2: the Bell basis, the antilinear spin flip and its
universality, Clifford anticommutation relations, and the determinant
criterion for locality.
"""

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
