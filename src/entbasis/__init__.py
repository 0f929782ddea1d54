"""Orthonormal bases of maximally entangled vectors in C^d tensor C^d.

Construction (shift-and-multiply from complex Hadamard matrices and Latin
squares), verification, the vector-operator correspondence, factorization
of unitaries into local parts, and numerical checkers for the structure
that singles out d=2: the Bell basis, the antilinear spin flip and its
universality, Clifford anticommutation relations, and the determinant
criterion for locality.
"""

from .bell import (
    AntilinearOp,
    BellCanonicalization,
    bell_basis,
    bell_conjugate,
    bell_matrix,
    bell_unitary_basis,
    canonicalize_bell_basis,
    check_bell_condition,
    check_det_criterion_agreement,
    check_universality,
    det_criterion,
    theta2,
    theta_n,
    universality_search,
)
from .clifford import build_clifford_generators, clifford_check
from .entangled import (
    EntangledBasis,
    basis_matrix,
    fourier_basis,
    is_max_entangled,
    omega,
    operator_from_vector,
    reduced_density,
    shift_multiply_basis,
    vector_from_operator,
    verify_unitary_basis,
)
from .factorize import (
    FactorizationResult,
    check_preserves_max_entangled,
    factor_local,
    operator_schmidt,
)
from .hadamard import (
    cyclic_latin_square,
    fourier_hadamard,
    is_hadamard,
    sylvester_hadamard,
    tensor_hadamard,
    validate_latin_square,
)
from .linalg import (
    PAULIS,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    SchmidtDecomposition,
    StateVector,
    dagger,
    flip_operator,
    haar_special_unitary,
    haar_unitary,
    random_orthogonal,
    schmidt,
    tensor,
)
from .reports import CheckReport

__version__ = "0.1.0"

__all__ = [
    "AntilinearOp",
    "BellCanonicalization",
    "CheckReport",
    "EntangledBasis",
    "FactorizationResult",
    "PAULIS",
    "SIGMA1",
    "SIGMA2",
    "SIGMA3",
    "SchmidtDecomposition",
    "StateVector",
    "basis_matrix",
    "bell_basis",
    "bell_conjugate",
    "bell_matrix",
    "bell_unitary_basis",
    "build_clifford_generators",
    "canonicalize_bell_basis",
    "check_bell_condition",
    "check_det_criterion_agreement",
    "check_preserves_max_entangled",
    "check_universality",
    "clifford_check",
    "cyclic_latin_square",
    "dagger",
    "det_criterion",
    "factor_local",
    "flip_operator",
    "fourier_basis",
    "fourier_hadamard",
    "haar_special_unitary",
    "haar_unitary",
    "is_hadamard",
    "is_max_entangled",
    "omega",
    "operator_from_vector",
    "operator_schmidt",
    "random_orthogonal",
    "reduced_density",
    "schmidt",
    "shift_multiply_basis",
    "sylvester_hadamard",
    "tensor",
    "tensor_hadamard",
    "theta2",
    "theta_n",
    "universality_search",
    "validate_latin_square",
    "vector_from_operator",
    "verify_unitary_basis",
]
