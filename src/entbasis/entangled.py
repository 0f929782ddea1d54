"""Maximally entangled vectors and bases of C^d tensor C^d.

The central tool is the correspondence between vectors and operators: every
vector Phi in C^d tensor C^d is (X tensor I) Omega for a unique d x d matrix
X, where Omega is the canonical maximally entangled vector. Under this map

    <Phi, Psi>            = (1/d) tr(X_Phi^dag X_Psi)
    (X tensor I) Omega    = (I tensor X^T) Omega
    reduced density, left = (1/d) X X^dag
    reduced density, right= (1/d) X^T conj(X)
    Phi maximally entangled  iff  X unitary

so orthonormal bases of maximally entangled vectors are exactly families of
d^2 unitaries orthonormal in the normalized trace inner product. One class,
EntangledBasis, holds such a family as a stacked (d^2, d, d) operator array
and derives its vectors from it; one verifier, verify_unitary_basis, checks
it and returns a CheckReport like every other check in the package. The
shift-and-multiply construction below produces such families from d complex
Hadamard matrices and a Latin square.

All transposes and conjugates are taken in the canonical basis, which is
also the Schmidt basis of Omega; this one global convention makes each
identity above literally testable.
"""

from dataclasses import dataclass

import numpy as np

from .hadamard import is_hadamard, validate_latin_square, fourier_hadamard, cyclic_latin_square
from .linalg import StateVector, unitarity_residual
from .reports import TOL, tolerance_report

__all__ = [
    "omega",
    "vector_from_operator",
    "operator_from_vector",
    "reduced_density",
    "is_max_entangled",
    "EntangledBasis",
    "verify_unitary_basis",
    "shift_multiply_basis",
    "fourier_basis",
    "basis_matrix",
]


def omega(d):
    """Canonical maximally entangled vector (1/sqrt(d)) sum_a e_a tensor e_a."""
    if d < 1:
        raise ValueError("dimension must be positive")
    amps = np.zeros(d * d, dtype=complex)
    amps[:: d + 1] = 1.0 / np.sqrt(d)
    return StateVector(d, d, amps)


def vector_from_operator(x, d=None):
    """(X tensor I) Omega: amplitudes[i*d+j] = X[i,j]/sqrt(d)."""
    x = np.asarray(x, dtype=complex)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError("operator must be square")
    if d is not None and x.shape[0] != d:
        raise ValueError("operator size %d does not match dimension %d" % (x.shape[0], d))
    d = x.shape[0]
    return StateVector(d, d, x.reshape(-1) / np.sqrt(d))


def operator_from_vector(v):
    """Inverse of vector_from_operator: X[i,j] = sqrt(d) * amplitudes[i*d+j]."""
    if v.dim_left != v.dim_right:
        raise ValueError("vector must live in C^d tensor C^d with equal factors")
    d = v.dim_left
    return np.sqrt(d) * v.reshaped()


def reduced_density(v, side, tol=TOL):
    """Partial trace of |v><v| over the complementary factor.

    side is "left" (trace out the right factor) or "right". Requires a unit
    vector. For v = (X tensor I) Omega the results are (1/d) X X^dag and
    (1/d) X^T conj(X) respectively.
    """
    if abs(v.norm - 1.0) > tol:
        raise ValueError("reduced density needs a unit vector, norm is %.6g" % v.norm)
    m = v.reshaped()
    if side == "left":
        return m @ m.conj().T
    if side == "right":
        return m.T @ m.conj()
    raise ValueError("side must be 'left' or 'right', got %r" % (side,))


def is_max_entangled(v, tol=TOL):
    """Check that both reductions of v are maximally mixed.

    Equivalent to unitarity of the corresponding operator X; max_violation
    is the residual ||X^dag X - I||_F.
    """
    return tolerance_report("max-entangled", unitarity_residual(operator_from_vector(v)), tol)


@dataclass(frozen=True, eq=False)
class EntangledBasis:
    """Ordered basis of d^2 vectors (X_a tensor I) Omega of C^d tensor C^d.

    ops is one complex (d^2, d, d) array holding the operators X_a. The
    basis is orthonormal and maximally entangled exactly when the X_a are
    unitaries orthonormal in (1/d) tr(X^dag Y); verify_unitary_basis checks
    both.
    """

    dim: int
    ops: np.ndarray

    def __post_init__(self):
        d = self.dim
        ops = np.asarray(self.ops, dtype=complex)
        if ops.shape != (d * d, d, d):
            raise ValueError(
                "need %d operators of size %d x %d, got an array of shape %s"
                % (d * d, d, d, ops.shape)
            )
        object.__setattr__(self, "ops", ops)

    @classmethod
    def from_vectors(cls, dim, vectors):
        """Basis whose a-th vector is vectors[a] (StateVectors in C^dim tensor C^dim)."""
        vectors = tuple(vectors)
        for v in vectors:
            if v.dim_left != dim or v.dim_right != dim:
                raise ValueError("every vector must live in C^%d tensor C^%d" % (dim, dim))
        return cls(dim, np.sqrt(dim) * np.array([v.reshaped() for v in vectors]))

    @classmethod
    def from_unitary_basis(cls, basis):
        """The basis itself: operators and vectors are one object now."""
        return basis

    @property
    def vectors(self):
        return tuple(vector_from_operator(x) for x in self.ops)


def basis_matrix(basis):
    """d^2 x d^2 matrix whose columns are the basis vector amplitudes."""
    n = basis.dim * basis.dim
    return basis.ops.reshape(n, n).T / np.sqrt(basis.dim)


def verify_unitary_basis(basis, tol=TOL):
    """Check unitarity of each element and (1/d) tr(X_a^dag X_b) = delta_ab.

    max_violation is the worse of the two residuals, which details carries
    as max_unitarity_residual (Frobenius norm of X_a^dag X_a - I) and
    max_orthonormality_residual (largest entry of the Gram matrix minus I).
    On failure the one witness is (a, a) for the first operator whose unitarity
    residual reaches tol, else the pair (a, b) of the largest Gram deviation.
    """
    d = basis.dim
    ops = basis.ops
    n = len(ops)
    unit = unitarity_residual(ops)
    flat = ops.reshape(n, d * d)
    gram = flat.conj() @ flat.T
    gram /= d
    gram.flat[:: n + 1] -= 1.0
    dev = np.abs(gram)
    worst_unit = float(unit.max())
    worst_orth = float(dev.max())
    witnesses = ()
    # entries near the double range overflow to a NaN residual, which fails too
    bad = np.flatnonzero(~(unit < tol))
    if bad.size:
        a = int(bad[0])
        witnesses = ({"pair": [a, a], "violation": float(unit[a])},)
    elif not worst_orth < tol:
        a, b = np.unravel_index(int(dev.argmax()), dev.shape)
        witnesses = ({"pair": [int(a), int(b)], "violation": worst_orth},)
    return tolerance_report(
        "unitary-basis",
        max(worst_unit, worst_orth),
        tol,
        witnesses=witnesses,
        details={
            "max_unitarity_residual": worst_unit,
            "max_orthonormality_residual": worst_orth,
        },
    )


def shift_multiply_basis(hadamards, tau, tol=TOL):
    """Shift-and-multiply family: U^{ij} e_k = H^{(j)}[i,k] e_{tau[k,j]}.

    hadamards is a list of d complex Hadamard matrices (one per column index
    j), tau a d x d Latin square. The d^2 operators are indexed a = i*d + j
    and form a unitary basis; the output is verified before returning.
    """
    tau = np.asarray(tau)
    lat = validate_latin_square(tau)
    d = tau.shape[0]
    if len(hadamards) != d:
        raise ValueError("need %d Hadamard matrices, got %d" % (d, len(hadamards)))
    hs = [np.asarray(h, dtype=complex) for h in hadamards]
    for j, h in enumerate(hs):
        if h.shape != (d, d):
            raise ValueError("Hadamard %d has order %s, expected %d" % (j, h.shape, d))
        rep = is_hadamard(h, tol)
        if not rep:
            raise ValueError(
                "matrix %d fails Hadamard validation: modulus deviation %.3e,"
                " product residual %.3e"
                % (j, rep.details["max_modulus_deviation"], rep.details["max_product_residual"])
            )
    if not lat:
        raise ValueError(
            "invalid Latin square: row %s, column %s"
            % (lat.details["bad_row"], lat.details["bad_column"])
        )
    hs = np.stack(hs)
    i, j, k = np.meshgrid(np.arange(d), np.arange(d), np.arange(d), indexing="ij")
    ops = np.zeros((d * d, d, d), dtype=complex)
    ops[i * d + j, tau[k, j], k] = hs[j, i, k]
    basis = EntangledBasis(d, ops)
    report = verify_unitary_basis(basis, tol)
    if not report:
        # inputs passed validation yet the output is not a basis: numerical breakdown
        raise ValueError(
            "constructed family fails basis verification at pair %s"
            % (report.witnesses[0]["pair"],)
        )
    return basis


def fourier_basis(d, tol=TOL):
    """Shift-and-multiply basis from d copies of the Fourier matrix and (k+j) mod d."""
    h = fourier_hadamard(d)
    return shift_multiply_basis([h] * d, cyclic_latin_square(d), tol)
