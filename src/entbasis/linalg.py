"""Dense complex linear algebra substrate.

Tensor products, Schmidt decomposition, the flip (swap) operator, and
seeded Haar-random sampling of unitary and orthogonal matrices. Everything
here is a pure function of its inputs; randomness enters only through
explicit seeds.

Index conventions are 0-based throughout. A vector in C^d1 tensor C^d2
stores the amplitude of e_i tensor e_j at position i*d2 + j, which matches
the row-major Kronecker product convention of numpy.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SIGMA1",
    "SIGMA2",
    "SIGMA3",
    "PAULIS",
    "StateVector",
    "SchmidtDecomposition",
    "tensor",
    "dagger",
    "schmidt",
    "flip_operator",
    "unitarity_residual",
    "haar_unitary",
    "haar_special_unitary",
    "random_orthogonal",
]

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA1, SIGMA2, SIGMA3)


def tensor(a, b):
    """Kronecker product with (A tensor B)[(i*rB+k),(j*cB+l)] = A[i,j]*B[k,l]."""
    return np.kron(np.asarray(a), np.asarray(b))


def dagger(a):
    """Conjugate transpose."""
    return np.asarray(a).conj().T


@dataclass(frozen=True, eq=False)
class StateVector:
    """Vector in C^{dim_left} tensor C^{dim_right}.

    amplitudes[i*dim_right + j] is the coefficient of e_i tensor e_j.
    """

    dim_left: int
    dim_right: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if self.dim_left < 1 or self.dim_right < 1:
            raise ValueError("factor dimensions must be positive")
        if amps.size != self.dim_left * self.dim_right:
            raise ValueError(
                "amplitude length %d does not match %d x %d"
                % (amps.size, self.dim_left, self.dim_right)
            )
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm(self):
        return float(np.linalg.norm(self.amplitudes))

    def reshaped(self):
        """Amplitudes as a dim_left x dim_right matrix."""
        return self.amplitudes.reshape(self.dim_left, self.dim_right)


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    """v = sum_i coefficients[i] * left_basis[i] tensor right_basis[i].

    Coefficients are nonincreasing and nonnegative; the basis arrays hold
    one orthonormal vector per row.
    """

    coefficients: np.ndarray
    left_basis: np.ndarray
    right_basis: np.ndarray

    def reconstruct(self):
        terms = [
            s * np.kron(u, w)
            for s, u, w in zip(self.coefficients, self.left_basis, self.right_basis)
        ]
        return np.sum(terms, axis=0)


def schmidt(v):
    """Schmidt decomposition of a StateVector via SVD of the reshaped amplitudes."""
    if v.norm == 0.0:
        raise ValueError("degenerate input: zero vector has no Schmidt decomposition")
    m = v.reshaped()
    u, s, vh = np.linalg.svd(m)
    k = min(v.dim_left, v.dim_right)
    # column k of u pairs with row k of vh: m = sum_k s[k] outer(u[:,k], vh[k,:])
    return SchmidtDecomposition(
        coefficients=s[:k],
        left_basis=u[:, :k].T.copy(),
        right_basis=vh[:k, :].copy(),
    )


def flip_operator(d):
    """Swap operator F on C^d tensor C^d: F(phi tensor psi) = psi tensor phi."""
    # F[(i,j),(k,l)] = I[(j,i),(k,l)]: the identity with its two row factors swapped
    eye = np.eye(d * d, dtype=complex).reshape(d, d, d * d)
    return eye.transpose(1, 0, 2).reshape(d * d, d * d)


def _rng(seed):
    """Accept an integer seed or a ready Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def unitarity_residual(x):
    """||X^dag X - I||_F of a square matrix, or of each matrix in a stack.

    Entries near the double range give an inf or NaN residual, without
    warnings; every caller treats a residual that is not below its
    tolerance as a failure.
    """
    x = np.asarray(x)
    with np.errstate(over="ignore", invalid="ignore"):
        products = np.swapaxes(x.conj(), -1, -2) @ x
        return np.linalg.norm(products - np.eye(x.shape[-1]), axis=(-2, -1))


def haar_unitary(d, seed=0, count=None):
    """Haar-distributed d x d unitary, or a (count, d, d) stack of them.

    QR of a complex standard-Gaussian matrix; the R diagonal phases are
    divided out, which is required for the distribution to be Haar
    (Mezzadri, math-ph/0609050). Deterministic for a fixed integer seed.
    """
    rng = _rng(seed)
    shape = (d, d) if count is None else (count, d, d)
    z = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (phases / np.abs(phases))[..., None, :]


def haar_special_unitary(d, seed=0, count=None):
    """Haar unitary (or stack) rescaled by a d-th root of its determinant; det = 1."""
    u = haar_unitary(d, seed, count)
    det = np.linalg.det(u)
    return u * (det ** (-1.0 / d))[..., None, None]


def random_orthogonal(n, seed=0, special=False, count=None):
    """Random real orthogonal matrix (Haar on O(n)), or a (count, n, n) stack.

    With special=True the determinant is forced to +1 by negating the
    first column when needed.
    """
    rng = _rng(seed)
    z = rng.standard_normal((n, n) if count is None else (count, n, n))
    q, r = np.linalg.qr(z)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0] = 1.0
    q = q * signs[..., None, :]
    if special:
        q[..., 0] *= np.where(np.linalg.det(q) < 0, -1.0, 1.0)[..., None]
    return q
