"""Dense complex linear algebra substrate.

Tensor products, Schmidt decomposition, the flip (swap) operator, and
seeded Haar-random sampling of unitary and orthogonal matrices. Everything
here is a pure function of its inputs; randomness enters only through
explicit seeds. Haar on U(d) or O(d), at every size, is the Q of a QR of a
Gaussian matrix with R's diagonal made positive (Mezzadri, math-ph/0609050),
which is Gram-Schmidt on its columns.

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


def _monomial_parts(stack):
    """(rows, values) with stack[a] e_k = values[a, k] e_{rows[a, k]}, or None.

    None when a column of the (n, d, d) stack does not hold exactly one nonzero;
    rows may repeat. -0.0 counts as zero and NaN as nonzero.
    """
    nonzero = stack != 0
    if not (nonzero.sum(axis=-2) == 1).all():
        return None
    rows = nonzero.argmax(axis=-2)
    # a gather, not a column sum: at d=24 the sum of every entry took 5x as long
    return rows, stack[np.arange(len(rows))[:, None], rows, np.arange(rows.shape[-1])]


def _sandwich(left, x, right):
    """left @ x @ right for a matrix x or each of a stack, associated as numpy does, by two GEMMs,
    not a BLAS call per matrix: left times the matrices side by side, their rows times right."""
    (m, q), p = x.shape[-2:], left.shape[0]
    y = left @ x.reshape(-1, m, q).transpose(1, 0, 2).reshape(m, -1)
    y = y.reshape(p, -1, q).transpose(1, 0, 2).reshape(-1, q) @ right
    return y.reshape(x.shape[:-2] + (p, right.shape[-1]))


def _gaussian(d, seed, count, real):
    """The standard normal matrix, or (count, d, d) stack, behind Haar on U(d) or O(d)."""
    rng = np.random.default_rng(seed)
    shape = (d, d) if count is None else (count, d, d)
    if real:
        return rng.standard_normal(shape)
    out = np.empty(shape, dtype=complex)  # (z + 1j w) / sqrt(2) to the bit, in place
    for part in (out.real, out.imag):
        np.multiply(rng.standard_normal(shape), 1 / np.sqrt(2), out=part)
    return out


def _haar(d, seed=0, count=None, real=False):
    """Haar on U(d), or on O(d) if real: the Q of a QR of _gaussian's matrix or of each of its
    stack, with R's diagonal made positive where nonzero."""
    q, r = np.linalg.qr(_gaussian(d, seed, count, real))
    p = np.diagonal(r, axis1=-2, axis2=-1)
    p = np.copysign(1.0, p) if real else np.divide(p, abs(p), out=np.ones_like(p), where=p != 0)
    return q * p[..., None, :]


def haar_unitary(d, seed=0, count=None):
    """Haar-distributed d x d unitary, or a (count, d, d) stack of them: _haar's Q.
    Deterministic for a fixed integer seed."""
    return _haar(d, seed, count)


def haar_special_unitary(d, seed=0, count=None):
    """Haar on SU(d), or a stack: _haar's Q over a d-th root of its determinant."""
    u = _haar(d, seed, count)
    return u * (np.linalg.det(u) ** (-1.0 / d))[..., None, None]


def random_orthogonal(n, seed=0, *, count=None):
    """Haar on O(n), as one matrix or a (count, n, n) stack: _haar's Q of a real draw."""
    return _haar(n, seed, count, real=True)
