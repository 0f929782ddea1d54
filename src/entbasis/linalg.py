"""Dense complex linear algebra substrate.

Tensor products, Schmidt decomposition, the flip (swap) operator, and
seeded Haar-random sampling of unitary and orthogonal matrices. Everything
here is a pure function of its inputs; randomness enters only through
explicit seeds. The samplers divide R's diagonal phases out of a QR of a
Gaussian matrix (Mezzadri, math-ph/0609050), except on SU(2), U(2) and
SO(4), whose docstrings give exact closed forms and say why each is Haar.

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


def _quaternions(rng, count):
    """Uniform unit quaternions, normalised standard-normal 4-vectors (Re a, Im a, Re b, Im b)."""
    g = rng.standard_normal((4,) if count is None else (count, 4))
    return g / np.linalg.norm(g, axis=-1, keepdims=True)


def _su2(g):
    """The matrix [[a, -conj(b)], [b, conj(a)]] of each quaternion in g."""
    a, b = np.moveaxis(g.view(complex), -1, 0)
    return np.stack([a, -b.conj(), b, a.conj()], axis=-1).reshape(g.shape[:-1] + (2, 2))


# _QUAT[j, k] = e_j e_k. p @ _LEFT is x -> p x; q @ _RIGHT_BAR is x -> x q transposed, x -> x q-bar
_QUAT = np.ascontiguousarray((_su2(np.eye(4))[:, None] @ _su2(np.eye(4)))[..., 0]).view(float)
_LEFT, _RIGHT_BAR = (_QUAT.transpose(axes).reshape(4, 16) for axes in ((0, 2, 1), (1, 0, 2)))


def _qr_haar(d, seed=0, count=None, real=False):
    """Haar on U(d), or on O(d) if real, by QR at every d: the general path and the oracle."""
    rng = np.random.default_rng(seed)
    shape = (d, d) if count is None else (count, d, d)
    z = rng.standard_normal(shape)
    z = z if real else (z + 1j * rng.standard_normal(shape)) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (np.copysign(1.0, phases) if real else phases / np.abs(phases))[..., None, :]


def haar_unitary(d, seed=0, count=None):
    """Haar-distributed d x d unitary, or a (count, d, d) stack of them.

    At d = 2 a Haar SU(2) matrix times e^{i theta}, theta uniform: Haar, since
    U(2) = U(1) SU(2). Else a QR. Deterministic for a fixed integer seed.
    """
    if d != 2:
        return _qr_haar(d, seed, count)
    rng = np.random.default_rng(seed)
    u = haar_special_unitary(2, rng, count)
    return u * np.exp(2j * np.pi * rng.random(u.shape[:-2]))[..., None, None]


def haar_special_unitary(d, seed=0, count=None):
    """Haar on SU(d), or a stack. At d = 2 the matrix of a unit quaternion, uniform on S^3
    as a normalised normal 4-vector. Else a QR unitary over a d-th root of its determinant."""
    if d == 2:
        return _su2(_quaternions(np.random.default_rng(seed), count))
    u = _qr_haar(d, seed, count)
    return u * (np.linalg.det(u) ** (-1.0 / d))[..., None, None]


def random_orthogonal(n, seed=0, special=False, count=None):
    """Haar on O(n), or on SO(n) if special, as one matrix or a (count, n, n) stack.

    At n = 4, x -> p x q-bar for uniform unit quaternions p, q, a homomorphism of
    SU(2) x SU(2) onto SO(4) (U1 tensor U2 in the Bell basis) that carries Haar to Haar;
    unless special, column 0 is negated with probability 1/2. Else a QR."""
    if n != 4:
        q = _qr_haar(n, seed, count, real=True)
        if special:
            q[..., 0] *= np.where(np.linalg.det(q) < 0, -1.0, 1.0)[..., None]
        return q
    rng = np.random.default_rng(seed)
    p, q = ((_quaternions(rng, count) @ m).reshape(-1, 4, 4) for m in (_LEFT, _RIGHT_BAR))
    o = (p @ q).reshape((4, 4) if count is None else (count, 4, 4))
    if not special:
        o[..., 0] *= np.where(rng.random(o.shape[:-2]) < 0.5, -1.0, 1.0)[..., None]
    return o
