"""Dense complex linear algebra substrate.

Tensor products, Schmidt decomposition, the flip (swap) operator, and
seeded Haar-random sampling of unitary and orthogonal matrices. Everything
here is a pure function of its inputs; randomness enters only through
explicit seeds. Haar on U(d) or O(d) is the Q of a QR of a Gaussian matrix with
R's diagonal made positive (Mezzadri, math-ph/0609050), which is Gram-Schmidt on
its columns. SU(2), U(2), SO(4) and O(4) have exact closed forms; their
docstrings say why each is Haar.

Index conventions are 0-based throughout. A vector in C^d1 tensor C^d2
stores the amplitude of e_i tensor e_j at position i*d2 + j, which matches
the row-major Kronecker product convention of numpy.
"""

import itertools
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


# Whole-stack arithmetic beats a LAPACK call per matrix from _STACK matrices of small order
# on. Its time over np.linalg.det, real and complex, best of 7 on 2 cores (numpy 2.4.6,
# OpenBLAS 0.3.31):
#   matrices         13        101        512
#   _det order 2-4   1.5-4.4   0.41-1.05  0.11-0.54
#   _det order 5     5.0-6.1   1.2-1.25   0.60-0.65  (1.7-1.9 at 2000)
_STACK = 64


def _cofactors(n, k):
    """The k-subsets of range(n) and, for each, the index of each of its (k-1)-subsets."""
    at = {s: p for p, s in enumerate(itertools.combinations(range(n), k - 1))}
    subsets = list(itertools.combinations(range(n), k))
    return np.array(subsets), np.array([[at[s[:i] + s[i + 1:]] for i in range(k)] for s in subsets])


_COFACTORS = {(n, k): _cofactors(n, k) for n in range(2, 5) for k in range(2, n + 1)}


def _det(x):
    """det of a matrix or each of a stack: of _STACK or more of order 2-4, by Laplace over
    the minors of the last rows, smallest first, with no LAPACK call per matrix."""
    n = x.shape[-1]
    if not (1 < n <= 4 and x.size >= _STACK * n * n):
        return np.linalg.det(x)
    m = x[..., n - 1, :]
    for k in range(2, n + 1):
        cols, minors = _COFACTORS[n, k]
        m = (x[..., n - k, cols] * m[..., minors] * [1.0, -1.0, 1.0, -1.0][:k]).sum(axis=-1)
    return m[..., 0]


def _sandwich(left, x, right):
    """left @ x @ right for a matrix x or each of a stack, associated as numpy does, by two GEMMs,
    not a BLAS call per matrix: left times the matrices side by side, their rows times right."""
    (m, q), p = x.shape[-2:], left.shape[0]
    y = left @ x.reshape(-1, m, q).transpose(1, 0, 2).reshape(m, -1)
    y = y.reshape(p, -1, q).transpose(1, 0, 2).reshape(-1, q) @ right
    return y.reshape(x.shape[:-2] + (p, right.shape[-1]))


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
    """Haar-distributed d x d unitary, or a (count, d, d) stack of them.

    At d = 2 a Haar SU(2) matrix times e^{i theta}, theta uniform: Haar, since
    U(2) = U(1) SU(2). Else _haar's Q. Deterministic for a fixed integer seed.
    """
    if d != 2:
        return _haar(d, seed, count)
    rng = np.random.default_rng(seed)
    u = haar_special_unitary(2, rng, count)
    return u * np.exp(2j * np.pi * rng.random(u.shape[:-2]))[..., None, None]


def haar_special_unitary(d, seed=0, count=None):
    """Haar on SU(d), or a stack. At d = 2 the matrix of a unit quaternion, uniform on S^3
    as a normalised normal 4-vector. Else _haar's Q over a d-th root of its determinant."""
    if d == 2:
        return _su2(_quaternions(np.random.default_rng(seed), count))
    u = _haar(d, seed, count)
    return u * (_det(u) ** (-1.0 / d))[..., None, None]


def _so4(rng, count):
    """Haar on SO(4), one matrix or a (count, 4, 4) stack: x -> p x q-bar for uniform unit
    quaternions p, then q, drawn from rng. The map is a homomorphism of SU(2) x SU(2) onto
    SO(4) (U1 tensor U2 in the Bell basis), so it carries Haar to Haar."""
    p, q = ((_quaternions(rng, count) @ m).reshape(-1, 4, 4) for m in (_LEFT, _RIGHT_BAR))
    return (p @ q).reshape((4, 4) if count is None else (count, 4, 4))


def random_orthogonal(n, seed=0, *, count=None):
    """Haar on O(n), as one matrix or a (count, n, n) stack: _haar's Q, or at n = 4 _so4's
    draw with column 0 negated with probability 1/2, which weighs SO(4)'s two cosets equally."""
    if n != 4:
        return _haar(n, seed, count, real=True)
    rng = np.random.default_rng(seed)
    o = _so4(rng, count)
    o[..., 0] *= np.where(rng.random(o.shape[:-2]) < 0.5, -1.0, 1.0)[..., None]
    return o
