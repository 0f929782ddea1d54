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

from .hadamard import _missing_symbols, cyclic_latin_square, fourier_hadamard, validate_latin_square
from .linalg import StateVector, _monomial_parts, unitarity_residual
from .reports import (TOL, pair_witnesses, require_positive, require_square, require_tolerance,
                      tolerance_report)

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
    require_positive(d, "dimension")
    amps = np.zeros(d * d, dtype=complex)
    amps[:: d + 1] = 1.0 / np.sqrt(d)
    return StateVector(d, d, amps)


def vector_from_operator(x, d=None):
    """(X tensor I) Omega: amplitudes[i*d+j] = X[i,j]/sqrt(d)."""
    x = require_square(np.asarray(x, dtype=complex), "operator")
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
    require_tolerance(tol)
    if not abs(v.norm - 1.0) <= tol:  # a NaN norm is refused too
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

    dim is d >= 1 and ops one complex (d^2, d, d) array of the operators
    X_a, or the basis is refused here, whoever builds it. It is orthonormal
    and maximally entangled exactly when the X_a are unitaries orthonormal
    in (1/d) tr(X^dag Y); verify_unitary_basis checks both.
    """

    dim: int
    ops: np.ndarray

    def __post_init__(self):
        d = self.dim
        require_positive(d, "dim")
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

    A stack laid out exactly as shift_multiply_basis builds it (every basis
    gen writes) is certified from its entries in O(d^4) by
    _shift_multiply_report; any other stack takes the dense O(d^6) Gram of
    _gram_report. The residuals of the two paths agree up to rounding, so
    among Gram deviations that tie within rounding the named pair may differ.
    """
    parts = _shift_multiply_parts(basis.ops)
    if parts is None:
        return _gram_report(basis, tol)
    return _shift_multiply_report(parts, tol)


def _require_basis(basis, tol):
    """basis, if it verifies within tol; else ValueError naming its pair and both residuals."""
    _refuse_non_basis(verify_unitary_basis(basis, tol))
    return basis


def _refuse_non_basis(report):
    """Raise ValueError naming the pair and both residuals unless the basis report passed."""
    if not report:
        raise ValueError(
            "input fails basis invariants at pair %s: unitarity %.3e, orthonormality %.3e"
            % (tuple(report.witnesses[0]["pair"]), report.details["max_unitarity_residual"],
               report.details["max_orthonormality_residual"])
        )


def _shift_multiply_parts(ops):
    """hs[j, i, k] = ops[i*d + j, tau[k, j], k] when ops has shift_multiply_basis's layout.

    That layout is: each column of each operator holds exactly one nonzero
    entry (_monomial_parts), its row tau[k, j] depends only on j for
    a = i*d + j, and tau is a Latin square. Any other stack gives None, also
    one with a zero where the layout needs a nonzero.
    """
    d = ops.shape[-1]
    parts = _monomial_parts(ops)
    if parts is None:
        return None
    # tau[k, j] = rows[j, k] is Latin exactly when its transpose rows is
    rows = parts[0][:d]
    if _missing_symbols(rows).any() or not (parts[0].reshape(d, d, d) == rows).all():
        return None
    return parts[1].reshape(d, d, d).transpose(1, 0, 2)


# _gram_report forms its Gram in _GRAM_BLOCKS blocks of rows, each of at least
# _GRAM_ROWS rows, so that its temporaries hold about n^2 / 8 entries, not n^2
_GRAM_BLOCKS = 8
_GRAM_ROWS = 64


def _gram_report(basis, tol):
    """verify_unitary_basis's report from the dense Gram of the whole stack, in O(d^6)."""
    d = basis.dim
    ops = basis.ops
    n = len(ops)
    flat = ops.reshape(n, d * d)
    unit = np.empty(n)
    # each block of rows keeps its largest Gram deviation and where it is
    step = max(_GRAM_ROWS, -(-n // _GRAM_BLOCKS))
    starts = range(0, n, step)
    worst, at = np.empty(len(starts)), np.empty(len(starts), dtype=int)
    with np.errstate(over="ignore", invalid="ignore"):
        for b, start in enumerate(starts):
            rows = slice(start, start + step)
            unit[rows] = unitarity_residual(ops[rows])
            gram = flat[rows].conj() @ flat.T
            gram /= d
            k = np.arange(len(gram))
            gram[k, start + k] -= 1.0
            dev = np.abs(gram)
            at[b] = dev.argmax()
            worst[b] = dev.flat[at[b]]
    # the first block holding the largest (or a NaN) deviation holds its first instance
    return _basis_report(
        unit, worst, tol, lambda b: [int(x) for x in divmod(starts[b] * n + int(at[b]), n)]
    )


def _basis_report(unit, dev, tol, pair_at):
    """verify_unitary_basis's report from its two residual arrays.

    unit holds the unitarity residual of each operator in basis order, dev
    the Gram deviations, and pair_at maps a flat index of dev to the pair
    (a, b) it belongs to.
    """
    worst_unit = float(unit.max())
    worst_orth = float(dev.max())
    # entries near the double range overflow to a NaN residual, which fails too
    witnesses = pair_witnesses(unit, range(len(unit)), range(len(unit)), tol)[:1]
    if not witnesses and not worst_orth < tol:
        witnesses = [{"pair": pair_at(int(dev.argmax())), "violation": worst_orth}]
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


def _shift_multiply_report(hs, tol):
    """verify_unitary_basis's report on the shift-and-multiply family of hs, in O(d^4).

    U^{ij} = P_j D_ij with P_j the permutation k -> tau[k, j] and D_ij the
    diagonal of row i of H^{(j)}. So U^{ij dag} U^{ij} = |D_ij|^2, and since
    a Latin square repeats no symbol in a row, the supports of U^{ij} and
    U^{i'j'} are disjoint for j != j': those Gram entries are exactly zero.
    The (j, j) block is conj(H^{(j)} H^{(j) dag}) / d. Both residuals thus
    come from the d Hadamard matrices alone, whatever tau is. They equal the
    dense Gram's (_gram_report) up to rounding, and so does the verdict; the
    witness pair is the same unless two Gram deviations tie within rounding,
    where each path may round a different one up.
    """
    d = hs.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        # unit[i, j]: ||(|H^{(j)}[i, k]|^2 - 1)_k||_2 is the residual of operator i*d + j
        unit = np.sqrt(((hs.real**2 + hs.imag**2 - 1.0) ** 2).sum(axis=-1)).T
        # gram[j, i, i'] = (1/d) tr(U^{ij dag} U^{i'j}) - delta_ii'
        gram = hs.conj() @ hs.transpose(0, 2, 1)
        gram /= d
        gram -= np.eye(d)
        # the dense Gram's row-major order over (a, b) = (i*d + j, i'*d + j) is (i, j, i')
        dev = np.abs(gram).transpose(1, 0, 2)

    def pair_at(k):
        i, j, i2 = (int(x) for x in np.unravel_index(k, dev.shape))
        return [i * d + j, i2 * d + j]

    return _basis_report(unit.reshape(-1), dev, tol, pair_at)


def shift_multiply_basis(hadamards, tau, tol=TOL):
    """Shift-and-multiply family: U^{ij} e_k = H^{(j)}[i,k] e_{tau[k,j]}.

    hadamards is a list of d complex Hadamard matrices (one per column index
    j), tau a d x d Latin square; operator a = i*d + j comes from row i of
    H^{(j)}. With a Latin tau the family is accepted exactly when the O(d^4)
    certificate of verify_unitary_basis (_shift_multiply_report) passes at
    tol, the rule verify runs on the file gen writes; a family that fails it
    raises the ValueError of every basis gate.
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
    if not lat:
        raise ValueError(
            "invalid Latin square: row %s, column %s"
            % (lat.details["bad_row"], lat.details["bad_column"])
        )
    hs = np.stack(hs)
    _refuse_non_basis(_shift_multiply_report(hs, tol))
    return EntangledBasis(d, _shift_multiply_ops(hs, tau))


def _shift_multiply_ops(hs, tau):
    """The (d^2, d, d) stack U^{ij} e_k = hs[j][i, k] e_{tau[k, j]}, unchecked."""
    d = len(hs)
    i, j, k = np.meshgrid(np.arange(d), np.arange(d), np.arange(d), indexing="ij")
    ops = np.zeros((d * d, d, d), dtype=complex)
    ops[i * d + j, tau[k, j], k] = hs[j, i, k]
    return ops


def fourier_basis(d, tol=TOL):
    """Shift-and-multiply basis from d copies of the Fourier matrix and (k+j) mod d."""
    h = fourier_hadamard(d)
    return shift_multiply_basis([h] * d, cyclic_latin_square(d), tol)
