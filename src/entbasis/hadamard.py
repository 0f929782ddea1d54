"""Complex Hadamard matrices and Latin squares.

These are the combinatorial ingredients of the shift-and-multiply
construction: a d x d complex Hadamard matrix has unimodular entries and
satisfies H H^dag = d I (unitary up to a factor); a Latin square is a d x d
table in which every symbol occurs exactly once per row and per column
(equivalently, a bi-injective composition law).

Latin squares are plain integer ndarrays; Hadamard matrices are plain
complex ndarrays. is_hadamard and validate_latin_square check them and
return a CheckReport like every other check; shift_multiply_basis asks only
the latter, and tests its matrices by the basis certificate alone.
"""

import numpy as np

from .reports import TOL, require_positive, require_square, tolerance_report

__all__ = [
    "fourier_hadamard",
    "sylvester_hadamard",
    "tensor_hadamard",
    "is_hadamard",
    "cyclic_latin_square",
    "validate_latin_square",
]


def fourier_hadamard(d):
    """Fourier matrix H[k,l] = exp(2 pi i k l / d), the cyclic-group Hadamard."""
    require_positive(d, "order")
    k = np.arange(d)
    return np.exp(2j * np.pi * np.outer(k, k) / d)


def sylvester_hadamard(d):
    """Real {+1,-1} Hadamard matrix of order d = 2^k, a Kronecker power of [[1, 1], [1, -1]]."""
    if d < 1 or d & (d - 1):
        raise ValueError("Sylvester construction needs a power-of-two order, got %d" % d)
    h = np.ones((1, 1))
    while h.shape[0] < d:
        h = np.kron([[1, 1], [1, -1]], h)
    return h.astype(complex)  # a power in complex arithmetic would hold -0.0j


def is_hadamard(h, tol=TOL):
    """Check unimodular entries and H H^dag = d I; returns a report.

    max_violation is the larger of the worst entry-modulus deviation from 1
    and the worst entry of H H^dag - d I; details carries each of them.
    """
    h = require_square(np.asarray(h, dtype=complex), "Hadamard candidate")
    d = h.shape[0]
    # entries too large for the product give inf or NaN there; the modulus check fails them
    with np.errstate(over="ignore", invalid="ignore"):
        mod_dev = float(np.abs(np.abs(h) - 1.0).max())
        prod_res = float(np.abs(h @ h.conj().T - d * np.eye(d)).max())
    return tolerance_report(
        "hadamard",
        max(mod_dev, prod_res),
        tol,
        details={"max_modulus_deviation": mod_dev, "max_product_residual": prod_res},
    )


def tensor_hadamard(h1, h2, tol=TOL):
    """Kronecker product of two Hadamard matrices, revalidated.

    The product of Hadamard matrices is again Hadamard; a validation
    failure here signals numerical breakdown of the inputs, not a
    mathematical possibility.
    """
    out = np.kron(np.asarray(h1, dtype=complex), np.asarray(h2, dtype=complex))
    report = is_hadamard(out, tol)
    if not report:
        raise ValueError(
            "tensor product failed Hadamard validation: modulus deviation %.3e,"
            " product residual %.3e"
            % (report.details["max_modulus_deviation"], report.details["max_product_residual"])
        )
    return out


def cyclic_latin_square(d):
    """Addition table of the cyclic group: table[k,j] = (k+j) mod d."""
    require_positive(d, "order")
    k = np.arange(d)
    return (k[:, None] + k[None, :]) % d


def _missing_symbols(t):
    """(2, d, d) mask of the symbols that row [0, k], column [1, k] of t lack; t in [0, d)."""
    d, k = len(t), np.arange(len(t))
    seen = np.zeros((2, d, d), dtype=bool)
    seen[0, k[:, None], t], seen[1, k, t] = True, True  # row i has t[i, j], column j too
    return ~seen


def validate_latin_square(table):
    """Check that each row and each column is a permutation of 0..d-1.

    max_violation is the largest number of repeated symbols in one row or
    column, so the report passes below 1; details names the first
    violating row and column. Raises on out-of-range entries.
    """
    t = require_square(np.asarray(table), "Latin square")
    d = t.shape[0]
    if not np.issubdtype(t.dtype, np.integer):
        raise ValueError("Latin square entries must be integers")
    if t.min() < 0 or t.max() >= d:
        raise ValueError("Latin square entries must lie in [0, %d)" % d)
    # a line's repeats are as many as the symbols it lacks
    rows, cols = _missing_symbols(t).sum(axis=2).tolist()

    def first(repeats):
        return next((k for k, r in enumerate(repeats) if r), None)

    return tolerance_report("latin-square", max(rows + cols), 1,
                            details={"bad_row": first(rows), "bad_column": first(cols)})
