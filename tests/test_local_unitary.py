"""Metamorphic tests from local-unitary equivalence, which need no oracle.

X_a -> U1 X_a U2^T sends the basis vector (X_a tensor I) Omega to
(U1 tensor U2)(X_a tensor I) Omega, and X_a^dag X_b to
conj(U2) (X_a^dag X_b) U2^T. Every Frobenius norm of those products is
unchanged, so the residuals of verify_unitary_basis and condition 6's
violation stay put. Likewise (W1 tensor W2) U (W3 tensor W4) is local,
local times the flip, or neither exactly when U is. A slip of convention,
a transpose for a conjugate, breaks these.
"""

import numpy as np
import pytest

from entbasis import (
    EntangledBasis,
    check_bell_condition,
    factor_local,
    flip_operator,
    fourier_basis,
    haar_unitary,
    tensor,
    verify_unitary_basis,
)


def _local_copy(basis, seed):
    rng = np.random.default_rng(seed)
    u1, u2 = haar_unitary(basis.dim, rng), haar_unitary(basis.dim, rng)
    return EntangledBasis(basis.dim, u1 @ basis.ops @ u2.T)


@pytest.mark.parametrize("d", [3, 5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_verify_residuals_invariant(d, seed):
    basis = fourier_basis(d)
    before = verify_unitary_basis(basis).details
    after = verify_unitary_basis(_local_copy(basis, seed)).details
    for key in ("max_unitarity_residual", "max_orthonormality_residual"):
        assert abs(after[key] - before[key]) < 1e-12


@pytest.mark.parametrize("d", [3, 5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_condition6_violation_invariant(d, seed):
    basis = fourier_basis(d)
    before = check_bell_condition(basis, 6)
    after = check_bell_condition(_local_copy(basis, seed), 6)
    assert not before.passed and not after.passed
    assert abs(after.max_violation - before.max_violation) < 1e-12
    if d == 3:
        assert before.max_violation == pytest.approx(2.449, abs=1e-3)


def _sum_gate(d):
    # |i, j> -> |i, i + j mod d>: the controlled shift, which is neither kind
    u = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            u[i * d + (i + j) % d, i * d + j] = 1.0
    return u


def _inputs(d, rng):
    product = tensor(haar_unitary(d, rng), haar_unitary(d, rng))
    return {"local": product, "local_flip": product @ flip_operator(d), "neither": _sum_gate(d)}


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_factor_kind_invariant_under_local_unitaries(d, seed):
    rng = np.random.default_rng(seed)
    for kind, u in _inputs(d, rng).items():
        w1, w2, w3, w4 = (haar_unitary(d, rng) for _ in range(4))
        assert factor_local(u).kind == kind
        assert factor_local(tensor(w1, w2) @ u @ tensor(w3, w4)).kind == kind
