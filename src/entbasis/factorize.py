"""Factorization of unitaries on C^d tensor C^d into local parts.

A unitary U on the doubled system maps maximally entangled vectors to
maximally entangled vectors exactly when U = U1 tensor U2 or
U = (U1 tensor U2) F with F the flip. operator_schmidt detects which case
holds: it expands U = sum_i s_i A_i tensor B_i with trace-orthonormal
factors, and a unitary is a tensor product exactly when a single
coefficient s_0 = d survives.
"""

from dataclasses import dataclass

import numpy as np

from .entangled import operator_from_vector, vector_from_operator
from .linalg import StateVector, flip_operator, haar_unitary, tensor
from .reports import MAX_WITNESSES, require_positive, seed_tag, tolerance_report

__all__ = [
    "operator_schmidt",
    "factor_local",
    "FactorizationResult",
    "check_preserves_max_entangled",
]

# ratio s1/s0 below which the operator-Schmidt spectrum counts as rank one;
# double precision leaves <= 1e-13 noise, genuine entanglers sit far above
RANK_TOL = 1e-8


def _square_side(n):
    d = round(n ** 0.5)
    if d * d != n:
        raise ValueError("matrix of size %d is not on a doubled system" % n)
    return d


def operator_schmidt(u):
    """Expansion U = sum_i s_i A_i tensor B_i with trace-orthonormal A_i, B_i.

    Returns (coefficients, left_ops, right_ops) with coefficients
    nonincreasing. Computed as the SVD of the reshuffled matrix
    R[(i,j),(k,l)] = U[(i,k),(j,l)].
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("operator must be square")
    d = _square_side(u.shape[0])
    r = u.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    w, s, vh = np.linalg.svd(r)
    left = [w[:, m].reshape(d, d) for m in range(d * d)]
    right = [vh[m, :].reshape(d, d) for m in range(d * d)]
    return s, left, right


@dataclass(frozen=True, eq=False)
class FactorizationResult:
    """kind is "local", "local_flip", or "neither".

    factors holds the unitary pair (U1, U2) when kind is not "neither";
    residual is the Frobenius distance between the input and its
    reconstruction (for "neither": the distance to the nearest operator
    with the product or product-times-flip shape).
    """

    kind: str
    factors: tuple | None
    residual: float


def _split_product(m, d):
    """Rank-1 factors of m rescaled to unitaries with a fixed phase split.

    Returns (U1, U2, residual) or None when the spectrum is not rank one.
    The overall phase is split so that the first entry of U1 with modulus
    above 1e-12 (row-major scan) is positive real.
    """
    s, left, right = operator_schmidt(m)
    if s[0] == 0.0 or (len(s) > 1 and s[1] / s[0] >= RANK_TOL):
        return None
    u1 = np.sqrt(d) * left[0]
    u2 = (s[0] / d) * np.sqrt(d) * right[0]
    flat = u1.reshape(-1)
    lead = flat[np.abs(flat) > 1e-12][0]
    phase = lead / abs(lead)
    u1 = u1 / phase
    u2 = u2 * phase
    residual = float(np.linalg.norm(tensor(u1, u2) - m))
    return u1, u2, residual


def factor_local(u, tol=1e-8):
    """Decide whether U = U1 tensor U2, (U1 tensor U2) F, or neither.

    U must be unitary within tol. The rank-one test runs on U itself, then
    on U F; each success returns the rescaled unitary factors and the
    reconstruction residual.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("operator must be square")
    n = u.shape[0]
    d = _square_side(n)
    unit_res = float(np.linalg.norm(u.conj().T @ u - np.eye(n)))
    if unit_res > tol:
        raise ValueError("input is not unitary: residual %.3e" % unit_res)
    split = _split_product(u, d)
    if split is not None:
        u1, u2, residual = split
        return FactorizationResult("local", (u1, u2), residual)
    f = flip_operator(d)
    split = _split_product(u @ f, d)
    if split is not None:
        u1, u2, residual = split
        # u @ f = u1 tensor u2, so u = (u1 tensor u2) f and f is its own inverse
        residual = float(np.linalg.norm(tensor(u1, u2) @ f - u))
        return FactorizationResult("local_flip", (u1, u2), residual)
    s_plain = operator_schmidt(u)[0]
    s_flip = operator_schmidt(u @ f)[0]
    residual = float(min(np.linalg.norm(s_plain[1:]), np.linalg.norm(s_flip[1:])))
    return FactorizationResult("neither", None, residual)


def check_preserves_max_entangled(u, trials=500, seed=0, tol=1e-10):
    """Sample maximally entangled vectors and test whether U keeps them so.

    Each trial draws phi = (V tensor I) Omega with Haar V and measures the
    unitarity residual of the operator corresponding to U phi. This is the
    sampled counterpart of the factor_local verdict: local and local-flip
    unitaries never produce a violation.
    """
    u = np.asarray(u, dtype=complex)
    d = _square_side(u.shape[0])
    require_positive(trials)
    rng = np.random.default_rng(seed)
    eye = np.eye(d)
    worst = 0.0
    witnesses = []
    for t in range(trials):
        v = haar_unitary(d, rng)
        phi = vector_from_operator(v)
        image = StateVector(d, d, u @ phi.amplitudes)
        x = operator_from_vector(image)
        violation = float(np.linalg.norm(x.conj().T @ x - eye))
        if violation > worst:
            worst = violation
        if violation >= tol and len(witnesses) < MAX_WITNESSES:
            witnesses.append({"trial": t, **seed_tag(seed), "violation": violation})
    return tolerance_report(
        "preserves-max-entangled", worst, tol, trials=trials, witnesses=witnesses
    )
