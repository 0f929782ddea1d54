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

from .linalg import flip_operator, haar_unitary, tensor, unitarity_residual
from .reports import INPUT_TOL, LEAD_TOL, RANK_TOL, TOL, sample_violations, tolerance_report

__all__ = [
    "operator_schmidt",
    "factor_local",
    "FactorizationResult",
    "check_preserves_max_entangled",
]


def _square_side(n):
    d = round(n ** 0.5)
    if d * d != n:
        raise ValueError("matrix of size %d is not on a doubled system" % n)
    return d


def _require_unitary(u, tol):
    """Refuse an input (or a stack of them) further than tol from unitary."""
    residual = float(np.max(unitarity_residual(u)))
    if residual > tol:
        raise ValueError("input is not unitary: residual %.3e" % residual)


def _reshuffle(u, d):
    """R[(i,j),(k,l)] = U[(i,k),(j,l)] for one operator or a stack."""
    lead = u.shape[:-2]
    return u.reshape(*lead, d, d, d, d).swapaxes(-3, -2).reshape(*lead, d * d, d * d)


def _is_rank_one(s):
    """Rank-one test s1/s0 < RANK_TOL on nonincreasing spectra along the last axis."""
    rest = s[..., 1:].max(axis=-1, initial=0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return rest / s[..., 0] < RANK_TOL


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
    w, s, vh = np.linalg.svd(_reshuffle(u, d))
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
    """Operator-Schmidt spectrum of m, and its rank-1 factors if it has them.

    Returns (spectrum, (U1, U2, residual)), the second entry None when the
    spectrum is not rank one. The factors are rescaled to unitaries with
    the overall phase split so that the first entry of U1 with modulus
    above LEAD_TOL (row-major scan) is positive real.
    """
    s, left, right = operator_schmidt(m)
    if not _is_rank_one(s):
        return s, None
    u1 = np.sqrt(d) * left[0]
    u2 = (s[0] / d) * np.sqrt(d) * right[0]
    flat = u1.reshape(-1)
    lead = flat[np.abs(flat) > LEAD_TOL][0]
    phase = lead / abs(lead)
    u1 = u1 / phase
    u2 = u2 * phase
    residual = float(np.linalg.norm(tensor(u1, u2) - m))
    return s, (u1, u2, residual)


def factor_local(u, tol=INPUT_TOL):
    """Decide whether U = U1 tensor U2, (U1 tensor U2) F, or neither.

    U must be unitary within tol. The rank-one test runs on U itself, then
    on U F; each success returns the rescaled unitary factors and the
    reconstruction residual. "neither" reuses the two spectra it tested.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("operator must be square")
    d = _square_side(u.shape[0])
    _require_unitary(u, tol)
    s_plain, split = _split_product(u, d)
    if split is not None:
        u1, u2, residual = split
        return FactorizationResult("local", (u1, u2), residual)
    f = flip_operator(d)
    s_flip, split = _split_product(u @ f, d)
    if split is not None:
        u1, u2, residual = split
        # u @ f = u1 tensor u2, so u = (u1 tensor u2) f and f is its own inverse
        residual = float(np.linalg.norm(tensor(u1, u2) @ f - u))
        return FactorizationResult("local_flip", (u1, u2), residual)
    residual = float(min(np.linalg.norm(s_plain[1:]), np.linalg.norm(s_flip[1:])))
    return FactorizationResult("neither", None, residual)


def _local_kinds(u):
    """factor_local's kind and "neither" residual for a (n, d^2, d^2) stack.

    Same unitarity gate and rank-one rule as factor_local, on the stacked
    singular values alone; the residual is meaningful where the kind is
    "neither".
    """
    d = _square_side(u.shape[-1])
    _require_unitary(u, INPUT_TOL)
    s_plain = np.linalg.svd(_reshuffle(u, d), compute_uv=False)
    s_flip = np.linalg.svd(_reshuffle(u @ flip_operator(d), d), compute_uv=False)
    kinds = np.where(
        _is_rank_one(s_plain), "local", np.where(_is_rank_one(s_flip), "local_flip", "neither")
    )
    residual = np.minimum(
        np.linalg.norm(s_plain[..., 1:], axis=-1), np.linalg.norm(s_flip[..., 1:], axis=-1)
    )
    return kinds, residual


def check_preserves_max_entangled(u, trials=500, seed=0, tol=TOL):
    """Sample maximally entangled vectors and test whether U keeps them so.

    Each trial draws phi = (V tensor I) Omega with Haar V and measures the
    unitarity residual of the operator corresponding to U phi. This is the
    sampled counterpart of the factor_local verdict: local and local-flip
    unitaries never produce a violation.
    """
    u = np.asarray(u, dtype=complex)
    d = _square_side(u.shape[0])

    def draw(rng, idx):
        return haar_unitary(d, rng, count=len(idx))

    def measure(v):
        # phi = vec(V)/sqrt(d); the operator of U phi is sqrt(d) unvec(U phi) = unvec(U vec(V))
        images = v.reshape(len(v), d * d) @ u.T
        return unitarity_residual(images.reshape(len(v), d, d))

    violations, witnesses = sample_violations(trials, seed, tol, draw, measure, d * d)
    return tolerance_report(
        "preserves-max-entangled", violations.max(), tol, trials=trials, witnesses=witnesses
    )
