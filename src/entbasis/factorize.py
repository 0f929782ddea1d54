"""Factorization of unitaries on C^d tensor C^d into local parts.

A unitary U on the doubled system maps maximally entangled vectors to
maximally entangled vectors exactly when U = U1 tensor U2 or
U = (U1 tensor U2) F with F the flip. operator_schmidt detects which case
holds: it expands U = sum_i s_i A_i tensor B_i with trace-orthonormal
factors, and a unitary is a tensor product exactly when a single
coefficient s_0 = d survives.

The sampled checks decide the kind of a whole stack without most of the
SVDs (_local_kinds). Every 2 x 2 minor of R is at most s_0 s_1 in modulus, and
s_0 <= ||R||_F = ||U||_F, so s_1/s_0 > 2 RANK_TOL where a minor exceeds
2 RANK_TOL ||U||_F^2. The leading one, |U[0,0] U[0,d+1] - U[0,1] U[0,d]|,
is that of R(U) and of R(U F): it certifies "neither" before any reshuffle
(a NaN decides nothing). On the rest, one step of complete pivoting on each
R, at the entry R_pq of largest modulus, leaves S = R - R[:,q] R[p,:] / R_pq.
Eckart-Young gives s_1 <= ||S||_F and the pivot column s_0 >= ||R[:,q]||;
the minors through the pivot are R_pq S_ij. So a spectrum is certified rank
one when ||S||_F < RANK_TOL ||R[:,q]|| / 2 and not rank one when
max|S_ij| |R_pq| > 2 RANK_TOL ||R||_F^2; the factor-2 margins make every
certificate agree with the SVD's own s_1/s_0 < RANK_TOL. Only the
matrices that no certificate settles go to the SVD, the flip is
examined only where U is not local, and the "neither" residual is left to
_neither_residual, which the checks run on their witness rows alone.
factor_local, which also returns the factors, always takes the SVD and is
the reference the stacked path is tested against. No certificate needs a
unitary U: factor_local gates its input, and condition 3 its basis once.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import flip_operator, haar_unitary, tensor, unitarity_residual
from .reports import (INPUT_TOL, LEAD_TOL, RANK_TOL, TOL, require_square, require_tolerance,
                      sample_violations, tolerance_report)

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


def _doubled_operator(u):
    """(u, d) for a square complex matrix u on C^d tensor C^d; else ValueError."""
    u = require_square(np.asarray(u, dtype=complex), "operator")
    return u, _square_side(u.shape[0])


def _require_unitary(u, tol):
    """Refuse an input further than tol from unitary, or with a NaN residual (overflow)."""
    residual = float(unitarity_residual(u))
    if not residual <= tol:
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
    u, d = _doubled_operator(u)
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
    require_tolerance(tol)
    u, d = _doubled_operator(u)
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


def _flip_reshuffle(u, d):
    """R(U F) for one operator or a stack, by axes: R(U F)[(i,j),(k,l)] = U[(i,k),(l,j)]."""
    lead = u.shape[:-2]
    n = len(lead)
    axes = (*range(n), n, n + 3, n + 1, n + 2)
    return u.reshape(*lead, d, d, d, d).transpose(axes).reshape(*lead, d * d, d * d)


def _rank_one(r):
    """_is_rank_one of the operator-Schmidt spectrum of each matrix in an (n, m, m) stack.

    One pivot step decides most of them (module docstring); the SVD runs
    only on the rest.
    """
    n, m = r.shape[0], r.shape[-1]
    rows = np.arange(n)
    modulus = np.abs(r.reshape(n, m * m))
    p, q = np.divmod(modulus.argmax(axis=1), m)
    pivot = r[rows, p, q]
    column = r[rows, :, q]
    with np.errstate(divide="ignore", invalid="ignore"):
        rest = r - column[:, :, None] * (r[rows, p, :] / pivot[:, None])[:, None, :]
    rest_modulus = np.abs(rest.reshape(n, m * m))
    # a NaN from a zero pivot fails both comparisons and leaves the matrix undecided
    yes = np.linalg.norm(rest_modulus, axis=1) < 0.5 * RANK_TOL * np.linalg.norm(column, axis=1)
    no = (rest_modulus.max(axis=1) * np.abs(pivot)
          > 2.0 * RANK_TOL * np.einsum("ij,ij->i", modulus, modulus))
    undecided = ~(yes | no)
    if undecided.any():
        yes[undecided] = _is_rank_one(np.linalg.svd(r[undecided], compute_uv=False))
    return yes


def _local_kinds(u):
    """factor_local's kind for each operator of a finite (n, d^2, d^2) stack.

    Same rank-one rule as factor_local, sound for any finite matrix: the
    caller gates what it builds u from. The flip is tested only where U is not local.
    """
    d = _square_side(u.shape[-1])
    # U[0, (j, l)] = R(U)[(0, j), (0, l)] = R(U F)[(0, l), (0, j)]; the index -1 is 0 at d = 1
    r = u[:, 0].reshape(-1, d, d)[:, :2, :2]
    minor = np.abs(r[:, 0, 0] * r[:, -1, -1] - r[:, 0, -1] * r[:, -1, 0])
    x = np.ascontiguousarray(u).view(float)  # ||U||_F^2 as a real dot
    open_ = ~(minor > 2.0 * RANK_TOL * np.einsum("tij,tij->t", x, x))
    kinds = np.full(len(u), "neither", dtype="<U10")
    if open_.any():
        u = u if open_.all() else u[open_]
        local = _rank_one(_reshuffle(u, d))
        flip = ~local
        if flip.any():
            flip[~local] = _rank_one(_flip_reshuffle(u[~local], d))
        kinds[open_] = np.where(local, "local", np.where(flip, "local_flip", "neither"))
    return kinds


def _neither_residual(u):
    """factor_local's "neither" residual for each operator of a (n, d^2, d^2) stack.

    The distance to the nearest product or product-times-flip operator,
    from the two full spectra.
    """
    d = _square_side(u.shape[-1])
    s_plain = np.linalg.svd(_reshuffle(u, d), compute_uv=False)
    s_flip = np.linalg.svd(_flip_reshuffle(u, d), compute_uv=False)
    return np.minimum(
        np.linalg.norm(s_plain[..., 1:], axis=-1), np.linalg.norm(s_flip[..., 1:], axis=-1)
    )


def check_preserves_max_entangled(u, trials=500, seed=0, tol=TOL):
    """Sample maximally entangled vectors and test whether U keeps them so.

    Each trial draws phi = (V tensor I) Omega with Haar V and measures the
    unitarity residual of the operator corresponding to U phi. This is the
    sampled counterpart of the factor_local verdict: local and local-flip
    unitaries never produce a violation.
    """
    u, d = _doubled_operator(u)

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
