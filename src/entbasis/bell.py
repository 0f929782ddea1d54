"""The special structure of maximally entangled bases at d=2.

The Bell basis Omega, (i sigma_k tensor I) Omega is, up to local unitaries,
the only basis of C^2 tensor C^2 whose operators satisfy a long list of
reality and anticommutation properties; none of them survives at d >= 3.
This module provides:

  * the Bell basis and the canonical antilinear spin-flip theta2, its
    n-fold tensor power theta_n, and conjugation in Bell coordinates;
  * check_universality: the phase-covariance U Theta U^dag = det(U) Theta
    that singles out d=2, decided on the generators of u(d), plus a search
    over seeded candidates for d >= 3;
  * canonicalize_bell_basis: recovery of the local unitaries, phases and
    index permutation relating an arbitrary maximally entangled basis of
    C^2 tensor C^2 to the Bell basis;
  * check_bell_condition: exact deciders for five equivalent
    characterizations of Bell-like bases (reality of local matrix
    elements, factorizability of basis-real unitaries, reality of
    expansion coefficients, unitarity of real combinations, operator
    anticommutation), each from products of basis operators, no sampling;
  * det_criterion: classification of unitaries real in Bell coordinates
    by the sign of their determinant, and check_det_criterion_agreement,
    which decides exactly, from so(4)'s generators and one unitary per
    coset of SO(4) in O(4), that it agrees with factor_local.
"""

import operator
from dataclasses import dataclass, replace

import numpy as np

from .clifford import _anticommutators
from .entangled import EntangledBasis, _require_basis, basis_matrix, verify_unitary_basis
from .factorize import _require_unitary, factor_local
from .linalg import PAULIS, StateVector, _sandwich, flip_operator, tensor, unitarity_residual
from .reports import (
    INPUT_TOL,
    LEAD_TOL,
    MAX_WITNESSES,
    TOL,
    CheckReport,
    pair_witnesses,
    require_positive,
    require_square,
    require_tolerance,
    tolerance_report,
)

__all__ = [
    "bell_basis",
    "bell_matrix",
    "AntilinearOp",
    "theta2",
    "theta_n",
    "check_universality",
    "universality_search",
    "bell_conjugate",
    "BellCanonicalization",
    "canonicalize_bell_basis",
    "check_bell_condition",
    "det_criterion",
    "check_det_criterion_agreement",
]


def bell_basis():
    """Bell basis Phi_0 = Omega, Phi_k = (i sigma_k tensor I) Omega: the operators I, i sigma_k."""
    return EntangledBasis(2, [np.eye(2)] + [1j * s for s in PAULIS])


def bell_matrix():
    """4 x 4 unitary whose columns are the Bell vectors (one shared read-only array)."""
    return _BELL


_BELL = basis_matrix(bell_basis())
_BELL.flags.writeable = False


@dataclass(frozen=True, eq=False)
class AntilinearOp:
    """Antilinear map v -> A conj(v), conjugation in the canonical basis first.

    The composition of two such maps is linear with matrix A1 conj(A2); the
    map is antiunitary exactly when A is unitary.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = require_square(np.asarray(self.matrix, dtype=complex), "antilinear operator")
        object.__setattr__(self, "matrix", m)

    def __call__(self, v):
        return self.matrix @ np.conj(np.asarray(v))

    def compose(self, other):
        """Matrix of the linear map self(other(v))."""
        return self.matrix @ np.conj(other.matrix)

    def is_antiunitary(self, tol=TOL):
        require_tolerance(tol)
        return bool(unitarity_residual(self.matrix) < tol)


def theta2(lam=1.0):
    """Spin flip on C^2: (a, b) -> lam (conj(b), -conj(a)).

    For |lam| = 1 this is antiunitary, squares to -I, and annihilates
    every overlap: <v, theta2 v> = 0 for all v.
    """
    return AntilinearOp(lam * np.array([[0.0, 1.0], [-1.0, 0.0]]))


def theta_n(n):
    """n-fold tensor power of the spin flip on (C^2)^(tensor n).

    The matrix is a Kronecker power of ((0,1),(-1,0)) built in integer
    arithmetic, so identities like the square being (-1)^n I hold exactly.
    theta_n(2) equals conjugation in Bell coordinates, and for odd n the
    matrix is antisymmetric, which forces <v, theta_n v> = 0.
    """
    require_positive(n, "factor count")
    j = np.array([[0, 1], [-1, 0]])
    m = np.array([[1]])
    for _ in range(n):
        m = np.kron(m, j)
    return AntilinearOp(m.astype(complex))


def _covariance_residuals(a, phase):
    """||R(H)||_F, or ||(1 - P_A) R(H)||_F for phase "best", for each generator H of u(d).

    a is one matrix A or a stack of them. R(H) = H A + A H^T - tr(H) A, and P_A is the
    projection onto C A (P_0 = 0). The generators span the Hermitian d x d matrices: E_jj for
    each j, then E_jk + E_kj and i(E_kj - E_jk) for each j < k, row-major. R(E_jj) keeps A_jj,
    zeroes the rest of row and column j and negates A elsewhere. An off-diagonal R(H) lives on
    rows and columns j and k, which hold unit multiples of rows and columns k and j of A
    outside the 2 x 2 block at (j, k), and of A_jk + A_kj and A_jj +- A_kk in it. So every
    squared norm is a sum of |entries|^2 with no cancellation, from O(d^3) entries per matrix
    and no image R(H) built.
    """
    d = a.shape[-1]
    j, k = np.triu_indices(d, 1)
    q = np.arange(len(j))
    p = (a * a.conj()).real
    keep = 1.0 - np.eye(d)
    outer = np.einsum("ja,...aj->...j", keep, p @ keep)  # sum of |A_ab|^2 over a, b != j
    off = np.ones((len(j), d))  # off[q, b]: b is neither j nor k of pair q
    off[q, j] = off[q, k] = 0.0
    t = (p + p.swapaxes(-1, -2)) @ off.T
    ajj, akk = a[..., j, j], a[..., k, k]
    block = 2 * abs(a[..., j, k] + a[..., k, j]) ** 2 + t[..., j, q] + t[..., k, q]
    lead = np.diagonal(p, axis1=-2, axis2=-1)

    def by_generator(diagonal, real, imaginary):
        pairs = np.stack([real, imaginary], axis=-1)
        return np.concatenate([diagonal, pairs.reshape(*pairs.shape[:-2], -1)], axis=-1)

    n2 = by_generator(lead + outer, block + 2 * abs(ajj + akk) ** 2,
                      block + 2 * abs(ajj - akk) ** 2)
    if phase == "best":
        # <A, R(H)> is real: 2 Re (C + W)_jk and 2 Im (C - W)_jk off the diagonal, for the
        # Gram matrices C = A^dag A of the columns and W = A A^dag of the rows
        ah = a.conj().swapaxes(-1, -2)
        c, w = ah @ a, a @ ah
        z = by_generator(lead - outer, 2 * (c + w)[..., j, k].real, 2 * (c - w)[..., j, k].imag)
        a2 = p.sum(axis=(-2, -1))[..., None]
        n2 -= z * np.divide(z, a2, out=np.zeros_like(z), where=a2 > 0)
    return np.sqrt(np.maximum(n2, 0.0))


def check_universality(theta, trials=1000, seed=0, tol=TOL, phase="det"):
    """Decide covariance of an antilinear operator under every unitary.

    The conjugated operator U Theta U^dag has matrix U A U^T. With phase="det" the property is
    U A U^T = det(U) A for every U in U(d), the covariance the spin flip has at d=2; with
    phase="best" it is U A U^T in C A, some phase per U. The U that keep either form a closed
    subgroup and U(d) is connected, so it holds exactly when the derivative along each
    generator H of u(d) vanishes: R(H) = H A + A H^T - tr(H) A, or its part (1 - P_A) R(H)
    off C A (_covariance_residuals). The violation is the largest generator residual, and each
    residual not below tol is a witness naming its generator. trials and seed are accepted and
    ignored: the report says trials 0.
    """
    if phase not in ("det", "best"):
        raise ValueError("phase must be 'det' or 'best', got %r" % (phase,))
    with np.errstate(over="ignore", invalid="ignore"):
        v = _covariance_residuals(np.asarray(theta.matrix, dtype=complex), phase)
    witnesses = [{"generator": int(g), "violation": float(v[g])}
                 for g in np.flatnonzero(~(v < tol))[:MAX_WITNESSES]]
    name = "universality" if phase == "det" else "universality-best-phase"
    return tolerance_report(name, np.max(v), tol, witnesses=witnesses)


def universality_search(dim=3, candidates=50, trials=100, seed=0, threshold=0.1):
    """Decide best-phase covariance for seeded random antilinear candidates.

    Draws `candidates` random nonzero matrices A from default_rng(seed), normalized in
    Frobenius norm, and takes each one's largest best-phase generator residual, as
    check_universality(phase="best") decides it. The report passes when every candidate is
    violated beyond `threshold`; max_violation is the weakest candidate's residual, and each
    of the first MAX_WITNESSES candidates is a witness naming its worst generator. At
    dim >= 3 no nonzero antilinear operator is covariant, so every candidate fails; at dim=2
    only the spin flip direction would pass. trials is accepted and ignored.
    """
    require_positive(dim, "dim")
    require_positive(candidates, "candidates")
    require_tolerance(threshold)
    seed = operator.index(seed)
    rng = np.random.default_rng(seed)
    shape = (candidates, dim, dim)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    a /= np.linalg.norm(a, axis=(1, 2), keepdims=True)
    residuals = _covariance_residuals(a, "best")
    worst = residuals.max(axis=1)
    weakest = worst.min()
    passed = bool(weakest > threshold)
    return CheckReport(
        name="universality-counterexample-search",
        trials=0,
        max_violation=float(weakest),
        threshold=threshold,
        passed=passed,
        verdict=(
            "violation witnessed for every candidate"
            if passed
            else "no violation found for some candidate"
        ),
        witnesses=tuple({"candidate": c, "generator": int(r.argmax()), "violation": float(w)}
                        for c, (r, w) in enumerate(zip(residuals[:MAX_WITNESSES], worst)))
        if passed else (),
        details={"dim": dim, "candidates": candidates, "seed": seed,
                 "weakest_candidate": int(worst.argmin())},
    )


def bell_conjugate(v):
    """Conjugate the expansion coefficients of v in the Bell basis.

    Expands v over the four Bell vectors, conjugates the coefficients, and
    re-expands. As an antilinear map this coincides with theta_n(2).
    """
    if (v.dim_left, v.dim_right) != (2, 2):
        raise ValueError("Bell conjugation lives on C^2 tensor C^2")
    coeffs = _BELL.conj().T @ v.amplitudes
    return StateVector(2, 2, _BELL @ coeffs.conj())


@dataclass(frozen=True, eq=False)
class BellCanonicalization:
    """Psi_a = phases[a] (u1 tensor u2) Phi_{permutation[a]} within residual."""

    u1: np.ndarray
    u2: np.ndarray
    phases: tuple
    permutation: tuple
    residual: float


def canonicalize_bell_basis(basis, tol=INPUT_TOL):
    """Express a maximally entangled basis of C^2 tensor C^2 over the Bell basis.

    Returns u1 in SU(2), u2, four unit phases and an index permutation with
    Psi_a = phases[a] (u1 tensor u2) Phi_{perm[a]}. Column a of the Bell
    coordinates B^dag Psi is p_a times a real unit vector. p_a is known up to
    sign from sqrt(sum_k c_ka^2); p_a / p_0 is taken with positive real part,
    so rounding decides an exact +-i and either of two equally valid
    permutations may result. Dividing out the phases leaves a real frame F,
    projected onto O(4); by the determinant criterion B F B^dag is local when
    det F = +1, else after swapping columns 1 and 2, reported as the
    permutation (0, 2, 1, 3), and factor_local splits it. A zero real part
    resolves toward positive imaginary part here and for the first entry of
    u1 above LEAD_TOL, which has positive real part; u2 = (u1^dag X_0)^T.
    """
    if basis.dim != 2:
        raise ValueError("canonicalization is specific to C^2 tensor C^2")
    psi = basis_matrix(_require_basis(basis, tol))
    coords = _BELL.conj().T @ psi
    chi = np.sqrt(np.sum(coords * coords, axis=0))
    rel = chi / chi[0]
    rel[(rel.real < 0) | ((rel.real == 0) & (rel.imag < 0))] *= -1
    frame = coords / (chi[0] * rel)
    orthogonality = np.abs(frame.real.T @ frame.real - np.eye(4)).max()
    frame_res = np.maximum(np.abs(frame.imag).max(), orthogonality)
    if not frame_res <= tol:  # also refuses the NaN of a degenerate phase
        raise ValueError("not a maximally entangled basis: frame residual %.3e" % frame_res)
    w, _, vh = np.linalg.svd(frame.real)
    frame = w @ vh
    permutation = (0, 1, 2, 3) if np.linalg.det(frame) > 0 else (0, 2, 1, 3)
    u1 = factor_local(_BELL @ frame[:, permutation] @ _BELL.conj().T).factors[0]
    u1 = u1 / np.sqrt(np.linalg.det(u1))
    lead = u1[np.abs(u1) > LEAD_TOL][0]
    if lead.real < 0 or (lead.real == 0 and lead.imag < 0):
        u1 = -u1
    u2 = (u1.conj().T @ basis.ops[0]).T
    target = tensor(u1, u2) @ _BELL[:, permutation]
    phases = np.exp(1j * np.angle(np.sum(target.conj() * psi, axis=0)))
    residual = float(np.linalg.norm(psi - phases * target, axis=0).max())
    return BellCanonicalization(u1, u2, tuple(phases.tolist()), permutation, residual)


def _pair_reports(basis, tol, is_basis):
    """Condition 4's report and condition 6's, from one run of the pair kernel.

    Condition 6's norm of a pair j < k is s_jk = ||X_j^dag X_k + X_k^dag X_j||_F. For unitary X
    and orthonormal b_j = vec(X_j)/sqrt(d), the distance of m_jk = b_j b_k^dag - b_k b_j^dag from
    the local algebra span{Y tensor I, I tensor Z}, by partial traces, is
    r_jk = sqrt(2 (d (d^2 - 4) + s_jk^2) / d^3): s_jk / 2 at d=2, at least sqrt(2 - 8/d^2) at
    d >= 3, with no cancellation. is_basis is the caller's verify_unitary_basis verdict within
    INPUT_TOL: a basis that fails it gets NaN at every pair; at d=1, which has no pair, that
    gate alone decides.
    """
    d, n = basis.dim, len(basis.ops)
    v, witnesses = _anticommutators(basis.ops.conj().swapaxes(-1, -2), basis.ops, tol)
    six = tolerance_report("bell-condition-6", np.max(v), tol, witnesses=witnesses)
    rows, cols = np.nonzero(np.tri(n, dtype=bool).T)  # the kernel's pairs a <= b, row-major
    off = rows < cols
    s = v[off]
    if is_basis:
        r, worst = np.sqrt(2 * (d * (d * d - 4) + s * s) / d ** 3), 0.0
    else:
        r, worst = np.full(len(s), np.nan), np.nan
    four = tolerance_report("bell-condition-4", np.max(r, initial=worst), tol,
                            witnesses=pair_witnesses(r, rows[off], cols[off], tol))
    return four, six


def check_bell_condition(basis, condition, trials=1000, seed=0, tol=TOL):
    """Decide one of five properties characterizing Bell-like bases.

    Each condition is decided exactly: trials and seed are ignored and the report says trials 0.
    condition selects the property:
      2: <Psi_a, (U1 tensor U2) Psi_b> is real for U1, U2 in SU(d), which is
         real-bilinear: pair (j, k), the witness field, is U1 = E_j, U2 = E_k
         from a list E in SU(d), violation max |Im B^dag (E_j tensor E_k) B|.
         At d=2 E is I, i sigma_1..3, which span SU(2) over R (a Haar pair
         reads at most 4 times the largest); at d >= 3 the centre I and
         e^(2 pi i/d) I, c B^dag B, fails every basis; at d=1 E is I;
      3: unitaries B O B^dag with O real orthogonal factor into local parts, possibly
         times the flip. SO(d^2) is connected, so this holds exactly when every
         B (E_jk - E_kj) B^dag = m_jk lies in the local algebra (at d=2 the other coset
         then normalises the local group, and at d=1 -I is local): the violation of
         pair (j, k), j < k, is m_jk's distance r_jk from it (_pair_reports);
      4: expansion coefficients of maximally entangled vectors are real up
         to a global phase, Im(c_j conj(c_k)) = 0. Over phi = (V tensor I) Omega
         the phi phi^dag span the complement of the traceless local algebra (the
         second moments of V tensor conj(V)), so this is 3's test on the same pairs
         and reports 3's r_jk; a sampled |Im(c_j conj(c_k))| is at most r_jk / 2;
      5: real unit combinations sum_a a_a X_a are unitary: exactly when 6
         holds, so its violations are 6's, and a unit combination's
         ||U^dag U - I||_F is at most n/2 times the largest;
      6: ||X_a^dag X_b + X_b^dag X_a - 2 delta_ab I||_F = 0, pairs a <= b.

    Every violation not below tol is a witness naming its pair, and a report
    passes when the largest is below tol. All five hold for the Bell basis and
    fail for every basis at d >= 3.
    """
    if condition not in (2, 3, 4, 5, 6):
        raise ValueError("unknown condition id %r" % (condition,))
    require_tolerance(tol)
    if condition != 2:
        four, six = _pair_reports(basis, tol, verify_unitary_basis(basis, INPUT_TOL).passed)
        return replace(four if condition < 5 else six, name="bell-condition-%d" % condition)
    d = basis.dim
    b = basis_matrix(basis)
    bh = b.conj().T
    with np.errstate(over="ignore", invalid="ignore"):
        if d == 2:
            e = bell_basis().ops
            m = _sandwich(bh, np.einsum("jab,kcd->jkacbd", e, e).reshape(16, 4, 4), b)
        else:  # E_j tensor E_k is c_j c_k I
            e = np.exp(2j * np.pi * np.arange(min(d, 2)) / d)
            m = np.multiply.outer(np.outer(e, e).ravel(), bh @ b)
        v = np.abs(m.imag).max(axis=(1, 2))
    witnesses = pair_witnesses(v, *np.divmod(np.arange(len(v)), len(e)), tol)
    return tolerance_report("bell-condition-2", np.max(v), tol, witnesses=witnesses)


def det_criterion(u, tol=TOL):
    """Classify a two-qubit unitary that is real in Bell coordinates.

    Transforms U to the Bell basis. If any entry keeps an imaginary part
    above tol the answer is "not_real_in_bell"; otherwise the Bell-frame
    matrix is real orthogonal and the determinant decides: +1 means
    "local" (U = U1 tensor U2), -1 means "local_flip"
    (U = (U1 tensor U2) F).
    """
    require_tolerance(tol)
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise ValueError("determinant criterion lives on C^2 tensor C^2")
    _require_unitary(u, INPUT_TOL)
    ub = _BELL.conj().T @ u @ _BELL
    if not np.abs(ub.imag).max() <= tol:
        return "not_real_in_bell"
    return "local" if np.linalg.det(ub.real) > 0 else "local_flip"


def check_det_criterion_agreement(trials=1000, seed=0, tol=TOL):
    """Decide that det_criterion and factor_local agree on every unitary real in Bell coordinates.

    Those unitaries are B O B^dag, B the Bell matrix and O in O(4), which is SO(4) and its coset
    SO(4) D, D = diag(1, 1, -1, 1). SO(4) is connected, so B SO(4) B^dag lies in the local group
    exactly when every generator image B (E_jk - E_kj) B^dag = m_jk lies in the local algebra:
    Bell condition 3's residual r_jk on bell_basis() (_pair_reports). D is the Bell frame of the
    flip F, so the coset is the local group times F, and F is not local at d=2: no unitary can get
    both verdicts. So the deciders agree everywhere exactly when every r_jk vanishes, both say
    "local" on I and both say "local_flip" on F. The violation is the largest r_jk, or 1.0 for a
    representative on which either decider disagrees; witnesses name the pair or the
    representative with both verdicts. trials and seed are accepted and ignored: the report says
    trials 0.
    """
    require_tolerance(tol)
    # bell_basis() is a basis of unitaries, so the pair kernel needs no basis gate
    four, _ = _pair_reports(bell_basis(), tol, True)
    worst, witnesses = four.max_violation, list(four.witnesses)
    for name, u, kind in (("identity", np.eye(4), "local"), ("flip", flip_operator(2), "local_flip")):
        verdicts = det_criterion(u, tol), factor_local(u).kind
        if verdicts != (kind, kind):
            worst = max(worst, 1.0)
            witnesses.append({"input": name, "det_verdict": verdicts[0],
                              "factor_verdict": verdicts[1], "violation": 1.0})
    return tolerance_report("det-criterion-agreement", worst, tol, witnesses=witnesses)
