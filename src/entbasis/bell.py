"""The special structure of maximally entangled bases at d=2.

The Bell basis Omega, (i sigma_k tensor I) Omega is, up to local unitaries,
the only basis of C^2 tensor C^2 whose operators satisfy a long list of
reality and anticommutation properties; none of them survives at d >= 3.
This module provides:

  * the Bell basis and the canonical antilinear spin-flip theta2, its
    n-fold tensor power theta_n, and conjugation in Bell coordinates;
  * check_universality: the phase-covariance U Theta U^dag = det(U) Theta
    that singles out d=2, plus a counterexample search for d >= 3;
  * canonicalize_bell_basis: recovery of the local unitaries, phases and
    index permutation relating an arbitrary maximally entangled basis of
    C^2 tensor C^2 to the Bell basis;
  * check_bell_condition: numerical checkers for five equivalent
    characterizations of Bell-like bases (reality of local matrix
    elements, factorizability of basis-real unitaries, reality of
    expansion coefficients, unitarity of real combinations, operator
    anticommutation);
  * det_criterion: classification of unitaries real in Bell coordinates
    by the sign of their determinant.
"""

from dataclasses import dataclass

import numpy as np

from .entangled import (
    EntangledBasis,
    basis_matrix,
    vector_from_operator,
    verify_unitary_basis,
)
from .factorize import factor_local
from .linalg import (
    PAULIS,
    StateVector,
    haar_special_unitary,
    haar_unitary,
    random_orthogonal,
    tensor,
)
from .reports import CheckReport, MAX_WITNESSES, require_positive, seed_tag, tolerance_report

__all__ = [
    "bell_unitary_basis",
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


def bell_unitary_basis():
    """The operators I, i sigma_1, i sigma_2, i sigma_3 of the Bell basis."""
    return EntangledBasis(2, [np.eye(2)] + [1j * s for s in PAULIS])


def bell_basis():
    """Bell basis: Phi_0 = Omega, Phi_k = (i sigma_k tensor I) Omega, unit norm."""
    return bell_unitary_basis()


def bell_matrix():
    """4 x 4 unitary whose columns are the Bell vectors."""
    return basis_matrix(bell_basis())


@dataclass(frozen=True, eq=False)
class AntilinearOp:
    """Antilinear map v -> A conj(v), conjugation in the canonical basis first.

    The composition of two such maps is linear with matrix A1 conj(A2); the
    map is antiunitary exactly when A is unitary.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("antilinear operator needs a square matrix")
        object.__setattr__(self, "matrix", m)

    def __call__(self, v):
        return self.matrix @ np.conj(np.asarray(v))

    def compose(self, other):
        """Matrix of the linear map self(other(v))."""
        return self.matrix @ np.conj(other.matrix)

    def is_antiunitary(self, tol=1e-10):
        a = self.matrix
        return bool(np.linalg.norm(a.conj().T @ a - np.eye(a.shape[0])) < tol)


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
    if n < 1:
        raise ValueError("need at least one factor")
    j = np.array([[0, 1], [-1, 0]])
    m = np.array([[1]])
    for _ in range(n):
        m = np.kron(m, j)
    return AntilinearOp(m.astype(complex))


def check_universality(theta, trials=1000, seed=0, tol=1e-10, phase="det"):
    """Test covariance of an antilinear operator under sampled unitaries.

    The conjugated operator U Theta U^dag has matrix U A U^T. With
    phase="det" the violation per trial is ||U A U^T - det(U) A||_F, the
    covariance that the spin flip satisfies identically at d=2. With
    phase="best" the comparison phase is chosen optimally per trial, so a
    violation certifies that no phase assignment at all can work.
    """
    a = np.asarray(theta.matrix, dtype=complex)
    d = a.shape[0]
    if phase not in ("det", "best"):
        raise ValueError("phase must be 'det' or 'best', got %r" % (phase,))
    require_positive(trials)
    rng = np.random.default_rng(seed)
    worst = 0.0
    witnesses = []
    for t in range(trials):
        u = haar_unitary(d, rng)
        conjugated = u @ a @ u.T
        if phase == "det":
            violation = float(np.linalg.norm(conjugated - np.linalg.det(u) * a))
        else:
            z = np.trace(a.conj().T @ conjugated)
            omega_hat = z / abs(z) if abs(z) > 0 else 1.0
            violation = float(np.linalg.norm(conjugated - omega_hat * a))
        if violation > worst:
            worst = violation
        if violation >= tol and len(witnesses) < MAX_WITNESSES:
            witnesses.append({"trial": t, **seed_tag(seed), "violation": violation})
    return tolerance_report(
        "universality" if phase == "det" else "universality-best-phase",
        worst,
        tol,
        trials=trials,
        witnesses=witnesses,
    )


def universality_search(dim=3, candidates=50, trials=100, seed=0, threshold=0.1):
    """Try to break phase-covariance for every sampled antilinear candidate.

    Draws `candidates` random nonzero matrices A (normalized in Frobenius
    norm) and, for each, searches `trials` Haar unitaries for a
    phase-minimized violation of U A U^T = omega A. The report passes when
    every candidate is violated beyond `threshold`; max_violation records
    the weakest violation found, i.e. the most covariant candidate. At
    dim >= 3 no antilinear operator at all is covariant, so the search
    succeeds for every candidate; at dim=2 only the spin flip direction
    would survive it.
    """
    require_positive(candidates, "candidates")
    require_positive(trials)
    rng = np.random.default_rng(seed)
    weakest = np.inf
    weakest_candidate = None
    witnesses = []
    for c in range(candidates):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a /= np.linalg.norm(a)
        sub = check_universality(
            AntilinearOp(a), trials=trials, seed=rng, tol=threshold, phase="best"
        )
        if sub.max_violation < weakest:
            weakest = sub.max_violation
            weakest_candidate = c
        if sub.max_violation > threshold and len(witnesses) < MAX_WITNESSES:
            witnesses.append(
                {"candidate": c, **seed_tag(seed), "violation": sub.max_violation}
            )
    passed = bool(weakest > threshold)
    return CheckReport(
        name="universality-counterexample-search",
        trials=candidates * trials,
        max_violation=float(weakest),
        threshold=threshold,
        passed=passed,
        verdict=(
            "violation witnessed for every candidate"
            if passed
            else "no violation found for some candidate"
        ),
        witnesses=tuple(witnesses) if passed else (),
        details={"dim": dim, "candidates": candidates, "weakest_candidate": weakest_candidate},
    )


def bell_conjugate(v):
    """Conjugate the expansion coefficients of v in the Bell basis.

    Expands v over the four Bell vectors, conjugates the coefficients, and
    re-expands. As an antilinear map this coincides with theta_n(2).
    """
    if (v.dim_left, v.dim_right) != (2, 2):
        raise ValueError("Bell conjugation lives on C^2 tensor C^2")
    b = bell_matrix()
    coeffs = b.conj().T @ v.amplitudes
    return StateVector(2, 2, b @ coeffs.conj())


def _su2_from_rotation(r):
    """SU(2) element V with V sigma_k V^dag = sum_m r[m,k] sigma_m.

    Quaternion extraction with the standard four-branch case split keeps
    every 180-degree rotation exact. The returned representative has its
    first entry of modulus above 1e-12 (row-major) with positive real
    part; a zero real part resolves toward positive imaginary part.
    """
    t = np.trace(r)
    if t > 0:
        s = 2.0 * np.sqrt(t + 1.0)
        q = np.array([s / 4, (r[2, 1] - r[1, 2]) / s, (r[0, 2] - r[2, 0]) / s, (r[1, 0] - r[0, 1]) / s])
    elif r[0, 0] > r[1, 1] and r[0, 0] > r[2, 2]:
        s = 2.0 * np.sqrt(1.0 + r[0, 0] - r[1, 1] - r[2, 2])
        q = np.array([(r[2, 1] - r[1, 2]) / s, s / 4, (r[0, 1] + r[1, 0]) / s, (r[0, 2] + r[2, 0]) / s])
    elif r[1, 1] > r[2, 2]:
        s = 2.0 * np.sqrt(1.0 + r[1, 1] - r[0, 0] - r[2, 2])
        q = np.array([(r[0, 2] - r[2, 0]) / s, (r[0, 1] + r[1, 0]) / s, s / 4, (r[1, 2] + r[2, 1]) / s])
    else:
        s = 2.0 * np.sqrt(1.0 + r[2, 2] - r[0, 0] - r[1, 1])
        q = np.array([(r[1, 0] - r[0, 1]) / s, (r[0, 2] + r[2, 0]) / s, (r[1, 2] + r[2, 1]) / s, s / 4])
    q = q / np.linalg.norm(q)
    w, x, y, z = q
    v = np.array([[w - 1j * z, -1j * x - y], [-1j * x + y, w + 1j * z]])
    lead = v.reshape(-1)[np.abs(v.reshape(-1)) > 1e-12][0]
    if lead.real < 0 or (lead.real == 0 and lead.imag < 0):
        v = -v
    return v


@dataclass(frozen=True, eq=False)
class BellCanonicalization:
    """Psi_a = phases[a] (u1 tensor u2) Phi_{permutation[a]} within residual."""

    u1: np.ndarray
    u2: np.ndarray
    phases: tuple
    permutation: tuple
    residual: float


def canonicalize_bell_basis(basis, tol=1e-8):
    """Express a maximally entangled basis of C^2 tensor C^2 over the Bell basis.

    Returns local unitaries u1, u2, four unit phases and an index
    permutation with Psi_a = phases[a] (u1 tensor u2) Phi_{perm[a]}. The
    operators Y_a = X_a X_0^dag of a valid basis are phases times
    i (r_a . sigma) with orthonormal axes r_a; a right-handed axis frame
    lifts to u1 through the rotation-to-SU(2) double cover, a left-handed
    frame additionally swaps the first two Pauli directions, reported as
    the odd permutation (0, 2, 1, 3).
    """
    if basis.dim != 2:
        raise ValueError("canonicalization is specific to C^2 tensor C^2")
    check = verify_unitary_basis(basis, tol)
    if not check:
        raise ValueError(
            "input fails basis invariants: orthonormality %.3e, entanglement %.3e"
            % (check.details["max_orthonormality_residual"],
               check.details["max_unitarity_residual"])
        )
    xs = basis.ops
    x0 = xs[0]
    ys = [x @ x0.conj().T for x in xs[1:]]
    axes = []
    frame_res = 0.0
    for y in ys:
        t = np.array([np.trace(s @ y) for s in PAULIS]) / 2j
        chi = np.sqrt(np.sum(t * t))
        if chi.real < 0 or (chi.real == 0 and chi.imag < 0):
            chi = -chi
        if abs(chi) < 0.5:
            # unit phases make |chi| = 1 for any valid basis
            raise ValueError("not a maximally entangled basis: degenerate axis")
        r = t / chi
        frame_res = max(frame_res, float(np.abs(r.imag).max()))
        axes.append(r.real)
    frame = np.column_stack(axes)
    frame_res = max(frame_res, float(np.abs(frame.T @ frame - np.eye(3)).max()))
    if frame_res > tol:
        raise ValueError("not a maximally entangled basis: frame residual %.3e" % frame_res)
    if np.linalg.det(frame) > 0:
        permutation = (0, 1, 2, 3)
        rotation = frame
    else:
        permutation = (0, 2, 1, 3)
        rotation = frame[:, [1, 0, 2]]
    u1 = _su2_from_rotation(rotation)
    u2 = (u1.conj().T @ x0).T
    local = tensor(u1, u2)
    bell_vecs = bell_basis().vectors
    vecs = basis.vectors
    phases = []
    residual = 0.0
    for a in range(4):
        target = local @ bell_vecs[permutation[a]].amplitudes
        overlap = np.vdot(target, vecs[a].amplitudes)
        phase = overlap / abs(overlap)
        phases.append(complex(phase))
        residual = max(
            residual,
            float(np.linalg.norm(vecs[a].amplitudes - phase * target)),
        )
    return BellCanonicalization(u1, u2, tuple(phases), permutation, residual)


def _condition_name(condition):
    return "bell-condition-%d" % condition


def check_bell_condition(basis, condition, trials=1000, seed=0, tol=1e-10):
    """Numerically test one of five properties characterizing Bell-like bases.

    condition selects the property:
      2: matrix elements <Psi_a, (U1 tensor U2) Psi_b> are real for
         U1, U2 in SU(d) (sampled Haar);
      3: unitaries that are real orthogonal in basis coordinates factor
         into local parts, possibly times the flip (sampled; the violation
         is the fraction of non-factorizable samples);
      4: expansion coefficients of maximally entangled vectors are real up
         to a global phase, tested pairwise via Im(c_a conj(c_b)) = 0;
      5: real unit combinations sum_a a_a X_a of the basis operators are
         unitary;
      6: X_a^dag X_b + X_b^dag X_a = 2 delta_ab I for all pairs
         (deterministic; trials is ignored).

    All five hold for the Bell basis and fail for every basis at d >= 3.
    """
    if condition not in (2, 3, 4, 5, 6):
        raise ValueError("unknown condition id %r" % (condition,))
    if condition != 6:
        require_positive(trials)
    d = basis.dim
    b = basis_matrix(basis)
    rng = np.random.default_rng(seed)
    witnesses = []
    worst = 0.0

    if condition == 2:
        for t in range(trials):
            u = tensor(haar_special_unitary(d, rng), haar_special_unitary(d, rng))
            m = b.conj().T @ u @ b
            violation = float(np.abs(m.imag).max())
            if violation > worst:
                worst = violation
            if violation >= tol and len(witnesses) < MAX_WITNESSES:
                idx = np.unravel_index(int(np.abs(m.imag).argmax()), m.shape)
                witnesses.append(
                    {"trial": t, **seed_tag(seed), "violation": violation,
                     "pair": [int(idx[0]), int(idx[1])]}
                )
    elif condition == 3:
        bad = 0
        for t in range(trials):
            o = random_orthogonal(d * d, rng, special=True)
            u = b @ o @ b.conj().T
            result = factor_local(u)
            if result.kind == "neither":
                bad += 1
                if len(witnesses) < MAX_WITNESSES:
                    witnesses.append(
                        {"trial": t, **seed_tag(seed), "violation": 1.0,
                         "residual": result.residual}
                    )
        worst = bad / trials
    elif condition == 4:
        for t in range(trials):
            phi = vector_from_operator(haar_unitary(d, rng))
            c = b.conj().T @ phi.amplitudes
            pairwise = np.abs((c[:, None] * c.conj()[None, :]).imag)
            violation = float(pairwise.max())
            if violation > worst:
                worst = violation
            if violation >= tol and len(witnesses) < MAX_WITNESSES:
                idx = np.unravel_index(int(pairwise.argmax()), pairwise.shape)
                witnesses.append(
                    {"trial": t, **seed_tag(seed), "violation": violation,
                     "pair": [int(idx[0]), int(idx[1])]}
                )
    elif condition == 5:
        xs = basis.ops
        eye = np.eye(d)
        for t in range(trials):
            a = rng.standard_normal(d * d)
            a /= np.linalg.norm(a)
            x = np.tensordot(a, xs, axes=1)
            violation = float(np.linalg.norm(x.conj().T @ x - eye))
            if violation > worst:
                worst = violation
            if violation >= tol and len(witnesses) < MAX_WITNESSES:
                witnesses.append({"trial": t, **seed_tag(seed), "violation": violation})
    else:
        xs = basis.ops
        eye = np.eye(d)
        n = len(xs)
        for a in range(n):
            for c in range(a, n):
                anti = xs[a].conj().T @ xs[c] + xs[c].conj().T @ xs[a]
                target = 2.0 * eye if a == c else 0.0
                violation = float(np.linalg.norm(anti - target))
                if violation > worst:
                    worst = violation
                if violation >= tol and len(witnesses) < MAX_WITNESSES:
                    witnesses.append({"pair": [a, c], "violation": violation})
        trials = 0

    return tolerance_report(
        _condition_name(condition), worst, tol, trials=trials, witnesses=witnesses
    )


def det_criterion(u, tol=1e-10):
    """Classify a two-qubit unitary that is real in Bell coordinates.

    Transforms U to the Bell basis. If any entry keeps an imaginary part
    above tol the answer is "not_real_in_bell"; otherwise the Bell-frame
    matrix is real orthogonal and the determinant decides: +1 means
    "local" (U = U1 tensor U2), -1 means "local_flip"
    (U = (U1 tensor U2) F).
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise ValueError("determinant criterion lives on C^2 tensor C^2")
    unit_res = float(np.linalg.norm(u.conj().T @ u - np.eye(4)))
    if unit_res > 1e-8:
        raise ValueError("input is not unitary: residual %.3e" % unit_res)
    b = bell_matrix()
    ub = b.conj().T @ u @ b
    if float(np.abs(ub.imag).max()) > tol:
        return "not_real_in_bell"
    det = np.linalg.det(ub.real)
    return "local" if det > 0 else "local_flip"


def check_det_criterion_agreement(trials=1000, seed=0, tol=1e-10):
    """Cross-validate det_criterion against factor_local on sampled inputs.

    Each trial builds a unitary that is real orthogonal in Bell
    coordinates; even trials are forced to determinant +1 and odd trials
    to -1, so both verdicts are exercised. The violation is the fraction
    of trials where the determinant sign and the factorization verdict
    disagree ("local" with +1, "local_flip" with -1).
    """
    require_positive(trials)
    b = bell_matrix()
    rng = np.random.default_rng(seed)
    mismatches = 0
    witnesses = []
    for t in range(trials):
        o = random_orthogonal(4, rng)
        want_positive = t % 2 == 0
        if (np.linalg.det(o) > 0) != want_positive:
            o = o.copy()
            o[:, 0] = -o[:, 0]
        u = b @ o @ b.conj().T
        verdict = det_criterion(u, tol)
        expected = "local" if want_positive else "local_flip"
        factored = factor_local(u).kind
        if verdict != expected or factored != expected:
            mismatches += 1
            if len(witnesses) < MAX_WITNESSES:
                witnesses.append(
                    {"trial": t, **seed_tag(seed), "det_verdict": verdict,
                     "factor_verdict": factored}
                )
    worst = mismatches / trials
    passed = worst == 0.0
    return CheckReport(
        name="det-criterion-agreement",
        trials=trials,
        max_violation=worst,
        threshold=tol,
        passed=passed,
        verdict="no violation found" if passed else "violation witnessed",
        witnesses=tuple(witnesses),
    )
