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

from .entangled import EntangledBasis, basis_matrix, verify_unitary_basis
from .factorize import _local_kinds, _require_unitary
from .linalg import (
    PAULIS,
    StateVector,
    haar_special_unitary,
    haar_unitary,
    random_orthogonal,
    tensor,
    unitarity_residual,
)
from .reports import (
    INPUT_TOL,
    LEAD_TOL,
    MAX_WITNESSES,
    TOL,
    CheckReport,
    sample_violations,
    tolerance_report,
)

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
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("antilinear operator needs a square matrix")
        object.__setattr__(self, "matrix", m)

    def __call__(self, v):
        return self.matrix @ np.conj(np.asarray(v))

    def compose(self, other):
        """Matrix of the linear map self(other(v))."""
        return self.matrix @ np.conj(other.matrix)

    def is_antiunitary(self, tol=TOL):
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
    if n < 1:
        raise ValueError("need at least one factor")
    j = np.array([[0, 1], [-1, 0]])
    m = np.array([[1]])
    for _ in range(n):
        m = np.kron(m, j)
    return AntilinearOp(m.astype(complex))


def _covariance_violations(a, trials, seed, tol, phase):
    """Engine run of ||U A U^T - omega A||_F over Haar U; see check_universality."""
    d = a.shape[0]

    def draw(rng, idx):
        return haar_unitary(d, rng, count=len(idx))

    def measure(u):
        conjugated = u @ a @ u.swapaxes(-1, -2)
        if phase == "det":
            omega = np.linalg.det(u)
        else:
            z = (a.conj() * conjugated).sum(axis=(1, 2))  # tr(A^dag U A U^T)
            omega = np.divide(z, np.abs(z), out=np.ones_like(z), where=z != 0)
        return np.linalg.norm(conjugated - omega[:, None, None] * a, axis=(1, 2))

    return sample_violations(trials, seed, tol, draw, measure, d * d)


def check_universality(theta, trials=1000, seed=0, tol=TOL, phase="det"):
    """Test covariance of an antilinear operator under sampled unitaries.

    The conjugated operator U Theta U^dag has matrix U A U^T. With
    phase="det" the violation per trial is ||U A U^T - det(U) A||_F, the
    covariance that the spin flip satisfies identically at d=2. With
    phase="best" the comparison phase is chosen optimally per trial, so a
    violation certifies that no phase assignment at all can work.
    """
    if phase not in ("det", "best"):
        raise ValueError("phase must be 'det' or 'best', got %r" % (phase,))
    a = np.asarray(theta.matrix, dtype=complex)
    violations, witnesses = _covariance_violations(a, trials, seed, tol, phase)
    name = "universality" if phase == "det" else "universality-best-phase"
    return tolerance_report(name, violations.max(), tol, trials=trials, witnesses=witnesses)


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

    def draw(rng, idx):
        shape = (len(idx), dim, dim)
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return a / np.linalg.norm(a, axis=(1, 2), keepdims=True), rng

    def measure(batch):
        # a candidate's violation is the worst over its trials, drawn from the same stream
        cands, rng = batch
        return np.array([
            _covariance_violations(a, trials, rng, threshold, "best")[0].max() for a in cands
        ])

    violations, witnesses = sample_violations(
        candidates, seed, threshold, draw, measure, dim * dim, unit="candidate"
    )
    weakest = violations.min()
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
        details={"dim": dim, "candidates": candidates,
                 "weakest_candidate": int(violations.argmin())},
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


def _su2_from_rotation(r):
    """SU(2) element V with V sigma_k V^dag = sum_m r[m,k] sigma_m.

    Quaternion extraction with the standard four-branch case split keeps
    every 180-degree rotation exact. The returned representative has its
    first entry of modulus above LEAD_TOL (row-major) with positive real
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
    lead = v.reshape(-1)[np.abs(v.reshape(-1)) > LEAD_TOL][0]
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


def canonicalize_bell_basis(basis, tol=INPUT_TOL):
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
        residual = max(residual, float(np.linalg.norm(vecs[a].amplitudes - phase * target)))
    return BellCanonicalization(u1, u2, tuple(phases), permutation, residual)


def _max_entry(m):
    """Largest entry of each matrix in a (n, r, r) stack and its index pair."""
    flat = m.reshape(len(m), -1)
    k = flat.argmax(axis=1)
    return flat[np.arange(len(m)), k], {"pair": np.stack(np.unravel_index(k, m.shape[1:]), axis=1)}


def check_bell_condition(basis, condition, trials=1000, seed=0, tol=TOL):
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
    if condition == 6:
        return _anticommutation(basis, tol)
    d = basis.dim
    n = d * d
    b = basis_matrix(basis)
    bh = b.conj().T

    if condition == 2:
        def draw(rng, idx):
            return (haar_special_unitary(d, rng, count=len(idx)),
                    haar_special_unitary(d, rng, count=len(idx)))

        def measure(pair):
            v1, v2 = pair
            u = np.einsum("tij,tkl->tikjl", v1, v2).reshape(-1, n, n)  # tensor(v1, v2) per trial
            return _max_entry(np.abs((bh @ u @ b).imag))
    elif condition == 3:
        def draw(rng, idx):
            return random_orthogonal(n, rng, special=True, count=len(idx))

        def measure(o):
            kinds, residual = _local_kinds(b @ o @ bh)
            return (kinds == "neither").astype(float), {"residual": residual}
    elif condition == 4:
        def draw(rng, idx):
            return haar_unitary(d, rng, count=len(idx))

        def measure(v):
            # coefficients over the basis of (V tensor I) Omega, amplitudes vec(V)/sqrt(d)
            c = (v.reshape(-1, n) / np.sqrt(d)) @ b.conj()
            return _max_entry(np.abs((c[:, :, None] * c.conj()[:, None, :]).imag))
    else:
        def draw(rng, idx):
            return rng.standard_normal((len(idx), n))

        def measure(a):
            a = a / np.linalg.norm(a, axis=1, keepdims=True)
            return unitarity_residual(np.tensordot(a, basis.ops, axes=1))

    # condition 3 counts non-factorizable trials: each of them is a witness
    violations, witnesses = sample_violations(
        trials, seed, 1.0 if condition == 3 else tol, draw, measure, n if condition == 5 else n * n
    )
    worst = violations.mean() if condition == 3 else violations.max()
    return tolerance_report(
        "bell-condition-%d" % condition, worst, tol, trials=trials, witnesses=witnesses
    )


def _anticommutation(basis, tol):
    """Condition 6: X_a^dag X_b + X_b^dag X_a = 2 delta_ab I over all pairs."""
    xs = basis.ops
    eye = np.eye(basis.dim)
    worst = 0.0
    witnesses = []
    for a in range(len(xs)):
        for c in range(a, len(xs)):
            anti = xs[a].conj().T @ xs[c] + xs[c].conj().T @ xs[a]
            target = 2.0 * eye if a == c else 0.0
            violation = float(np.linalg.norm(anti - target))
            worst = max(worst, violation)
            if violation >= tol and len(witnesses) < MAX_WITNESSES:
                witnesses.append({"pair": [a, c], "violation": violation})
    return tolerance_report("bell-condition-6", worst, tol, witnesses=witnesses)


def _det_verdicts(u, tol):
    """det_criterion's verdict for a 4 x 4 unitary or for each of a stack.

    The Bell-frame matrix B^dag U B is "not_real_in_bell" when an entry
    keeps an imaginary part above tol; otherwise the sign of the
    determinant of its real part decides.
    """
    _require_unitary(u, INPUT_TOL)
    ub = _BELL.conj().T @ u @ _BELL
    real = np.abs(ub.imag).max(axis=(-2, -1)) <= tol
    return np.where(
        real, np.where(np.linalg.det(ub.real) > 0, "local", "local_flip"), "not_real_in_bell"
    )


def det_criterion(u, tol=TOL):
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
    return str(_det_verdicts(u, tol))


def check_det_criterion_agreement(trials=1000, seed=0, tol=TOL):
    """Cross-validate det_criterion against factor_local on sampled inputs.

    Each trial builds a unitary that is real orthogonal in Bell
    coordinates; even trials are forced to determinant +1 and odd trials
    to -1, so both verdicts are exercised. The violation is the fraction
    of trials where the determinant sign and the factorization verdict
    disagree ("local" with +1, "local_flip" with -1).
    """

    def draw(rng, idx):
        o = random_orthogonal(4, rng, count=len(idx))
        want_positive = idx % 2 == 0
        o[(np.linalg.det(o) > 0) != want_positive, :, 0] *= -1.0
        return o, want_positive

    def measure(batch):
        o, want_positive = batch
        u = _BELL @ o @ _BELL.conj().T
        det_verdict = _det_verdicts(u, tol)
        factor_verdict = _local_kinds(u)[0]
        expected = np.where(want_positive, "local", "local_flip")
        mismatch = (det_verdict != expected) | (factor_verdict != expected)
        return mismatch.astype(float), {"det_verdict": det_verdict,
                                        "factor_verdict": factor_verdict}

    # every disagreeing trial is a witness
    violations, witnesses = sample_violations(trials, seed, 1.0, draw, measure, 16)
    worst = float(violations.mean())
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
