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
    anticommutation): 2, 5 and 6 decided exactly, 3 and 4 by sampling;
  * det_criterion: classification of unitaries real in Bell coordinates
    by the sign of their determinant.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .clifford import _anticommutators
from .entangled import EntangledBasis, _require_basis, basis_matrix
from .factorize import _local_kinds, _neither_residual, _require_unitary, factor_local
from .linalg import (
    PAULIS,
    StateVector,
    _det,
    _mul,
    _sandwich,
    _so4,
    haar_unitary,
    random_orthogonal,
    tensor,
    unitarity_residual,
)
from .reports import (
    INPUT_TOL,
    LEAD_TOL,
    TOL,
    CheckReport,
    pair_witnesses,
    require_positive,
    require_square,
    require_tolerance,
    sample_violations,
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


def _covariance_violations(a, trials, seed, tol, phase, per_candidate=None):
    """Engine run of ||U A U^T - omega A||_F over Haar U; see check_universality. a is one
    matrix, or a stack of candidates of which trial t tries a[t // per_candidate]."""
    a = a.reshape(-1, *a.shape[-2:])
    d = a.shape[-1]

    def draw(rng, idx):
        return haar_unitary(d, rng, count=len(idx)), idx // (per_candidate or trials)

    def measure(batch):
        u, cand = batch
        # U A as one GEMM per candidate in the chunk, then U A U^T over the whole chunk
        ua = np.empty_like(u)
        rows = np.searchsorted(cand, np.arange(cand[0], cand[-1] + 2))
        for c, lo, hi in zip(range(cand[0], cand[-1] + 1), rows, rows[1:]):
            np.matmul(u[lo:hi].reshape(-1, d), a[c], out=ua[lo:hi].reshape(-1, d))
        conjugated = _mul(ua, u.swapaxes(-1, -2))
        a_t = a[cand[0]] if cand[0] == cand[-1] else a[cand]  # one candidate broadcasts
        if phase == "det":
            omega = _det(u)
        else:
            z = (a_t.conj() * conjugated).sum(axis=(1, 2))  # tr(A^dag U A U^T)
            omega = np.divide(z, np.abs(z), out=np.ones_like(z), where=z != 0)
        return np.linalg.norm(conjugated - omega[:, None, None] * a_t, axis=(1, 2))

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
    norm) and, for each, searches `trials` Haar unitaries for a phase-minimized
    violation of U A U^T = omega A, in one engine run where trial t tries
    candidate t // trials. The report passes when every candidate is violated
    beyond `threshold`; max_violation records the weakest violation found,
    i.e. the most covariant candidate. At dim >= 3 no antilinear operator at
    all is covariant, so the search succeeds for every candidate; at dim=2
    only the spin flip direction would survive it.
    """
    require_positive(dim, "dim")
    require_positive(candidates, "candidates")
    require_positive(trials)
    require_tolerance(threshold)
    # the root of the seed's spawn tree: chunk c of the engine draws from its child (c,)
    rng = np.random.default_rng(operator.index(seed))
    shape = (candidates, dim, dim)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    a /= np.linalg.norm(a, axis=(1, 2), keepdims=True)
    violations, witnesses = _covariance_violations(
        a, candidates * trials, seed, threshold, "best", trials
    )
    # a candidate's violation is the worst over its trials
    violations = violations.reshape(candidates, trials).max(axis=1)
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
        witnesses=tuple({"candidate": w["trial"] // trials, **w} for w in witnesses)
        if passed else (),
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


def _max_entry(m):
    """Largest entry of each matrix in a (n, r, r) stack, and the fields of its index pair."""
    flat = m.reshape(len(m), -1)
    r, k = m.shape[-1], flat.argmax(axis=1)
    return flat[np.arange(len(m)), k], lambda rows: {
        "pair": np.stack(np.divmod(k[rows], r), axis=1)}


def check_bell_condition(basis, condition, trials=1000, seed=0, tol=TOL):
    """Test one of five properties characterizing Bell-like bases.

    condition selects the property; 3 and 4 are sampled, 2, 5 and 6 are
    decided exactly, ignore trials and seed, and report trials 0:
      2: <Psi_a, (U1 tensor U2) Psi_b> is real for U1, U2 in SU(d), which is
         real-bilinear: pair (j, k), the witness field, is U1 = E_j, U2 = E_k
         from a list E in SU(d), violation max |Im B^dag (E_j tensor E_k) B|.
         At d=2 E is I, i sigma_1..3, which span SU(2) over R (a Haar pair
         reads at most 4 times the largest); at d >= 3 the centre I and
         e^(2 pi i/d) I, c B^dag B, fails every basis; at d=1 E is I;
      3: unitaries that are real orthogonal in basis coordinates, sampled
         Haar on O(d^2), factor into local parts, possibly times the flip
         (the violation is the fraction of non-factorizable samples);
      4: expansion coefficients of maximally entangled vectors are real up
         to a global phase, tested pairwise via Im(c_a conj(c_b)) = 0;
      5: real unit combinations sum_a a_a X_a are unitary: exactly when 6
         holds, so its violations are 6's, and a unit combination's
         ||U^dag U - I||_F is at most n/2 times the largest;
      6: ||X_a^dag X_b + X_b^dag X_a - 2 delta_ab I||_F = 0, pairs a <= b.

    Every violation not below tol is a witness naming its pair or trial, and
    a report passes when the largest is below tol. All five hold for the
    Bell basis and fail for every basis at d >= 3.
    """
    if condition not in (2, 3, 4, 5, 6):
        raise ValueError("unknown condition id %r" % (condition,))
    require_tolerance(tol)
    d = basis.dim
    n = d * d
    b = basis_matrix(basis)
    bh = b.conj().T

    if condition == 2:
        with np.errstate(over="ignore", invalid="ignore"):
            if d == 2:
                e = bell_basis().ops
                m = _sandwich(bh, np.einsum("jab,kcd->jkacbd", e, e).reshape(16, 4, 4), b)
            else:  # E_j tensor E_k is c_j c_k I
                e = np.exp(2j * np.pi * np.arange(min(d, 2)) / d)
                m = np.multiply.outer(np.outer(e, e).ravel(), bh @ b)
            v = np.abs(m.imag).max(axis=(1, 2))
        witnesses = pair_witnesses(v, *np.divmod(np.arange(len(v)), len(e)), tol)
    elif condition in (5, 6):
        v, witnesses = _anticommutators(basis.ops.conj().swapaxes(-1, -2), basis.ops, tol)
    elif condition == 3:
        # U = B O B^dag is unitary exactly when B is. A basis that fails (one that overflows,
        # say) makes each trial a NaN violation, with no spectra for a residual
        unitary = unitarity_residual(b) <= INPUT_TOL

        def draw(rng, idx):
            return random_orthogonal(n, rng, count=len(idx))

        def measure(o):
            if not unitary:
                v = np.full(len(o), np.nan)
                return v, lambda rows: {"residual": v[rows]}
            u = _sandwich(b, o, bh)
            v = (_local_kinds(u) == "neither").astype(float)
            return v, lambda rows: {"residual": _neither_residual(u[rows])}
    else:
        def draw(rng, idx):
            return haar_unitary(d, rng, count=len(idx))

        def measure(v):
            # coefficients over the basis of (V tensor I) Omega, amplitudes vec(V)/sqrt(d)
            c = (v.reshape(-1, n) / np.sqrt(d)) @ b.conj()
            return _max_entry(np.abs((c[:, :, None] * c.conj()[:, None, :]).imag))

    sampled = condition in (3, 4)
    if sampled:  # condition 3 counts non-factorizable trials: each of them is a witness
        v, witnesses = sample_violations(
            trials, seed, 1.0 if condition == 3 else tol, draw, measure, n * n)
    worst = v.mean() if condition == 3 else np.max(v)
    return tolerance_report("bell-condition-%d" % condition, worst, tol,
                            trials=trials if sampled else 0, witnesses=witnesses)


def _det_verdicts(u, tol):
    """det_criterion's verdict for a 4 x 4 unitary or for each of a stack.

    The Bell-frame matrix B^dag U B is "not_real_in_bell" when an entry
    keeps an imaginary part above tol; otherwise the sign of the
    determinant of its real part decides. u is taken as unitary: det_criterion
    gates its input, and the sampled check builds u from _BELL.
    """
    ub = _sandwich(_BELL.conj().T, u, _BELL)
    real = np.abs(ub.imag).max(axis=(-2, -1)) <= tol
    return np.where(
        real, np.where(_det(ub.real) > 0, "local", "local_flip"), "not_real_in_bell"
    )


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
    return str(_det_verdicts(u, tol))


def check_det_criterion_agreement(trials=1000, seed=0, tol=TOL):
    """Cross-validate det_criterion against factor_local on sampled inputs.

    Each trial builds a unitary that is real orthogonal in Bell
    coordinates; even trials are forced to determinant +1 and odd trials
    to -1, so both verdicts are exercised. The violation is the fraction
    of trials where the determinant sign and the factorization verdict
    disagree ("local" with +1, "local_flip" with -1).
    """
    require_tolerance(tol)

    def draw(rng, idx):
        o = _so4(rng, len(idx))
        o[idx % 2 == 1, :, 0] *= -1.0  # Haar on the other coset of SO(4) in O(4)
        return o, idx % 2 == 0

    def measure(batch):
        o, want_positive = batch
        u = _sandwich(_BELL, o, _BELL.conj().T)
        factor_verdict = _local_kinds(u)
        det_verdict = _det_verdicts(u, tol)
        expected = np.where(want_positive, "local", "local_flip")
        mismatch = (det_verdict != expected) | (factor_verdict != expected)
        return mismatch.astype(float), lambda rows: {"det_verdict": det_verdict[rows],
                                                     "factor_verdict": factor_verdict[rows]}

    # every disagreeing trial is a witness
    violations, witnesses = sample_violations(trials, seed, 1.0, draw, measure, 16)
    return tolerance_report(
        "det-criterion-agreement", violations.mean(), tol, trials=trials, witnesses=witnesses
    )
