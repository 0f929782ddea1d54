"""End-to-end acceptance suite.

Ten criteria, one test function each, covering construction, the
vector-operator dictionary, the d=2 reality structure and its failure at
d=3, universality of the spin flip, conjugation, Clifford families,
factorization, canonicalization, and the CLI. Each test prints a single
pass/fail line (shown with pytest -s, or in the captured output on
failure) and then asserts.
"""

import time

import numpy as np

from entbasis import (
    EntangledBasis,
    StateVector,
    bell_basis,
    bell_conjugate,
    bell_matrix,
    build_clifford_generators,
    canonicalize_bell_basis,
    check_bell_condition,
    check_det_criterion_agreement,
    check_universality,
    clifford_check,
    factor_local,
    flip_operator,
    fourier_basis,
    haar_unitary,
    is_max_entangled,
    tensor,
    theta2,
    theta_n,
    universality_search,
    vector_from_operator,
)
from entbasis.cli import main


def _check(num, name, passed, detail):
    print("[%s] criterion %2d: %-38s %s"
          % ("PASS" if passed else "FAIL", num, name, detail))
    assert passed, "criterion %d (%s): %s" % (num, name, detail)


def _partial_traces(amps, d):
    """Reductions of |v><v| straight from the amplitudes, no operator detour."""
    t = np.outer(amps, amps.conj()).reshape(d, d, d, d)
    return np.einsum("ijkj->ik", t), np.einsum("ijil->jl", t)


def test_criterion_01_basis_construction():
    start = time.perf_counter()
    worst_orth = 0.0
    worst_ent = 0.0
    for d in range(2, 9):
        basis = fourier_basis(d)
        stacked = np.stack(basis.ops)
        gram = np.einsum("aij,bij->ab", stacked.conj(), stacked) / d
        worst_orth = max(worst_orth, float(np.abs(gram - np.eye(d * d)).max()))
        for v in basis.vectors:
            worst_ent = max(worst_ent, is_max_entangled(v, tol=1e-10).max_violation)
    elapsed = time.perf_counter() - start
    _check(1, "shift-and-multiply bases d=2..8",
           worst_orth < 1e-10 and worst_ent < 1e-10 and elapsed < 5.0,
           "orthonormality %.2e, entanglement %.2e, %.2fs"
           % (worst_orth, worst_ent, elapsed))


def test_criterion_02_correspondence_identities():
    worst = {"inner": 0.0, "transpose": 0.0, "reduction": 0.0, "unitary": 0.0}
    nonunitary_caught = True
    for d in range(2, 7):
        rng = np.random.default_rng(100 + d)
        eye_d = np.eye(d)
        for _ in range(500):
            x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            y = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))

            # inner product law <Phi_X, Phi_Y> = (1/d) tr(X^dag Y)
            ip = np.vdot(vector_from_operator(x).amplitudes,
                         vector_from_operator(y).amplitudes)
            worst["inner"] = max(
                worst["inner"], abs(ip - np.trace(x.conj().T @ y) / d))

            # (X tensor I) Omega = (I tensor X^T) Omega
            left = tensor(x, eye_d) @ vector_from_operator(eye_d).amplitudes
            right = tensor(eye_d, x.T) @ vector_from_operator(eye_d).amplitudes
            worst["transpose"] = max(
                worst["transpose"], float(np.linalg.norm(left - right)))

            # reductions of the unit vector for X rescaled to ||X||_F = sqrt(d)
            xs = x * np.sqrt(d) / np.linalg.norm(x)
            amps = vector_from_operator(xs).amplitudes
            rho_l, rho_r = _partial_traces(amps, d)
            worst["reduction"] = max(
                worst["reduction"],
                float(np.linalg.norm(rho_l - xs @ xs.conj().T / d)),
                float(np.linalg.norm(rho_r - xs.T @ xs.conj() / d)),
            )

            # unitary X <-> maximally entangled vector, both directions
            u = haar_unitary(d, rng)
            vu = vector_from_operator(u)
            rho_l, rho_r = _partial_traces(vu.amplitudes, d)
            worst["unitary"] = max(
                worst["unitary"],
                is_max_entangled(vu, tol=1e-10).max_violation,
                float(np.linalg.norm(rho_l - eye_d / d)),
                float(np.linalg.norm(rho_r - eye_d / d)),
            )
            if is_max_entangled(vector_from_operator(xs)).passed:
                nonunitary_caught = False
    bad = max(worst.values())
    _check(2, "correspondence identities d=2..6",
           bad < 1e-10 and nonunitary_caught,
           "worst residual %.2e over 500 trials per dimension" % bad)


def test_criterion_03_bell_conditions_hold():
    basis = bell_basis()
    reports = {c: check_bell_condition(basis, c, trials=1000, seed=11, tol=1e-10)
               for c in (2, 4, 5, 6)}
    fraction = check_bell_condition(basis, 3, trials=500, seed=11, tol=1e-10)
    worst = max(r.max_violation for r in reports.values())
    ok = all(r.passed for r in reports.values()) and fraction.max_violation == 0.0
    _check(3, "Bell basis satisfies conditions 2-6", ok,
           "conditions 2/4/5/6 worst %.2e at 1000 trials, "
           "non-factorizable fraction %.3f at 500 trials"
           % (worst, fraction.max_violation))


def test_criterion_04_conditions_fail_at_d3():
    basis = EntangledBasis.from_unitary_basis(fourier_basis(3))
    reports = {c: check_bell_condition(basis, c, trials=100, seed=13, tol=0.01)
               for c in (2, 4, 5, 6)}
    ok = all(
        (not r.passed) and r.witnesses and r.max_violation > 0.01
        for r in reports.values()
    )
    ok = ok and reports[6].trials == 0
    weakest = min(r.max_violation for r in reports.values())
    _check(4, "every condition breaks at d=3", ok,
           "weakest witnessed violation %.3f (deterministic condition "
           "reported %d trials)" % (weakest, reports[6].trials))


def test_criterion_05_universality():
    flip = check_universality(theta2(1.0), trials=1000, seed=17, tol=1e-10)
    search = universality_search(dim=3, candidates=50, trials=100, seed=17,
                                 threshold=0.1)
    ok = (flip.passed and flip.max_violation < 1e-10
          and search.passed and search.max_violation > 0.1)
    _check(5, "spin flip covariant, no d=3 analogue", ok,
           "d=2 max %.2e at 1000 trials; weakest d=3 candidate violation %.3f"
           % (flip.max_violation, search.max_violation))


def test_criterion_06_conjugation_structure():
    rng = np.random.default_rng(23)
    theta = theta_n(2)
    a_bell = bell_matrix() @ bell_matrix().T
    z = np.trace(theta.matrix.conj().T @ a_bell)
    phase = z / abs(z)
    worst_conj = 0.0
    for _ in range(1000):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v /= np.linalg.norm(v)
        got = bell_conjugate(StateVector(2, 2, v)).amplitudes
        worst_conj = max(worst_conj,
                         float(np.linalg.norm(got - phase * theta(v))))

    squares_exact = all(
        np.array_equal(theta_n(n).compose(theta_n(n)),
                       (-1) ** n * np.eye(2 ** n))
        for n in range(1, 5)
    )

    theta3 = theta_n(3)
    worst_overlap = 0.0
    for _ in range(1000):
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        v /= np.linalg.norm(v)
        worst_overlap = max(worst_overlap, abs(np.vdot(v, theta3(v))))

    ok = worst_conj < 1e-12 and squares_exact and worst_overlap < 1e-12
    _check(6, "conjugation via tensored spin flips", ok,
           "Bell-frame match %.2e (phase %s), squares exact: %s, "
           "odd self-overlap %.2e"
           % (worst_conj, np.round(phase, 12), squares_exact, worst_overlap))


def test_criterion_07_clifford_families():
    ok = True
    dims = []
    for n, expected in zip((1, 3, 5, 7), (1, 2, 4, 8)):
        rep = clifford_check(build_clifford_generators(n), tol=1e-10)
        dims.append(rep.details["dimension"])
        ok = ok and rep.passed and rep.details["dimension"] == expected \
            and rep.details["dimension_matches"]
    _check(7, "anticommuting families sized 1,3,5,7", ok,
           "dimensions %s" % (dims,))


def test_criterion_08_factorization():
    rng = np.random.default_rng(29)
    worst = 0.0
    for t in range(200):
        d = (2, 3, 4)[t % 3]
        u1, u2 = haar_unitary(d, rng), haar_unitary(d, rng)
        u = tensor(u1, u2)
        kind = "local"
        if t % 2 == 1:
            u = u @ flip_operator(d)
            kind = "local_flip"
        result = factor_local(u)
        assert result.kind == kind, "trial %d: got %s" % (t, result.kind)
        w1, w2 = result.factors
        lam = np.trace(u1.conj().T @ w1) / d
        lam /= abs(lam)
        worst = max(
            worst,
            float(np.linalg.norm(w1 - lam * u1)),
            float(np.linalg.norm(lam * w2 - u2)),
            result.residual,
        )
    agreement = check_det_criterion_agreement(trials=500, seed=29)
    ok = worst < 1e-8 and agreement.passed and agreement.max_violation == 0.0
    _check(8, "local/flip round trips and det criterion", ok,
           "post-alignment residual %.2e over 200 trials, "
           "disagreement fraction %.3f over 500" % (worst, agreement.max_violation))


def _parity(perm):
    inversions = sum(
        1
        for a in range(len(perm))
        for b in range(a + 1, len(perm))
        if perm[a] > perm[b]
    )
    return inversions % 2


def test_criterion_09_canonicalization():
    rng = np.random.default_rng(31)
    bv = bell_basis().vectors
    worst = 0.0
    parity_ok = True
    for t in range(200):
        v, w = haar_unitary(2, rng), haar_unitary(2, rng)
        local = tensor(v, w)
        # one common phase keeps the axis frame's handedness tied to the
        # ordering; per-vector phases would flip individual axis signs
        phase = np.exp(2j * np.pi * rng.random())
        order = (0, 1, 2, 3) if t % 2 == 0 else (0, 2, 1, 3)
        vecs = tuple(
            StateVector(2, 2, phase * (local @ bv[order[a]].amplitudes))
            for a in range(4)
        )
        basis = EntangledBasis.from_vectors(2, vecs)
        canon = canonicalize_bell_basis(basis)
        rebuilt_local = tensor(canon.u1, canon.u2)
        for a in range(4):
            target = canon.phases[a] * (
                rebuilt_local @ bv[canon.permutation[a]].amplitudes)
            worst = max(worst,
                        float(np.linalg.norm(vecs[a].amplitudes - target)))
        parity_ok = parity_ok and _parity(canon.permutation) == (t % 2)
    _check(9, "Bell frame recovery from rotated bases",
           worst < 1e-8 and parity_ok,
           "reconstruction residual %.2e over 200 trials, handedness "
           "parity consistent: %s" % (worst, parity_ok))


def test_criterion_10_cli_pipeline(tmp_path):
    gen_verify_ok = True
    for d in range(2, 7):
        path = tmp_path / ("basis%d.json" % d)
        gen_verify_ok = gen_verify_ok and \
            main(["gen", "--dim", str(d), "--out", str(path)]) == 0 and \
            main(["verify", str(path)]) == 0

    bell_code = main(["check", "bell-all", "--trials", "200", "--seed", "7"])
    d3_code = main(["check", "bell-all", "--basis", str(tmp_path / "basis3.json"),
                    "--trials", "100", "--seed", "7"])

    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for path in (r1, r2):
        main(["check", "bell-all", "--trials", "200", "--seed", "7",
              "--report", str(path)])
    identical = r1.read_bytes() == r2.read_bytes()

    ok = gen_verify_ok and bell_code == 0 and d3_code == 1 and identical
    _check(10, "CLI pipeline and report determinism", ok,
           "gen/verify d=2..6 %s, Bell exit %d, d=3 exit %d, "
           "byte-identical reports: %s"
           % (gen_verify_ok, bell_code, d3_code, identical))
