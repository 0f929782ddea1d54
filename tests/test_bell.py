"""Tests for the d=2 structure: Bell basis, antilinear operators,
canonicalization, the five basis conditions, and the determinant criterion."""

import numpy as np
import pytest

from entbasis import (
    AntilinearOp,
    EntangledBasis,
    PAULIS,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    StateVector,
    bell_basis,
    bell_conjugate,
    bell_matrix,
    bell_unitary_basis,
    canonicalize_bell_basis,
    check_bell_condition,
    check_det_criterion_agreement,
    check_preserves_max_entangled,
    check_universality,
    det_criterion,
    factor_local,
    flip_operator,
    fourier_basis,
    haar_special_unitary,
    haar_unitary,
    tensor,
    theta2,
    theta_n,
    universality_search,
    verify_unitary_basis,
)

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def rand_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def rotated_bell(v, w, phases=None, order=None):
    """(v tensor w) applied to the (optionally permuted/rephased) Bell basis."""
    vecs = bell_basis().vectors
    order = order or (0, 1, 2, 3)
    phases = phases or (1, 1, 1, 1)
    local = tensor(v, w)
    out = tuple(
        StateVector(2, 2, phases[a] * (local @ vecs[order[a]].amplitudes))
        for a in range(4)
    )
    return EntangledBasis.from_vectors(2, out)


class TestBellBasis:
    def test_vector_values(self):
        s = 1 / np.sqrt(2)
        vecs = bell_basis().vectors
        assert np.allclose(vecs[0].amplitudes, [s, 0, 0, s], atol=1e-15)
        assert np.allclose(vecs[1].amplitudes, [0, 1j * s, 1j * s, 0], atol=1e-15)
        assert np.allclose(vecs[2].amplitudes, [0, s, -s, 0], atol=1e-15)
        assert np.allclose(vecs[3].amplitudes, [1j * s, 0, 0, -1j * s], atol=1e-15)

    def test_pauli_family_is_a_unitary_basis(self):
        # trace table of Pauli products: tr((i s_a)^dag (i s_b)) = 2 delta_ab
        assert verify_unitary_basis(bell_unitary_basis(), tol=1e-14)

    def test_bell_matrix_unitary(self):
        b = bell_matrix()
        assert np.linalg.norm(b.conj().T @ b - np.eye(4)) < 1e-14


class TestTheta2:
    def test_action_on_first_basis_vector(self):
        out = theta2(1.0)(np.array([1.0, 0.0]))
        assert np.array_equal(out, [0.0, -1.0])

    def test_overlap_vanishes(self):
        rng = np.random.default_rng(0)
        th = theta2(1.0)
        for _ in range(1000):
            v = rand_complex(rng, 2)
            assert abs(np.vdot(v, th(v))) < 1e-12

    def test_square_is_minus_identity(self):
        rng = np.random.default_rng(1)
        th = theta2(1.0)
        v = rand_complex(rng, 2)
        assert np.allclose(th(th(v)), -v, atol=1e-14)
        assert np.array_equal(th.compose(th), -np.eye(2))

    def test_scaling(self):
        th = theta2(2.0)
        assert not th.is_antiunitary()
        assert np.array_equal(th.compose(th), -4 * np.eye(2))

    def test_antiunitary_for_unit_modulus(self):
        assert theta2(np.exp(0.3j)).is_antiunitary()


class TestAntilinearOp:
    def test_antilinearity(self):
        rng = np.random.default_rng(2)
        op = AntilinearOp(rand_complex(rng, (3, 3)))
        v, w = rand_complex(rng, 3), rand_complex(rng, 3)
        lam = 0.7 - 1.3j
        assert np.allclose(op(lam * v + w), np.conj(lam) * op(v) + op(w), atol=1e-12)

    def test_composition_matrix(self):
        rng = np.random.default_rng(3)
        op1 = AntilinearOp(rand_complex(rng, (3, 3)))
        op2 = AntilinearOp(rand_complex(rng, (3, 3)))
        v = rand_complex(rng, 3)
        assert np.allclose(op1.compose(op2) @ v, op1(op2(v)), atol=1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            AntilinearOp(np.ones((2, 3)))


class TestThetaN:
    def test_n1_equals_theta2(self):
        assert np.array_equal(theta_n(1).matrix, theta2(1.0).matrix)

    def test_fixes_every_bell_vector(self):
        th = theta_n(2)
        for v in bell_basis().vectors:
            assert np.allclose(th(v.amplitudes), v.amplitudes, atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_square_exact(self, n):
        th = theta_n(n)
        assert np.array_equal(th.compose(th), (-1.0) ** n * np.eye(2**n))

    def test_odd_overlap_vanishes(self):
        rng = np.random.default_rng(4)
        th = theta_n(3)
        for _ in range(1000):
            v = rand_complex(rng, 8)
            assert abs(np.vdot(v, th(v))) < 1e-12

    def test_local_unitary_covariance(self):
        # (U1 x ... x Un) Theta (U1 x ... x Un)^dag = prod det(Uk) Theta
        rng = np.random.default_rng(5)
        for n in (2, 3):
            us = [haar_unitary(2, rng) for _ in range(n)]
            u = us[0]
            for x in us[1:]:
                u = tensor(u, x)
            a = theta_n(n).matrix
            phase = np.prod([np.linalg.det(x) for x in us])
            assert np.linalg.norm(u @ a @ u.T - phase * a) < 1e-12

    def test_bad_count(self):
        with pytest.raises(ValueError):
            theta_n(0)


class TestUniversality:
    def test_spin_flip_covariant(self):
        report = check_universality(theta2(1.0), trials=1000, seed=0)
        assert report.passed
        assert report.max_violation < 1e-10
        assert report.witnesses == ()

    def test_identity_trial_has_zero_violation(self):
        a = theta2(1.0).matrix
        u = np.eye(2)
        assert np.linalg.norm(u @ a @ u.T - np.linalg.det(u) * a) == 0.0

    def test_sigma3_candidate_fails(self):
        report = check_universality(AntilinearOp(SIGMA3), trials=100, seed=0)
        assert not report.passed
        assert report.max_violation > 0.5
        assert report.witnesses

    def test_spin_flip_covariant_up_to_best_phase(self):
        # the sqrt in the phase-minimized distance amplifies roundoff,
        # so the bound is looser than for the det-phase residual
        report = check_universality(theta2(1.0), trials=200, seed=0,
                                    tol=1e-7, phase="best")
        assert report.passed

    def test_search_dimension_three(self):
        report = universality_search(dim=3, candidates=50, trials=100, seed=0)
        assert report.passed
        assert report.max_violation > 0.1
        assert report.witnesses
        assert report.verdict == "violation witnessed for every candidate"

    def test_unknown_phase_mode(self):
        with pytest.raises(ValueError):
            check_universality(theta2(1.0), trials=1, phase="none")


class TestBellConjugate:
    def test_bell_vectors_fixed(self):
        for v in bell_basis().vectors:
            assert np.allclose(bell_conjugate(v).amplitudes, v.amplitudes, atol=1e-14)

    def test_imaginary_coefficient_flips(self):
        vecs = bell_basis().vectors
        v = StateVector(2, 2, 1j * vecs[0].amplitudes)
        out = bell_conjugate(v)
        assert np.allclose(out.amplitudes, -1j * vecs[0].amplitudes, atol=1e-14)

    def test_matches_double_spin_flip(self):
        rng = np.random.default_rng(6)
        th = theta_n(2)
        for _ in range(200):
            v = rand_complex(rng, 4)
            sv = StateVector(2, 2, v)
            assert np.linalg.norm(bell_conjugate(sv).amplitudes - th(v)) < 1e-12

    def test_wrong_dimension(self):
        with pytest.raises(ValueError):
            bell_conjugate(StateVector(3, 3, np.zeros(9)))


class TestCanonicalize:
    def test_bell_basis_is_fixed_point(self):
        can = canonicalize_bell_basis(bell_basis())
        assert np.allclose(can.u1, np.eye(2), atol=1e-12)
        assert np.allclose(can.u2, np.eye(2), atol=1e-12)
        assert np.allclose(can.phases, [1, 1, 1, 1], atol=1e-12)
        assert can.permutation == (0, 1, 2, 3)
        assert can.residual < 1e-12

    def test_recovers_local_rotation_up_to_joint_sign(self):
        rng = np.random.default_rng(7)
        for trial in range(200):
            v = haar_special_unitary(2, rng)
            w = haar_special_unitary(2, rng)
            can = canonicalize_bell_basis(rotated_bell(v, w))
            assert can.residual < 1e-8
            # joint sign cancels in the tensor product
            assert np.linalg.norm(tensor(can.u1, can.u2) - tensor(v, w)) < 1e-8
            sign = can.u1[np.abs(v) > 0.3][0] / v[np.abs(v) > 0.3][0]
            assert abs(sign - 1) < 1e-8 or abs(sign + 1) < 1e-8

    def test_swapped_pair_gives_odd_permutation(self):
        vecs = bell_basis().vectors
        swapped = EntangledBasis.from_vectors(2, (vecs[0], vecs[2], vecs[1], vecs[3]))
        can = canonicalize_bell_basis(swapped)
        assert can.permutation == (0, 2, 1, 3)
        assert can.residual < 1e-12

    def test_rotated_swapped_basis(self):
        rng = np.random.default_rng(8)
        v = haar_special_unitary(2, rng)
        w = haar_special_unitary(2, rng)
        can = canonicalize_bell_basis(rotated_bell(v, w, order=(0, 2, 1, 3)))
        assert can.permutation == (0, 2, 1, 3)
        assert can.residual < 1e-8

    def test_recovers_phases(self):
        rng = np.random.default_rng(9)
        v = haar_special_unitary(2, rng)
        w = haar_special_unitary(2, rng)
        phases = tuple(np.exp(2j * np.pi * rng.random()) for _ in range(4))
        can = canonicalize_bell_basis(rotated_bell(v, w, phases=phases))
        assert can.residual < 1e-8
        # the anchor phase is absorbed into u2; the rest are reported as the
        # positive-real-part representative, the sign flip going to the axis
        expected = [1.0] + [
            q if q.real > 0 else -q for q in (p / phases[0] for p in phases[1:])
        ]
        assert np.allclose(can.phases, expected, atol=1e-8)

    def test_u1_representative_sign_convention(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            can = canonicalize_bell_basis(
                rotated_bell(haar_special_unitary(2, rng), haar_special_unitary(2, rng))
            )
            lead = can.u1.reshape(-1)[np.abs(can.u1.reshape(-1)) > 1e-12][0]
            assert lead.real > 0 or (lead.real == 0 and lead.imag >= 0)

    def test_invalid_basis_rejected(self):
        e = np.zeros(4, dtype=complex)
        e[0] = 1.0
        product_like = EntangledBasis.from_vectors(
            2,
            (
                StateVector(2, 2, e),
                StateVector(2, 2, np.roll(e, 1)),
                StateVector(2, 2, np.roll(e, 2)),
                StateVector(2, 2, np.roll(e, 3)),
            ),
        )
        with pytest.raises(ValueError, match="invariants"):
            canonicalize_bell_basis(product_like)

    def test_wrong_dimension_rejected(self):
        basis = EntangledBasis.from_unitary_basis(fourier_basis(3))
        with pytest.raises(ValueError):
            canonicalize_bell_basis(basis)


class TestBellConditions:
    def test_bell_passes_condition_6_tight(self):
        report = check_bell_condition(bell_basis(), 6)
        assert report.passed
        assert report.max_violation < 1e-12
        assert report.trials == 0

    @pytest.mark.parametrize("cond", [2, 4, 5])
    def test_bell_passes_sampled_conditions(self, cond):
        report = check_bell_condition(bell_basis(), cond, trials=300, seed=0)
        assert report.passed
        assert report.max_violation < 1e-10

    def test_bell_condition_3_all_factorizable(self):
        report = check_bell_condition(bell_basis(), 3, trials=200, seed=0)
        assert report.passed
        assert report.max_violation == 0.0

    @pytest.mark.parametrize("cond", [2, 4, 5])
    def test_fourier_d3_fails_sampled_conditions(self, cond):
        basis = EntangledBasis.from_unitary_basis(fourier_basis(3))
        report = check_bell_condition(basis, cond, trials=100, seed=0)
        assert not report.passed
        assert report.max_violation > 0.01
        assert report.witnesses
        assert report.verdict == "violation witnessed"

    def test_fourier_d3_fails_condition_6(self):
        basis = EntangledBasis.from_unitary_basis(fourier_basis(3))
        report = check_bell_condition(basis, 6)
        assert not report.passed
        assert report.max_violation >= 1.0
        assert report.witnesses

    def test_rotated_bell_still_passes(self):
        # the conditions are invariant under local rotations of the basis
        rng = np.random.default_rng(11)
        basis = rotated_bell(haar_special_unitary(2, rng), haar_special_unitary(2, rng))
        for cond in (2, 4, 5, 6):
            assert check_bell_condition(basis, cond, trials=100, seed=1).passed

    def test_unknown_condition(self):
        with pytest.raises(ValueError, match="condition"):
            check_bell_condition(bell_basis(), 7)

    def test_condition_6_ignores_trials(self):
        assert check_bell_condition(bell_basis(), 6, trials=0).passed


@pytest.mark.parametrize("run", [
    lambda: check_bell_condition(bell_basis(), 3, trials=0),
    lambda: check_universality(theta2(), trials=0),
    lambda: universality_search(candidates=0),
    lambda: universality_search(trials=0),
    lambda: check_det_criterion_agreement(trials=-3),
    lambda: check_preserves_max_entangled(np.eye(4), trials=0),
], ids=["bell-3", "universality", "search-candidates", "search-trials",
        "det-criterion", "preserves"])
def test_sampled_checks_refuse_to_draw_nothing(run):
    with pytest.raises(ValueError, match="at least 1"):
        run()


class TestDetCriterion:
    def test_pauli_product_local(self):
        assert det_criterion(tensor(SIGMA1, SIGMA3)) == "local"

    def test_flip_is_local_flip(self):
        assert det_criterion(flip_operator(2)) == "local_flip"

    def test_cnot_not_real(self):
        assert det_criterion(CNOT) == "not_real_in_bell"
        assert factor_local(CNOT).kind == "neither"

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            det_criterion(np.diag([1.0, 0.5, 1.0, 1.0]).astype(complex))

    def test_agreement_with_factorization(self):
        report = check_det_criterion_agreement(trials=500, seed=0)
        assert report.passed
        assert report.max_violation == 0.0

    def test_local_unitaries_are_real_in_bell(self):
        # SU(2) x SU(2) conjugation acts as a rotation in Bell coordinates
        rng = np.random.default_rng(12)
        b = bell_matrix()
        for _ in range(50):
            u = tensor(haar_special_unitary(2, rng), haar_special_unitary(2, rng))
            assert det_criterion(u) == "local"
            ub = b.conj().T @ u @ b
            assert np.abs(ub.imag).max() < 1e-12

    def test_flip_times_local_is_local_flip(self):
        rng = np.random.default_rng(13)
        u = tensor(haar_special_unitary(2, rng), haar_special_unitary(2, rng))
        assert det_criterion(u @ flip_operator(2)) == "local_flip"
