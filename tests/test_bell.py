"""Tests for the d=2 structure: Bell basis, antilinear operators,
canonicalization, the five basis conditions, and the determinant criterion."""

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from entbasis import (
    AntilinearOp,
    CheckReport,
    EntangledBasis,
    PAULIS,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    StateVector,
    basis_matrix,
    bell_basis,
    bell_conjugate,
    bell_matrix,
    canonicalize_bell_basis,
    check_bell_condition,
    check_det_criterion_agreement,
    check_universality,
    cyclic_latin_square,
    det_criterion,
    factor_local,
    flip_operator,
    fourier_basis,
    fourier_hadamard,
    haar_special_unitary,
    haar_unitary,
    reduced_density,
    shift_multiply_basis,
    tensor,
    theta2,
    theta_n,
    unitarity_residual,
    universality_search,
    verify_unitary_basis,
)
from entbasis import bell, factorize
from entbasis.reports import INPUT_TOL, MAX_WITNESSES

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def sampled_bell_condition(*args):
    """test_engine's sampled forms of the Bell conditions (it imports this module first)."""
    from test_engine import sampled_bell_condition
    return sampled_bell_condition(*args)


def sampled_det_agreement(*args):
    """test_engine's sampled form of det-criterion agreement."""
    from test_engine import sampled_det_agreement
    return sampled_det_agreement(*args)


def random_phase_basis(d, seed):
    """Shift-and-multiply basis from d Fourier matrices, each with random row and column phases."""
    rng = np.random.default_rng(seed)
    hadamards = [np.exp(2j * np.pi * rng.random((d, 1))) * fourier_hadamard(d)
                 * np.exp(2j * np.pi * rng.random(d)) for _ in range(d)]
    return shift_multiply_basis(hadamards, cyclic_latin_square(d))


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
        assert verify_unitary_basis(bell_basis(), tol=1e-14)

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
        assert report.passed and report.trials == 0
        assert report.max_violation <= 1e-12
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
        # every generator residual of the spin flip is 0, before and after projecting off C A
        report = check_universality(theta2(1.0), trials=200, seed=0, phase="best")
        assert report.passed
        assert report.max_violation <= 1e-12

    def test_search_dimension_three(self):
        report = universality_search(dim=3, candidates=50, trials=100, seed=0)
        assert report.passed
        assert report.max_violation > 0.1
        assert report.witnesses
        assert report.verdict == "violation witnessed for every candidate"

    def test_unknown_phase_mode(self):
        with pytest.raises(ValueError):
            check_universality(theta2(1.0), trials=1, phase="none")

    @pytest.mark.parametrize("phase", ["det", "best"])
    def test_trials_and_seed_are_ignored(self, phase):
        for a in (theta2().matrix, SIGMA3):
            reports_ = [check_universality(AntilinearOp(a), trials=n, seed=s, phase=phase)
                        for n, s in ((1, 0), (1000, 4), (0, 7), (-5, 2 ** 40))]
            assert all(r == reports_[0] for r in reports_) and reports_[0].trials == 0

    def test_search_weakest_candidate_is_far_from_covariant(self):
        # over seeds 0-1999 the weakest of 50 was 0.857; the bench's band is 0.1
        for seed in range(50):
            report = universality_search(dim=3, seed=seed)
            assert report.passed and report.max_violation > 0.5
            assert report.trials == 0 and report.details["seed"] == seed

    @pytest.mark.parametrize("phase", ["det", "best"])
    def test_zero_operator_passes_without_nan(self, phase):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = check_universality(AntilinearOp(np.zeros((3, 3))), phase=phase)
        assert report.passed and report.max_violation == 0.0

    @pytest.mark.parametrize("phase", ["det", "best"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nan_or_inf_operator_is_a_witness_without_warnings(self, bad, phase):
        a = np.eye(3, dtype=complex)
        a[1, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = check_universality(AntilinearOp(a), phase=phase)
        assert not report.passed and not np.isfinite(report.max_violation)
        assert report.witnesses and not all(np.isfinite(w["violation"]) for w in report.witnesses)

    def test_d64_peak_memory(self):
        # O(d^3) entries: 2.3 MiB measured at d = 64, where a stack of d^2 images would be 268 MB
        theta = theta_n(6)
        tracemalloc.start()
        try:
            report = check_universality(theta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not report.passed and len(report.witnesses) == MAX_WITNESSES
        assert peak < 32 * 2 ** 20


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

    def test_rephased_odd_order_reconstruction(self):
        rng = np.random.default_rng(11)
        bell_vecs = bell_basis().vectors
        for _ in range(50):
            v, w = haar_special_unitary(2, rng), haar_special_unitary(2, rng)
            phases = np.exp(2j * np.pi * rng.random(4))
            basis = rotated_bell(v, w, phases=tuple(phases), order=(0, 2, 1, 3))
            can = canonicalize_bell_basis(basis)
            local = tensor(can.u1, can.u2)
            rebuilt = max(
                np.linalg.norm(basis.vectors[a].amplitudes
                               - can.phases[a] * (local @ bell_vecs[can.permutation[a]].amplitudes))
                for a in range(4)
            )
            assert rebuilt < 1e-12 and can.residual < 1e-12
            assert abs(np.linalg.det(can.u1) - 1) < 1e-12
            # phases[0] = 1; the others are p_a / p_0 with positive real part, and
            # each sign taken into the frame flips the frame's handedness
            rel = phases[1:] / phases[0]
            assert np.allclose(can.phases, [1.0, *np.where(rel.real > 0, rel, -rel)], atol=1e-12)
            flips = int(np.sum(rel.real < 0))
            assert can.permutation == ((0, 1, 2, 3) if flips % 2 else (0, 2, 1, 3))

    def test_slightly_nonlocal_basis_accepted(self):
        # the Bell coordinates are real up to phases only to within eps: accepted, residual ~ eps
        eps = 1e-9
        h = rand_complex(np.random.default_rng(12), (4, 4))
        h = (h + h.conj().T) / np.linalg.norm(h + h.conj().T, 2)
        lam, q = np.linalg.eigh(h)
        g = (q * np.exp(1j * eps * lam)) @ q.conj().T
        moved = EntangledBasis.from_vectors(
            2, tuple(StateVector(2, 2, g @ vec.amplitudes) for vec in bell_basis().vectors)
        )
        can = canonicalize_bell_basis(moved, tol=1e-8)
        assert can.permutation == (0, 1, 2, 3)
        assert eps / 100 < can.residual < 2 * eps

    def test_non_orthogonal_frame_within_tol_accepted(self):
        # a unitary move leaves the real frame orthogonal to second order; here the
        # defect is first order: largest entry of F^T F - I is 8e-9 <= tol, its
        # Frobenius norm 2.8e-8, too far from unitary for factor_local unprojected
        delta = 4e-9
        coords = np.eye(4) + delta * (np.ones((4, 4)) - np.eye(4))
        vecs = bell_matrix() @ coords
        basis = EntangledBasis.from_vectors(2, tuple(StateVector(2, 2, c) for c in vecs.T))
        can = canonicalize_bell_basis(basis, tol=1e-8)
        assert can.permutation == (0, 1, 2, 3)
        assert delta / 100 < can.residual < 4 * delta

    def test_degenerate_phase_rejected(self):
        # Bell coordinates (1, +-i, 0, 0)/sqrt(2) give sum_k c_k^2 = 0: no phase to divide out
        coords = np.eye(4, dtype=complex)
        coords[:2, :2] = np.array([[1, 1], [1j, -1j]]) / np.sqrt(2)
        vecs = bell_matrix() @ coords
        basis = EntangledBasis.from_vectors(2, tuple(StateVector(2, 2, c) for c in vecs.T))
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="frame residual"):
                canonicalize_bell_basis(basis, tol=2.0)

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

    def test_bell_condition_3_draws_both_cosets(self, monkeypatch):
        # the sampled form draws O Haar on O(4): at d=2 both answers of the property, local and
        # local-flip, are seen
        import test_engine
        kinds, real_kinds = [], test_engine.svd_kinds
        monkeypatch.setattr(test_engine, "svd_kinds", lambda u: kinds.append(real_kinds(u)) or kinds[-1])
        report = sampled_bell_condition(bell_basis(), 3, 2000, 0)
        assert report.passed and report.max_violation == 0.0
        counts = dict(zip(*np.unique(np.concatenate(kinds), return_counts=True)))
        assert counts.keys() == {"local", "local_flip"} and sum(counts.values()) == 2000
        assert 900 < counts["local_flip"] < 1100

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
        # every condition alike draws nothing: any trial count or seed, a Generator
        # included, gives one report, which says trials 0
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        for basis in (bell_basis(), fourier_basis(3)):
            for cond in (2, 3, 4, 5, 6):
                found = [check_bell_condition(basis, cond, trials=t, seed=s)
                         for t, s in ((0, 0), (-3, 7), (10 ** 12, rng))]
                assert found[0].trials == 0 and found[1:] == found[:1] * 2
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("basis", [
        fourier_basis(3), fourier_basis(4), fourier_basis(5),
        random_phase_basis(3, 9),
    ], ids=["fourier3", "fourier4", "fourier5", "random-phase3"])
    def test_condition_2_at_d3_and_up_is_the_centre(self, basis):
        # U1 = I and U2 = e^(2 pi i/d) I are in SU(d), and B^dag (U1 tensor U2) B = e^(2 pi i/d) I
        report = check_bell_condition(basis, 2)
        d = basis.dim
        assert abs(report.max_violation - np.sin(2 * np.pi / d)) <= 1e-12
        assert report.witnesses[0]["pair"] == [0, 1] and report.trials == 0

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_condition_2_fails_one_vector_only_at_pairs_with_i_sigma_k(self, k):
        # four equal operators (I + sigma_k)/2: every vector is one psi, and
        # <psi, (E_j tensor E_l) psi> is complex only at (0, k) and (k, 0), so a list E
        # without I or without i sigma_k would pass it
        p = (np.eye(2) + PAULIS[k - 1]) / 2
        report = check_bell_condition(EntangledBasis(2, [p] * 4), 2)
        assert [w["pair"] for w in report.witnesses] == [[0, k], [k, 0]]
        assert report.max_violation == pytest.approx(0.5, abs=1e-12)

    def test_condition_5_is_condition_6s_pair_relations(self):
        # every Fourier operator is unitary: only the pair relations a < b can fail
        basis = fourier_basis(3)
        assert unitarity_residual(basis.ops).max() < 1e-12
        five, six = (check_bell_condition(basis, c) for c in (5, 6))
        assert not five.passed and replace(five, name="bell-condition-6") == six

    def test_conditions_3_and_4_are_one_pair_rule(self):
        three, four = (check_bell_condition(random_phase_basis(3, 2), c) for c in (3, 4))
        assert not three.passed and replace(three, name="bell-condition-4") == four

    @pytest.mark.parametrize("d", [3, 4, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pair_residuals_at_d3_and_up_are_bounded_below(self, d, seed, monkeypatch):
        # each trace in r_jk^2 is at most d in size, so every pair fails by sqrt(2 - 8/d^2)
        seen, real = [], bell.pair_witnesses
        monkeypatch.setattr(bell, "pair_witnesses", lambda v, *a: seen.append(v) or real(v, *a))
        report = check_bell_condition(random_phase_basis(d, seed), 3)
        (r,) = seen
        assert len(r) == d * d * (d * d - 1) // 2
        assert r.min() >= np.sqrt(2 - 8 / d ** 2) * (1 - 1e-15)
        assert [w["pair"] for w in report.witnesses] == [[0, k] for k in range(1, 9)]


@pytest.mark.parametrize("run", [
    lambda: sampled_bell_condition(bell_basis(), 3, 0, 0),  # the form condition 3 had sampled
    lambda: universality_search(candidates=0),
    lambda: sampled_det_agreement(-3, 0),  # the form det-criterion agreement had sampled
], ids=["bell-3", "search-candidates", "det-criterion"])
def test_sampled_checks_refuse_to_draw_nothing(run):
    with pytest.raises(ValueError, match="at least 1"):
        run()


@pytest.mark.parametrize("tol", [float("inf"), 0.0, float("nan"), -1.0, -1e-3])
@pytest.mark.parametrize("run", [
    lambda tol: check_bell_condition(bell_basis(), 6, tol=tol),
    lambda tol: check_bell_condition(bell_basis(), 2, trials=5, tol=tol),
    lambda tol: universality_search(candidates=1, trials=2, threshold=tol),
    # not unitary, which inf would let through as "local"
    lambda tol: factor_local(np.ones((4, 4)), tol=tol),
    # NaN would call every input "not_real_in_bell"
    lambda tol: det_criterion(CNOT, tol),
    # not a unit vector, which NaN or inf would let through
    lambda tol: reduced_density(StateVector(2, 2, np.array([1.0, 0, 0, 1.0])), "left", tol),
    lambda tol: theta2().is_antiunitary(tol),
], ids=["bell-6", "bell-2", "search", "factor_local", "det_criterion", "reduced_density",
        "is_antiunitary"])
def test_checks_refuse_meaningless_tolerance(run, tol):
    with pytest.raises(ValueError, match="tolerance"):
        run(tol)


def _cond(c):
    return lambda tol: check_bell_condition(fourier_basis(3), c, trials=2000, tol=tol)


@pytest.mark.parametrize("run, generators", [
    # every Bell condition, phase covariance and det-criterion agreement is decided exactly:
    # nothing to draw; the search draws its candidates from one Generator
    *[(_cond(c), 0) for c in (2, 3, 4, 5, 6)],
    (lambda tol: check_universality(theta2(), trials=2000, tol=tol), 0),
    (lambda tol: check_universality(theta2(), trials=2000, tol=tol, phase="best"), 0),
    (lambda tol: check_det_criterion_agreement(trials=2000, tol=tol), 0),
    (lambda tol: universality_search(dim=3, candidates=20, trials=100, threshold=tol), 1),
], ids=["bell-2", "bell-3", "bell-4", "bell-5", "bell-6", "universality", "universality-best",
        "det-criterion", "search"])
def test_meaningless_tolerance_refused_before_the_first_draw(run, generators, monkeypatch):
    made = []  # Generators built
    real_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *seed: made.append(seed) or real_rng(*seed))
    for tol in (float("nan"), 0.0, -1.0, float("inf")):
        with pytest.raises(ValueError, match="tolerance"):
            run(tol)
    assert made == []
    run(1e-10)  # with a tolerance that means something, only the search builds a Generator
    assert len(made) == generators


def test_condition_3_fails_when_it_finds_violations():
    # every pair of Fourier d=3 is 1.247 from the local algebra: each residual not below tol
    # is a witness, and tol above them all passes
    report = check_bell_condition(fourier_basis(3), 3, tol=1.24)
    assert report.max_violation == pytest.approx(np.sqrt(14) / 3, abs=1e-12)
    assert len(report.witnesses) == MAX_WITNESSES and not report.passed
    assert all(w["violation"] >= 1.24 for w in report.witnesses)
    assert report.verdict == "violation witnessed"
    assert check_bell_condition(fourier_basis(3), 3, tol=1.25).passed


class TestCondition3BasisGate:
    def test_basis_gated_once_per_call(self, monkeypatch):
        # the pair rule needs a basis of unitaries: one verify_unitary_basis for the call
        gated, real_verify = [], bell.verify_unitary_basis
        monkeypatch.setattr(bell, "verify_unitary_basis",
                            lambda basis, tol: gated.append(tol) or real_verify(basis, tol))
        for cond in (3, 4):
            assert not check_bell_condition(fourier_basis(3), cond, trials=1000, seed=0)
        assert gated == [INPUT_TOL] * 2

    @pytest.mark.parametrize("d", [2, 3])
    def test_product_basis_gets_nan_witnesses(self, d):
        # B is the identity while no operator sqrt(d) E_ij is unitary: the gate refuses it
        basis = EntangledBasis(d, np.sqrt(d) * np.eye(d * d).reshape(d * d, d, d))
        assert np.array_equal(basis_matrix(basis), np.eye(d * d))
        assert not verify_unitary_basis(basis)
        for cond in (3, 4):
            report = check_bell_condition(basis, cond)
            assert np.isnan(report.max_violation) and not report.passed
            assert len(report.witnesses) == min(MAX_WITNESSES, d * d * (d * d - 1) // 2)
            assert all(np.isnan(w["violation"]) for w in report.witnesses)

    def test_overflowing_basis_at_d3_gives_nan_witnesses_without_warnings(self):
        # condition 6's kernel runs whatever the gate found, and overflows here: it must stay quiet
        ops = fourier_basis(3).ops.copy()
        ops[:2] *= 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = check_bell_condition(EntangledBasis(3, ops), 3)
        assert np.isnan(report.max_violation) and not report.passed
        assert report.witnesses[0]["pair"] == [0, 1]
        assert all(np.isnan(w["violation"]) for w in report.witnesses)

    def test_basis_beyond_the_input_tolerance_gives_nan_witnesses(self):
        # scaling the operators by s makes B^dag B = s^2 I, a residual of (s^2 - 1) d
        ops = fourier_basis(3).ops
        basis = EntangledBasis(3, np.sqrt(1 + 10 * INPUT_TOL / 3) * ops)
        assert unitarity_residual(basis_matrix(basis)) == pytest.approx(10 * INPUT_TOL, rel=1e-5)
        report = check_bell_condition(basis, 3)
        assert np.isnan(report.max_violation) and not report.passed
        assert [w["pair"] for w in report.witnesses] == [[0, k] for k in range(1, 9)]
        assert all(np.isnan(w["violation"]) for w in report.witnesses)
        # a tenth of the tolerance passes the gate, and the same pairs get finite residuals
        report = check_bell_condition(EntangledBasis(3, np.sqrt(1 + INPUT_TOL / 30) * ops), 3)
        assert report.max_violation == pytest.approx(np.sqrt(14) / 3, rel=1e-8)
        assert [w["pair"] for w in report.witnesses] == [[0, k] for k in range(1, 9)]

    def test_d1_is_decided_by_the_gate_alone(self):
        # one operator, so no pair: the unitary 1 x 1 basis passes, a scaled one fails
        for cond in (3, 4):
            assert check_bell_condition(fourier_basis(1), cond).max_violation == 0.0
            report = check_bell_condition(EntangledBasis(1, [[[2.0]]]), cond)
            assert np.isnan(report.max_violation) and report.witnesses == ()


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
        assert report.max_violation == 0.0 and report.trials == 0

    @pytest.mark.parametrize("tol", [1e-10, 1e-3, 0.5])
    def test_agreement_report_as_hand_built(self, tol, monkeypatch):
        # the report passes exactly when no generator residual and no representative fails, at
        # every tolerance; a det_criterion that always says "local" fails on the flip alone
        report = check_det_criterion_agreement(trials=40, seed=3, tol=tol)
        assert report == CheckReport("det-criterion-agreement", 0, 0.0, tol, True,
                                     "no violation found")
        monkeypatch.setattr(bell, "det_criterion", lambda u, tol: "local")
        report = check_det_criterion_agreement(trials=40, seed=3, tol=tol)
        assert report == CheckReport(
            "det-criterion-agreement", 0, 1.0, tol, False, "violation witnessed",
            ({"input": "flip", "det_verdict": "local", "factor_verdict": "local_flip",
              "violation": 1.0},))

    def test_agreement_fails_on_a_basis_whose_generators_leave_the_local_algebra(self, monkeypatch):
        # with the Fourier d=2 basis for the Bell basis, condition 3's pair residuals are
        # sqrt(2): the generator part fails, and the representatives still agree
        monkeypatch.setattr(bell, "bell_basis", lambda: fourier_basis(2))
        report = check_det_criterion_agreement()
        assert not report.passed and report.max_violation == pytest.approx(np.sqrt(2), abs=1e-12)
        assert report.witnesses and all(set(w) == {"pair", "violation"} for w in report.witnesses)
        assert [w["violation"] for w in report.witnesses] == pytest.approx(
            [np.sqrt(2)] * len(report.witnesses), abs=1e-12)

    @pytest.mark.parametrize("swap", [False, True], ids=["det_criterion", "factor_local"])
    def test_agreement_fails_when_either_decider_swaps_its_kinds(self, swap, monkeypatch):
        # each representative is then witnessed, with both verdicts
        flipped = {"local": "local_flip", "local_flip": "local"}
        if swap:
            real = bell.factor_local
            monkeypatch.setattr(bell, "factor_local",
                                lambda u: replace(real(u), kind=flipped[real(u).kind]))
        else:
            real = bell.det_criterion
            monkeypatch.setattr(bell, "det_criterion", lambda u, tol: flipped[real(u, tol)])
        report = check_det_criterion_agreement()
        assert (report.passed, report.max_violation) == (False, 1.0)
        assert [w["input"] for w in report.witnesses] == ["identity", "flip"]
        wrong = "factor_verdict" if swap else "det_verdict"
        assert [w[wrong] for w in report.witnesses] == ["local_flip", "local"]

    def test_agreement_gates_no_chunk(self, monkeypatch):
        # det_criterion and factor_local gate their own input; the exact check hands them its
        # two representatives, I and F, and no stack of draws
        gated = []
        real_gate = factorize._require_unitary
        for module in (factorize, bell):
            monkeypatch.setattr(module, "_require_unitary",
                                lambda u, tol: gated.append(u) or real_gate(u, tol))
        assert check_det_criterion_agreement(trials=300, seed=0)
        assert len(gated) == 4 and all(u.shape == (4, 4) for u in gated)
        assert sum(np.array_equal(u, np.eye(4)) for u in gated) == 2
        assert sum(np.array_equal(u, flip_operator(2)) for u in gated) == 2
        assert det_criterion(CNOT) == "not_real_in_bell" and len(gated) == 5

    def test_sampled_agreement_over_both_cosets(self):
        # 2,000 Haar O(4) draws, half in each coset: the public deciders never disagree
        report = sampled_det_agreement(2000, 7)
        assert report.passed and report.max_violation == 0.0 and report.trials == 2000

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
