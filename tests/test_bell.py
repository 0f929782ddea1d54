"""Tests for the d=2 structure: Bell basis, antilinear operators,
canonicalization, the five basis conditions, and the determinant criterion."""

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
    check_preserves_max_entangled,
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
from entbasis import bell, factorize, reports
from entbasis.reports import INPUT_TOL, MAX_WITNESSES, chunk_size

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


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
        # O is Haar on O(4): at d=2 both answers of the property, local and local-flip, are seen
        kinds, real_kinds = [], bell._local_kinds
        monkeypatch.setattr(bell, "_local_kinds", lambda u: kinds.append(real_kinds(u)) or kinds[-1])
        report = check_bell_condition(bell_basis(), 3, trials=2000, seed=0)
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
        # conditions 2, 5 and 6 alike draw nothing: any trial count or seed, a Generator
        # included, gives one report, which says trials 0
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        for basis in (bell_basis(), fourier_basis(3)):
            for cond in (2, 5, 6):
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


@pytest.mark.parametrize("run, drawn", [
    # conditions 2, 5 and 6 are decided exactly: nothing to draw
    *[(_cond(c), 2000 if c in (3, 4) else 0) for c in (2, 3, 4, 5)],
    (_cond(6), 0),
    (lambda tol: check_universality(theta2(), trials=2000, tol=tol), 2000),
    (lambda tol: check_universality(theta2(), trials=2000, tol=tol, phase="best"), 2000),
    (lambda tol: check_det_criterion_agreement(trials=2000, tol=tol), 2000),
    (lambda tol: check_preserves_max_entangled(CNOT, trials=2000, tol=tol), 2000),
    (lambda tol: universality_search(dim=3, candidates=20, trials=100, threshold=tol), 20 * 100),
], ids=["bell-2", "bell-3", "bell-4", "bell-5", "bell-6", "universality", "universality-best",
        "det-criterion", "preserves", "search"])
def test_meaningless_tolerance_refused_before_the_first_draw(run, drawn, monkeypatch):
    draws = []

    def counting_engine(trials, seed, tol, draw, measure, per_trial):
        def counted(rng, idx):
            draws.append(len(idx))
            return draw(rng, idx)
        return reports.sample_violations(trials, seed, tol, counted, measure, per_trial)

    monkeypatch.setattr(bell, "sample_violations", counting_engine)
    monkeypatch.setattr(factorize, "sample_violations", counting_engine)
    made = []  # Generators built, so a draw outside the engine (the search's candidates) counts
    real_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *seed: made.append(seed) or real_rng(*seed))
    for tol in (float("nan"), 0.0, -1.0, float("inf")):
        with pytest.raises(ValueError, match="tolerance"):
            run(tol)
    assert draws == [] and made == []
    run(1e-10)  # with a tolerance that means something, the same check draws every trial
    assert sum(draws) == drawn


def test_condition_3_fails_when_it_finds_violations():
    # each non-factorizable trial is a witness, whatever the fraction is compared against
    report = check_bell_condition(fourier_basis(3), 3, trials=50, seed=0, tol=1.5)
    assert report.witnesses and report.max_violation < 1.5
    assert not report.passed
    assert report.verdict == "violation witnessed"


class TestCondition3BasisGate:
    def test_basis_gated_once_per_call(self, monkeypatch):
        # U = B O B^dag is unitary exactly when B is: one residual for the call, none per chunk
        gated, chunks = [], []
        real_residual, real_kinds = bell.unitarity_residual, bell._local_kinds
        for module in (bell, factorize):
            monkeypatch.setattr(module, "unitarity_residual",
                                lambda x: gated.append(x.shape) or real_residual(x))
        monkeypatch.setattr(bell, "_local_kinds", lambda u: chunks.append(len(u)) or real_kinds(u))
        report = check_bell_condition(fourier_basis(3), 3, trials=1000, seed=0)
        assert report.max_violation == 1.0
        assert chunks == [chunk_size(81)] * 9 + [1000 - 9 * chunk_size(81)]
        assert gated == [(9, 9)]

    @pytest.mark.parametrize("d", [2, 3])
    def test_product_basis_gets_finite_verdicts(self, d):
        # B is the identity while no operator sqrt(d) E_ij is unitary: the gate is on B alone
        basis = EntangledBasis(d, np.sqrt(d) * np.eye(d * d).reshape(d * d, d, d))
        assert np.array_equal(basis_matrix(basis), np.eye(d * d))
        assert not verify_unitary_basis(basis)
        report = check_bell_condition(basis, 3, trials=200, seed=0)
        assert 0.5 < report.max_violation <= 1.0 and len(report.witnesses) == MAX_WITNESSES
        for w in report.witnesses:
            assert w["violation"] == 1.0 and 0.0 < w["residual"] < np.inf

    def test_basis_beyond_the_input_tolerance_gives_nan_witnesses(self):
        # scaling the operators by s makes B^dag B = s^2 I, a residual of (s^2 - 1) d
        ops = fourier_basis(3).ops
        basis = EntangledBasis(3, np.sqrt(1 + 10 * INPUT_TOL / 3) * ops)
        assert unitarity_residual(basis_matrix(basis)) == pytest.approx(10 * INPUT_TOL, rel=1e-5)
        report = check_bell_condition(basis, 3, trials=50, seed=0)
        assert np.isnan(report.max_violation) and not report.passed
        assert [w["trial"] for w in report.witnesses] == list(range(MAX_WITNESSES))
        assert all(np.isnan([w["violation"], w["residual"]]).all() for w in report.witnesses)
        # a tenth of the tolerance passes the gate, and the same trials get finite verdicts
        report = check_bell_condition(EntangledBasis(3, np.sqrt(1 + INPUT_TOL / 30) * ops), 3,
                                      trials=50, seed=0)
        assert report.max_violation == 1.0
        assert all(0.0 < w["residual"] < np.inf for w in report.witnesses)


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

    @pytest.mark.parametrize("tol", [1e-10, 1e-3, 0.5])
    def test_agreement_report_as_hand_built(self, tol, monkeypatch):
        # the report passes exactly when no trial disagrees, at every tolerance
        report = check_det_criterion_agreement(trials=40, seed=3, tol=tol)
        assert report == CheckReport("det-criterion-agreement", 40, 0.0, tol, True,
                                     "no violation found")
        real = bell._det_verdicts

        def every_third_wrong(u, tol):
            out = real(u, tol)
            out[::3] = "not_real_in_bell"
            return out

        monkeypatch.setattr(bell, "_det_verdicts", every_third_wrong)
        report = check_det_criterion_agreement(trials=40, seed=3, tol=tol)
        assert (report.passed, report.verdict) == (False, "violation witnessed")
        assert report.max_violation == 14 / 40
        assert [w["trial"] for w in report.witnesses] == list(range(0, 24, 3))

    def test_agreement_gates_no_chunk(self, monkeypatch):
        # det_criterion gates its own input; the sampled check builds each U from the Bell
        # matrix and an orthogonal draw, so no chunk of them is gated
        gated = []
        real_gate = factorize._require_unitary
        for module in (factorize, bell):
            monkeypatch.setattr(module, "_require_unitary",
                                lambda u, tol: gated.append(u) or real_gate(u, tol))
        assert check_det_criterion_agreement(trials=300, seed=0)
        assert gated == []
        assert det_criterion(CNOT) == "not_real_in_bell" and len(gated) == 1

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
