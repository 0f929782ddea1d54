"""Tests for the vector-operator correspondence and entangled bases."""

import numpy as np
import pytest

from entbasis import (
    EntangledBasis,
    SIGMA1,
    SIGMA2,
    StateVector,
    basis_matrix,
    cyclic_latin_square,
    fourier_basis,
    fourier_hadamard,
    haar_unitary,
    is_max_entangled,
    omega,
    operator_from_vector,
    reduced_density,
    schmidt,
    shift_multiply_basis,
    sylvester_hadamard,
    tensor,
    vector_from_operator,
    verify_unitary_basis,
)


def rand_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestOmega:
    def test_d2_amplitudes(self):
        v = omega(2)
        s = 1 / np.sqrt(2)
        assert np.array_equal(v.amplitudes, [s, 0, 0, s])

    def test_d1(self):
        assert np.array_equal(omega(1).amplitudes, [1.0])

    def test_reductions_maximally_mixed(self):
        for side in ("left", "right"):
            rho = reduced_density(omega(3), side)
            assert np.allclose(rho, np.eye(3) / 3, atol=1e-14)


class TestCorrespondence:
    def test_identity_gives_omega(self):
        v = vector_from_operator(np.eye(2))
        assert np.array_equal(v.amplitudes, omega(2).amplitudes)

    def test_i_sigma1_gives_first_bell_vector(self):
        v = vector_from_operator(1j * SIGMA1)
        s = 1j / np.sqrt(2)
        assert np.allclose(v.amplitudes, [0, s, s, 0], atol=1e-15)

    def test_omega_maps_back_to_identity(self):
        for d in (2, 3, 5):
            assert np.allclose(operator_from_vector(omega(d)), np.eye(d), atol=1e-15)

    def test_second_bell_vector_maps_to_i_sigma2(self):
        s = 1 / np.sqrt(2)
        v = StateVector(2, 2, np.array([0, s, -s, 0], dtype=complex))
        assert np.allclose(operator_from_vector(v), 1j * SIGMA2, atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
    def test_round_trip_operator(self, d):
        rng = np.random.default_rng(d)
        x = rand_complex(rng, (d, d))
        back = operator_from_vector(vector_from_operator(x))
        # dividing and multiplying by sqrt(d) costs at most one rounding
        # step per entry, bit-exact only when sqrt(d) is a power of two
        assert np.allclose(back, x, rtol=1e-14, atol=0)
        if d == 4:
            assert np.array_equal(back, x)

    def test_round_trip_vector(self):
        rng = np.random.default_rng(9)
        amps = rand_complex(rng, 9)
        v = StateVector(3, 3, amps)
        again = vector_from_operator(operator_from_vector(v))
        assert np.allclose(again.amplitudes, amps, rtol=1e-14, atol=0)

    def test_inner_product_law(self):
        # <Phi,Psi> and (1/d) tr(X^dag Y) computed along independent paths
        rng = np.random.default_rng(10)
        for d in (2, 3, 4, 5, 6):
            x = rand_complex(rng, (d, d))
            y = rand_complex(rng, (d, d))
            lhs = np.vdot(vector_from_operator(x).amplitudes,
                          vector_from_operator(y).amplitudes)
            rhs = np.trace(x.conj().T @ y) / d
            assert abs(lhs - rhs) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_transpose_identity(self, d):
        rng = np.random.default_rng(d + 20)
        x = rand_complex(rng, (d, d))
        lhs = tensor(x, np.eye(d)) @ omega(d).amplitudes
        rhs = tensor(np.eye(d), x.T) @ omega(d).amplitudes
        assert np.linalg.norm(lhs - rhs) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_omega_invariant_under_u_conj_u(self, d):
        rng = np.random.default_rng(d + 40)
        u = haar_unitary(d, rng)
        moved = tensor(u, u.conj()) @ omega(d).amplitudes
        assert np.linalg.norm(moved - omega(d).amplitudes) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            vector_from_operator(np.eye(2), d=3)
        with pytest.raises(ValueError):
            vector_from_operator(np.ones((2, 3)))
        with pytest.raises(ValueError):
            operator_from_vector(StateVector(2, 3, np.zeros(6)))


class TestReducedDensity:
    def test_product_vector(self):
        rng = np.random.default_rng(11)
        phi = rand_complex(rng, 3)
        phi /= np.linalg.norm(phi)
        psi = rand_complex(rng, 3)
        psi /= np.linalg.norm(psi)
        v = StateVector(3, 3, np.kron(phi, psi))
        assert np.allclose(reduced_density(v, "left"), np.outer(phi, phi.conj()),
                           atol=1e-12)
        assert np.allclose(reduced_density(v, "right"), np.outer(psi, psi.conj()),
                           atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_operator_formulas_match_partial_trace(self, d):
        # left reduction is (1/d) X X^dag, right is (1/d) X^T conj(X)
        rng = np.random.default_rng(d + 60)
        x = rand_complex(rng, (d, d))
        v = vector_from_operator(x)
        x = x / v.norm
        v = StateVector(d, d, v.amplitudes / v.norm)
        assert np.allclose(reduced_density(v, "left"), x @ x.conj().T / d, atol=1e-12)
        assert np.allclose(reduced_density(v, "right"), x.T @ x.conj() / d, atol=1e-12)

    def test_trace_one_and_hermitian(self):
        rng = np.random.default_rng(12)
        amps = rand_complex(rng, 8)
        amps /= np.linalg.norm(amps)
        v = StateVector(2, 4, amps)
        for side in ("left", "right"):
            rho = reduced_density(v, side)
            assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(rho, rho.conj().T, atol=1e-12)
            assert np.linalg.eigvalsh(rho).min() > -1e-12

    def test_requires_unit_norm(self):
        with pytest.raises(ValueError, match="unit vector"):
            reduced_density(StateVector(2, 2, np.array([1.0, 0, 0, 1.0])), "left")

    def test_unknown_side(self):
        with pytest.raises(ValueError, match="side"):
            reduced_density(omega(2), "middle")


class TestIsMaxEntangled:
    def test_omega_passes(self):
        assert is_max_entangled(omega(5))

    def test_product_fails(self):
        v = StateVector(2, 2, np.array([1.0, 0, 0, 0], dtype=complex))
        report = is_max_entangled(v)
        assert not report
        assert report.max_violation > 0.5

    def test_local_unitaries_preserve(self):
        rng = np.random.default_rng(13)
        for d in (2, 3, 4):
            u = haar_unitary(d, rng)
            w = haar_unitary(d, rng)
            v = StateVector(d, d, tensor(u, w) @ omega(d).amplitudes)
            report = is_max_entangled(v)
            assert report
            # Schmidt oracle: all coefficients 1/sqrt(d)
            assert np.allclose(schmidt(v).coefficients, 1 / np.sqrt(d), atol=1e-10)


class TestShiftMultiply:
    def test_d2_explicit_enumeration(self):
        basis = fourier_basis(2)
        s1s3 = np.array([[0, -1], [1, 0]], dtype=complex)  # sigma1 @ sigma3
        expected = [np.eye(2), SIGMA1.astype(complex),
                    np.array([[1, 0], [0, -1]], dtype=complex), s1s3]
        for got, want in zip(basis.ops, expected):
            assert np.allclose(got, want, atol=1e-12)

    def test_d1_single_operator(self):
        basis = fourier_basis(1)
        assert len(basis.ops) == 1
        assert np.allclose(basis.ops[0], [[1.0]])

    def test_d3_pairwise_trace_table(self):
        basis = fourier_basis(3)
        for a, x in enumerate(basis.ops):
            for b, y in enumerate(basis.ops):
                val = np.trace(x.conj().T @ y) / 3
                assert abs(val - (1.0 if a == b else 0.0)) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_fourier_grid_verifies(self, d):
        basis = fourier_basis(d)
        assert verify_unitary_basis(basis, tol=1e-10)
        for v in basis.vectors:
            assert is_max_entangled(v, tol=1e-10)

    @pytest.mark.parametrize("d", [2, 4])
    def test_sylvester_hadamards_verify(self, d):
        basis = shift_multiply_basis([sylvester_hadamard(d)] * d, cyclic_latin_square(d))
        assert verify_unitary_basis(basis, tol=1e-10)

    def test_mixed_hadamards_and_permuted_square(self):
        # different Hadamard per column and a shuffled Latin square
        rng = np.random.default_rng(14)
        d = 4
        hs = []
        for j in range(d):
            # random unimodular row/column rescalings keep Hadamard structure
            h = fourier_hadamard(d)
            phases_r = np.exp(2j * np.pi * rng.random(d))
            phases_c = np.exp(2j * np.pi * rng.random(d))
            hs.append(phases_r[:, None] * h * phases_c[None, :])
        tau = cyclic_latin_square(d)[rng.permutation(d)][:, rng.permutation(d)]
        basis = shift_multiply_basis(hs, tau)
        assert verify_unitary_basis(basis, tol=1e-10)
        vb = EntangledBasis.from_unitary_basis(basis)
        for v in vb.vectors:
            assert is_max_entangled(v, tol=1e-10)

    def test_duplicate_operator_detected(self):
        good = fourier_basis(2)
        bad = EntangledBasis(2, (good.ops[0], good.ops[0], good.ops[2], good.ops[3]))
        report = verify_unitary_basis(bad)
        assert not report
        assert report.witnesses[0]["pair"] == [0, 1]

    def test_wrong_operator_count(self):
        with pytest.raises(ValueError):
            EntangledBasis(2, (np.eye(2),) * 3)

    def test_invalid_hadamard_rejected(self):
        with pytest.raises(ValueError, match="Hadamard"):
            shift_multiply_basis([np.eye(2)] * 2, cyclic_latin_square(2))

    def test_invalid_latin_square_rejected(self):
        h = fourier_hadamard(2)
        with pytest.raises(ValueError, match="Latin"):
            shift_multiply_basis([h, h], np.array([[0, 1], [0, 1]]))

    def test_order_mismatch_rejected(self):
        h = fourier_hadamard(3)
        with pytest.raises(ValueError):
            shift_multiply_basis([h, h], cyclic_latin_square(2))


def test_entangled_basis_wrong_count():
    with pytest.raises(ValueError):
        EntangledBasis.from_vectors(2, (omega(2),) * 3)


def _mixed_hadamard_basis(d=4, seed=14):
    rng = np.random.default_rng(seed)
    hs = []
    for _ in range(d):
        h = fourier_hadamard(d)
        hs.append(np.exp(2j * np.pi * rng.random(d))[:, None] * h
                  * np.exp(2j * np.pi * rng.random(d))[None, :])
    tau = cyclic_latin_square(d)[rng.permutation(d)][:, rng.permutation(d)]
    return shift_multiply_basis(hs, tau)


def _duplicated_basis():
    ops = fourier_basis(2).ops
    return EntangledBasis(2, ops[[0, 0, 2, 3]])


def _rescaled_basis():
    ops = fourier_basis(3).ops.copy()
    ops[4] *= 1.5
    return EntangledBasis(3, ops)


PARITY_BASES = (
    [pytest.param(lambda d=d: fourier_basis(d), id="fourier%d" % d) for d in range(2, 9)]
    + [
        pytest.param(lambda: shift_multiply_basis([sylvester_hadamard(4)] * 4,
                                                  cyclic_latin_square(4)), id="sylvester4"),
        pytest.param(_mixed_hadamard_basis, id="mixed4"),
        pytest.param(_duplicated_basis, id="duplicated2"),
        pytest.param(_rescaled_basis, id="rescaled3"),
    ]
)


@pytest.mark.parametrize("make", PARITY_BASES)
def test_verify_matches_dense_vector_oracle(make):
    # the vector side of the correspondence: Gram of the amplitude matrix and
    # maximal entanglement of each vector, one Schmidt-free check at a time
    basis = make()
    tol = 1e-10
    b = basis_matrix(basis)
    dev = np.abs(b.conj().T @ b - np.eye(b.shape[1]))
    ent = [is_max_entangled(v, tol) for v in basis.vectors]
    worst_ent = max(r.max_violation for r in ent)
    bad = [a for a, r in enumerate(ent) if not r]
    if bad:
        pair = [bad[0], bad[0]]
    elif dev.max() >= tol:
        pair = [int(i) for i in np.unravel_index(int(dev.argmax()), dev.shape)]
    else:
        pair = None

    report = verify_unitary_basis(basis, tol)
    assert abs(report.details["max_unitarity_residual"] - worst_ent) < 1e-14
    assert abs(report.details["max_orthonormality_residual"] - dev.max()) < 1e-14
    assert report.passed == (worst_ent < tol and dev.max() < tol)
    assert (report.witnesses[0]["pair"] if report.witnesses else None) == pair
