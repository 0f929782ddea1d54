"""Tests for the linear algebra substrate."""

import numpy as np
import pytest

from entbasis import (
    SIGMA1,
    SIGMA2,
    SIGMA3,
    StateVector,
    dagger,
    flip_operator,
    haar_special_unitary,
    haar_unitary,
    random_orthogonal,
    schmidt,
    tensor,
)


def rand_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestTensor:
    def test_identity(self):
        assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_sigma1_sigma3_hand_expansion(self):
        # block convention: sigma1 places +-sigma3 blocks off the diagonal
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 2] = 1
        expected[1, 3] = -1
        expected[2, 0] = 1
        expected[3, 1] = -1
        assert np.array_equal(tensor(SIGMA1, SIGMA3), expected)

    def test_basis_columns(self):
        e0 = np.array([[1.0], [0.0]])
        e1 = np.array([[0.0], [1.0]])
        out = tensor(e0, e1)
        assert out.shape == (4, 1)
        assert np.array_equal(out.reshape(-1), [0.0, 1.0, 0.0, 0.0])

    def test_associative_exact_on_integer_entries(self):
        rng = np.random.default_rng(7)
        a, b, c = (rng.integers(-3, 4, size=(2, 2)) for _ in range(3))
        assert np.array_equal(tensor(tensor(a, b), c), tensor(a, tensor(b, c)))

    def test_associative_random(self):
        rng = np.random.default_rng(8)
        a, b, c = (rand_complex(rng, (2, 3)) for _ in range(3))
        # float products regroup, so allow a rounding step
        assert np.allclose(tensor(tensor(a, b), c), tensor(a, tensor(b, c)),
                           rtol=1e-14, atol=0)


def test_dagger_involution():
    rng = np.random.default_rng(0)
    a = rand_complex(rng, (3, 5))
    assert np.array_equal(dagger(dagger(a)), a)


class TestStateVector:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            StateVector(2, 2, np.zeros(3))

    def test_norm(self):
        v = StateVector(1, 2, np.array([3.0, 4.0]))
        assert v.norm == 5.0

    def test_reshaped_index_convention(self):
        v = StateVector(2, 3, np.arange(6.0))
        assert np.array_equal(v.reshaped(), [[0, 1, 2], [3, 4, 5]])


class TestSchmidt:
    def test_omega_coefficients(self):
        amps = np.zeros(4, dtype=complex)
        amps[0] = amps[3] = 1 / np.sqrt(2)
        dec = schmidt(StateVector(2, 2, amps))
        assert np.allclose(dec.coefficients, [1 / np.sqrt(2)] * 2)

    def test_product_vector_rank_one(self):
        rng = np.random.default_rng(1)
        phi = rand_complex(rng, 3)
        psi = rand_complex(rng, 3)
        amps = np.kron(phi, psi)
        amps /= np.linalg.norm(amps)
        dec = schmidt(StateVector(3, 3, amps))
        assert dec.coefficients[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(dec.coefficients[1:] < 1e-12)

    def test_coefficients_match_reshape_singular_values(self):
        rng = np.random.default_rng(2)
        amps = rand_complex(rng, 9)
        amps /= np.linalg.norm(amps)
        dec = schmidt(StateVector(3, 3, amps))
        oracle = np.linalg.svd(amps.reshape(3, 3), compute_uv=False)
        assert np.allclose(dec.coefficients, oracle, atol=1e-12)

    def test_reconstruction_and_orthonormal_bases(self):
        rng = np.random.default_rng(3)
        amps = rand_complex(rng, 12)
        v = StateVector(3, 4, amps)
        dec = schmidt(v)
        assert np.allclose(dec.reconstruct(), amps, atol=1e-12)
        gl = dec.left_basis @ dec.left_basis.conj().T
        gr = dec.right_basis @ dec.right_basis.conj().T
        assert np.allclose(gl, np.eye(3), atol=1e-12)
        assert np.allclose(gr, np.eye(3), atol=1e-12)

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(4)
        amps = rand_complex(rng, 16)
        amps /= np.linalg.norm(amps)
        u = haar_unitary(4, rng)
        w = haar_unitary(4, rng)
        before = schmidt(StateVector(4, 4, amps)).coefficients
        after = schmidt(StateVector(4, 4, tensor(u, w) @ amps)).coefficients
        assert np.allclose(np.sort(before), np.sort(after), atol=1e-10)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            schmidt(StateVector(2, 2, np.zeros(4)))

    def test_norm_identity(self):
        rng = np.random.default_rng(5)
        amps = rand_complex(rng, 6)
        dec = schmidt(StateVector(2, 3, amps))
        assert np.sum(dec.coefficients**2) == pytest.approx(
            np.linalg.norm(amps) ** 2, rel=1e-12
        )


def test_svd_backend_reconstruction():
    rng = np.random.default_rng(6)
    a = rand_complex(rng, (4, 4))
    u, s, vh = np.linalg.svd(a)
    assert np.linalg.norm(u @ np.diag(s) @ vh - a) < 1e-12
    assert np.all(np.diff(s) <= 0)


class TestFlip:
    def test_swaps_product_vectors(self):
        rng = np.random.default_rng(7)
        for d in (2, 3, 4):
            phi = rand_complex(rng, d)
            psi = rand_complex(rng, d)
            f = flip_operator(d)
            assert np.allclose(f @ np.kron(phi, psi), np.kron(psi, phi), atol=1e-14)

    def test_involution_exact(self):
        for d in (2, 3, 5):
            f = flip_operator(d)
            assert np.array_equal(f @ f, np.eye(d * d))

    def test_built_by_index_equals_the_loop(self):
        for d in range(1, 6):
            f = np.zeros((d * d, d * d), dtype=complex)
            for i in range(d):
                for j in range(d):
                    f[i * d + j, j * d + i] = 1.0
            assert flip_operator(d).tobytes() == f.tobytes()

    def test_determinant_two_qubits(self):
        # the -1 eigenspace is the one antisymmetric direction
        assert np.linalg.det(flip_operator(2).real) == pytest.approx(-1.0)


class TestHaar:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
    def test_unitarity(self, d):
        u = haar_unitary(d, seed=d)
        assert np.linalg.norm(u.conj().T @ u - np.eye(d)) < 1e-12

    def test_seed_reproducibility(self):
        assert np.array_equal(haar_unitary(5, seed=9), haar_unitary(5, seed=9))

    def test_d1_unit_modulus(self):
        u = haar_unitary(1, seed=3)
        assert abs(abs(u[0, 0]) - 1) < 1e-14

    def test_special_unitary_determinant(self):
        for seed in range(5):
            u = haar_special_unitary(4, seed)
            assert abs(np.linalg.det(u) - 1) < 1e-12

    def test_trace_moment(self):
        # Haar first moment of |tr U|^2 is 1; catches the missing
        # R-phase correction, which biases the distribution
        rng = np.random.default_rng(10)
        vals = [abs(np.trace(haar_unitary(3, rng))) ** 2 for _ in range(400)]
        assert abs(np.mean(vals) - 1.0) < 0.3

    def test_accepts_generator(self):
        rng = np.random.default_rng(11)
        u1 = haar_unitary(2, rng)
        u2 = haar_unitary(2, rng)
        assert not np.allclose(u1, u2)


class TestRandomOrthogonal:
    def test_orthogonality(self):
        for seed in range(4):
            o = random_orthogonal(5, seed)
            assert np.linalg.norm(o.T @ o - np.eye(5)) < 1e-12
            assert np.abs(o.imag).max() == 0 if np.iscomplexobj(o) else True

    def test_special_determinant(self):
        for seed in range(10):
            o = random_orthogonal(4, seed, special=True)
            assert np.linalg.det(o) == pytest.approx(1.0, abs=1e-10)

    def test_both_signs_without_special(self):
        dets = [np.linalg.det(random_orthogonal(3, s)) for s in range(20)]
        assert any(d < 0 for d in dets) and any(d > 0 for d in dets)
