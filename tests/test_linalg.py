"""Tests for the linear algebra substrate."""

import numpy as np
import pytest

from entbasis import (
    SIGMA1,
    SIGMA2,
    SIGMA3,
    StateVector,
    bell_matrix,
    dagger,
    flip_operator,
    haar_special_unitary,
    haar_unitary,
    random_orthogonal,
    schmidt,
    tensor,
)
from entbasis import linalg


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


# ---- the closed-form samplers at d = 2 (n = 4) against the QR path ----------

DRAWS = 20_000
# about five standard errors of a mean over DRAWS draws: each moment below has
# variance at most 3 under Haar, so a correct sampler stays inside at these seeds
MOMENT_BOUND = 5 * np.sqrt(3 / DRAWS)
# two-sample Kolmogorov-Smirnov critical value at the 1 % level for two samples
# of DRAWS: c(0.01) sqrt(2 / DRAWS), with c(a) = sqrt(-ln(a / 2) / 2)
KS_CRITICAL = np.sqrt(-np.log(0.01 / 2) / 2) * np.sqrt(2 / DRAWS)


def ks_statistic(x, y):
    """sup |F_x - F_y| of the two empirical distribution functions."""
    x, y = np.sort(x), np.sort(y)
    grid = np.concatenate([x, y])
    fx = np.searchsorted(x, grid, side="right") / len(x)
    fy = np.searchsorted(y, grid, side="right") / len(y)
    return np.abs(fx - fy).max()


def qr_special_unitary(seed, count):
    u = linalg._qr_haar(2, seed, count)
    return u / np.sqrt(np.linalg.det(u))[:, None, None]


def qr_orthogonal(seed, count, special):
    o = linalg._qr_haar(4, seed, count, real=True)
    if special:
        o[np.linalg.det(o) < 0, :, 0] *= -1.0
    return o


TWO_QUBIT = {
    "su2": lambda seed, count=None: haar_special_unitary(2, seed, count),
    "u2": lambda seed, count=None: haar_unitary(2, seed, count),
    "so4": lambda seed, count=None: random_orthogonal(4, seed, True, count),
    "o4": lambda seed, count=None: random_orthogonal(4, seed, False, count),
}


class TestTwoQubitSamplers:
    @pytest.mark.parametrize("name", sorted(TWO_QUBIT))
    def test_exactly_unitary_with_its_determinant(self, name):
        sampler = TWO_QUBIT[name]
        for x in (sampler(3, 500), sampler(4)[None]):
            n = x.shape[-1]
            assert x.dtype == (float if name in ("so4", "o4") else complex)
            gram = np.swapaxes(x.conj(), -1, -2) @ x
            assert np.abs(gram - np.eye(n)).max() < 1e-14
            dets = np.linalg.det(x)
            # SU(2) and SO(4) have determinant 1; U(2) and O(4) one of modulus 1
            target = 1 if name in ("su2", "so4") else dets / np.abs(dets)
            assert np.abs(dets - target).max() < 1e-14

    def test_orthogonal_without_special_takes_both_signs(self):
        dets = np.linalg.det(random_orthogonal(4, 5, count=200))
        assert 60 < (dets < 0).sum() < 140
        singles = [np.linalg.det(random_orthogonal(4, s)) for s in range(40)]
        assert min(singles) < 0 < max(singles)

    @pytest.mark.parametrize("name, seed", [("su2", 21), ("u2", 22), ("so4", 23)])
    def test_trace_moments(self, name, seed):
        tr = np.trace(TWO_QUBIT[name](seed, DRAWS), axis1=1, axis2=2)
        assert abs(tr.mean()) < MOMENT_BOUND
        assert abs((np.abs(tr) ** 2).mean() - 1) < MOMENT_BOUND

    @pytest.mark.parametrize("name, oracle", [
        ("su2", lambda seed: qr_special_unitary(seed, DRAWS)),
        ("u2", lambda seed: linalg._qr_haar(2, seed, DRAWS)),
    ])
    def test_unitary_same_law_as_qr(self, name, oracle):
        u, v = TWO_QUBIT[name](31, DRAWS), oracle(32)
        assert ks_statistic(np.trace(u, axis1=1, axis2=2).real,
                            np.trace(v, axis1=1, axis2=2).real) < KS_CRITICAL
        assert ks_statistic(np.abs(u[:, 0, 0]), np.abs(v[:, 0, 0])) < KS_CRITICAL
        if name == "u2":
            # neither statistic above sees the phase range: det U is uniform on the circle
            assert ks_statistic(np.angle(np.linalg.det(u)), np.angle(np.linalg.det(v))) \
                < KS_CRITICAL

    @pytest.mark.parametrize("special", [True, False])
    def test_orthogonal_same_law_as_qr(self, special):
        o, w = random_orthogonal(4, 33, special, DRAWS), qr_orthogonal(34, DRAWS, special)
        assert ks_statistic(o[:, 0, 0], w[:, 0, 0]) < KS_CRITICAL
        assert ks_statistic(np.trace(o, axis1=1, axis2=2), np.trace(w, axis1=1, axis2=2)) \
            < KS_CRITICAL

    def test_ks_tells_su2_from_u2(self):
        # the statistic has the power to see a missing phase: Re tr of SU(2) against U(2)
        u, v = haar_special_unitary(2, 35, DRAWS), haar_unitary(2, 36, DRAWS)
        assert ks_statistic(np.trace(u, axis1=1, axis2=2).real,
                            np.trace(v, axis1=1, axis2=2).real) > 5 * KS_CRITICAL

    def test_zero_on_the_r_diagonal_keeps_the_orthogonal_column(self, monkeypatch):
        # measure zero for a Gaussian matrix, but the sign fix must not make it NaN
        r = np.diag([0.0, -0.0, 2.0, -3.0])
        monkeypatch.setattr(np.linalg, "qr", lambda z: (np.eye(4), r))
        assert np.array_equal(linalg._qr_haar(4, 0, real=True), np.diag([1.0, -1.0, 1.0, -1.0]))

    def test_other_sizes_take_the_qr_path(self):
        for d in (1, 3, 4):
            assert haar_unitary(d, 7, 3).tobytes() == linalg._qr_haar(d, 7, 3).tobytes()
        for n in (1, 2, 3, 5):
            assert random_orthogonal(n, 8, count=3).tobytes() \
                == linalg._qr_haar(n, 8, 3, real=True).tobytes()


# ---- Gram-Schmidt on the whole stack against the QR of the same draws ---------

# the orders and counts that linalg._haar sends to Gram-Schmidt: every other draw is the QR's
GS_ORDERS = {True: range(3, 10), False: range(3, 6)}
GS_BOUNDARY = 64


def no_qr(*args, **kwargs):
    raise AssertionError("the Gram-Schmidt path ran a QR")


def unitarity_by_matmul(u):
    return np.linalg.norm(np.swapaxes(u.conj(), -1, -2) @ u - np.eye(u.shape[-1]), axis=(-2, -1))


class TestGramSchmidtSampler:
    @pytest.mark.parametrize("count", [7, GS_BOUNDARY - 1, GS_BOUNDARY, 1000])
    @pytest.mark.parametrize("d, real", [(d, real) for real in (True, False) for d in range(3, 11)],
                             ids=["d%d-%s" % (d, "real" if real else "complex")
                                  for real in (True, False) for d in range(3, 11)])
    def test_same_q_as_the_qr(self, d, real, count, monkeypatch):
        want = linalg._qr_haar(d, count, count, real)
        if d not in GS_ORDERS[real] or count < GS_BOUNDARY:
            assert linalg._haar(d, count, count, real).tobytes() == want.tobytes()
            return
        monkeypatch.setattr(np.linalg, "qr", no_qr)
        got = linalg._haar(d, count, count, real)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13

    def test_unitary_to_rounding_over_1e5_draws(self):
        worst = max(unitarity_by_matmul(haar_unitary(3, seed, 1000)).max() for seed in range(100))
        assert worst <= 1e-13

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_collapsed_column_takes_the_qr(self, real, monkeypatch):
        # measure zero for Gaussian draws: every third trial gets two equal columns
        draw = linalg._gaussian

        def equal_columns(d, seed, count, real):
            z = draw(d, seed, count, real)
            z[::3, :, 1] = z[::3, :, 0]
            return z

        monkeypatch.setattr(linalg, "_gaussian", equal_columns)
        z = equal_columns(3, 5, 100, real)
        got = linalg._haar(3, 5, 100, real)
        assert not np.isnan(got).any()
        assert unitarity_by_matmul(got).max() <= 1e-13
        assert got[::3].tobytes() == linalg._qr(z[::3], real).tobytes()
        rest = np.arange(100) % 3 != 0
        assert np.abs(got[rest] - linalg._qr(z[rest], real)).max() <= 1e-13


@pytest.mark.parametrize("count", [None, 101, 910], ids=["2-D", "101", "910"])
@pytest.mark.parametrize("d", [2, 3, 5])
def test_gaussian_draws_equal_the_textbook_expression(d, count):
    # the complex draw is written in place, with the bits of (z + 1j w) / sqrt(2)
    shape = (d, d) if count is None else (count, d, d)
    rng = np.random.default_rng(4)
    z, w = rng.standard_normal(shape), rng.standard_normal(shape)
    real, complex_ = linalg._gaussian(d, 4, count, True), linalg._gaussian(d, 4, count, False)
    assert real.dtype == float and real.tobytes() == z.tobytes()
    want = (z + 1j * w) / np.sqrt(2)
    assert complex_.dtype == want.dtype and complex_.shape == want.shape
    assert complex_.tobytes() == want.tobytes()


class TestSmallKernels:
    """linalg._det and linalg._mul against LAPACK and the matmul."""

    @staticmethod
    def stack(rng, n, count, real):
        shape = (n, n) if count is None else (count, n, n)
        return rng.standard_normal(shape) if real else rand_complex(rng, shape)

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    @pytest.mark.parametrize("count", [None, 1, 7, 1000], ids=["2-D", "1", "7", "1000"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_det_matches_lapack(self, n, count, real):
        x = self.stack(np.random.default_rng(n), n, count, real)
        got, want = linalg._det(x), np.linalg.det(x)
        assert np.shape(got) == np.shape(want) and np.result_type(got) == np.result_type(want)
        # relative to Hadamard's bound, the product of the row norms, which bounds |det|
        scale = np.prod(np.linalg.norm(x, axis=-1), axis=-1)
        assert np.all(np.abs(got - want) <= 1e-13 * scale)
        u = linalg._qr_haar(n, n, count, real)  # |det| = 1
        assert np.all(np.abs(linalg._det(u) - np.linalg.det(u)) <= 1e-13)

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    @pytest.mark.parametrize("count", [None, 1, 7, 1000], ids=["2-D", "1", "7", "1000"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 9])
    def test_mul_matches_matmul(self, n, count, real):
        rng = np.random.default_rng(n)
        x, y = self.stack(rng, n, count, real), self.stack(rng, n, count, real)
        # U^dag X in the unitarity residual, U A U^T in the universality check
        for left, right in ((x, y), (np.swapaxes(x.conj(), -1, -2), y), (x, np.swapaxes(y, -1, -2))):
            got, want = linalg._mul(left, right), left @ right
            assert got.shape == want.shape and got.dtype == want.dtype
            bound = (1e-15 * np.linalg.norm(left, axis=(-2, -1))
                     * np.linalg.norm(right, axis=(-2, -1)))
            assert np.all(np.linalg.norm(got - want, axis=(-2, -1)) <= bound)


class TestSandwich:
    """linalg._sandwich against the stacked matmul it replaces."""

    @staticmethod
    def operands(rng, m, count, real):
        shape = (m, m) if count is None else (count, m, m)
        x = rng.standard_normal(shape) if real else rand_complex(rng, shape)
        return rand_complex(rng, (m + 1, m)), x, rand_complex(rng, (m, m - 1))

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    @pytest.mark.parametrize("count", [None, 1, 7, 1000], ids=["2-D", "1", "7", "1000"])
    @pytest.mark.parametrize("m", [2, 3, 4, 9])
    def test_matches_stacked_matmul(self, m, count, real):
        left, x, right = self.operands(np.random.default_rng(m), m, count, real)
        for view in (x, x.swapaxes(-1, -2)):
            want = left @ view @ right
            got = linalg._sandwich(left, view, right)
            assert got.shape == want.shape
            assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)

    @pytest.mark.parametrize("count", [None, 1, 7, 1000], ids=["2-D", "1", "7", "1000"])
    def test_bell_frame_bit_identical(self, count):
        # the d=2 checks' reports are byte-identical to those of left @ x @ right
        b = bell_matrix()
        rng = np.random.default_rng(5)
        u = np.kron(haar_special_unitary(2, rng), haar_special_unitary(2, rng))
        if count is not None:
            v1, v2 = (haar_special_unitary(2, rng, count) for _ in range(2))
            u = np.einsum("tij,tkl->tikjl", v1, v2).reshape(count, 4, 4)
        o = random_orthogonal(4, rng, count=count)
        for left, x, right in ((b.conj().T, u, b), (b, o, b.conj().T), (b.conj().T, o, b)):
            assert linalg._sandwich(left, x, right).tobytes() == (left @ x @ right).tobytes()
