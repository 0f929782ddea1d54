"""Tests for operator-Schmidt decomposition and local factorization."""

import numpy as np
import pytest

from entbasis import (
    SIGMA1,
    SIGMA3,
    factor_local,
    flip_operator,
    haar_unitary,
    operator_schmidt,
    tensor,
)
from test_engine import sampled_preserves, svd_kinds

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def _phase_aligned_distance(a, b):
    # distance up to a global phase, minimized analytically
    z = np.trace(a.conj().T @ b)
    phase = z / abs(z) if abs(z) > 0 else 1.0
    return np.linalg.norm(a * phase - b)


class TestOperatorSchmidt:
    def test_product_is_rank_one_with_coefficient_d(self):
        rng = np.random.default_rng(0)
        for d in (2, 3):
            u = tensor(haar_unitary(d, rng), haar_unitary(d, rng))
            s, _, _ = operator_schmidt(u)
            assert s[0] == pytest.approx(d, abs=1e-12)
            assert s[1] < 1e-12

    def test_flip_coefficients(self):
        s, _, _ = operator_schmidt(flip_operator(2))
        assert np.allclose(s, [1, 1, 1, 1], atol=1e-12)

    def test_cnot_rank_two(self):
        s, _, _ = operator_schmidt(CNOT)
        assert s[1] > 0.5
        assert s[2] < 1e-12

    def test_reconstruction_and_orthonormal_factors(self):
        rng = np.random.default_rng(1)
        u = haar_unitary(9, rng)
        s, left, right = operator_schmidt(u)
        rebuilt = sum(si * tensor(a, b) for si, a, b in zip(s, left, right))
        assert np.linalg.norm(rebuilt - u) < 1e-12
        for ops in (left, right):
            gram = np.array([[np.trace(a.conj().T @ b) for b in ops] for a in ops])
            assert np.allclose(gram, np.eye(len(ops)), atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_sum_of_squares_is_d_squared(self, d):
        # sum_i s_i^2 = ||U||_F^2 = d^2 for any unitary on C^d tensor C^d
        rng = np.random.default_rng(2)
        u = haar_unitary(d * d, rng)
        s, _, _ = operator_schmidt(u)
        assert np.sum(s**2) == pytest.approx(d * d, rel=1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            operator_schmidt(np.ones((4, 2)))
        with pytest.raises(ValueError):
            operator_schmidt(np.eye(6))


@pytest.mark.parametrize("run", [operator_schmidt, factor_local],
                         ids=["operator_schmidt", "factor_local"])
@pytest.mark.parametrize("u", [np.eye(4)[:, :3], np.ones(4)], ids=["4x3", "vector"])
def test_every_operator_entry_refuses_a_non_square_input_alike(run, u):
    # one rule where an operator enters, before any reshape or product meets the wrong shape
    with pytest.raises(ValueError, match="operator must be square"):
        run(u)


class TestFactorLocal:
    def test_sigma1_sigma3(self):
        result = factor_local(tensor(SIGMA1, SIGMA3))
        assert result.kind == "local"
        assert result.residual < 1e-12
        u1, u2 = result.factors
        assert np.linalg.norm(tensor(u1, u2) - tensor(SIGMA1, SIGMA3)) < 1e-12

    def test_flip_factors_to_identities(self):
        result = factor_local(flip_operator(2))
        assert result.kind == "local_flip"
        u1, u2 = result.factors
        assert _phase_aligned_distance(tensor(u1, u2), np.eye(4)) < 1e-12

    def test_cnot_neither(self):
        result = factor_local(CNOT)
        assert result.kind == "neither"
        assert result.factors is None
        assert result.residual > 0.5

    def test_phase_convention(self):
        rng = np.random.default_rng(3)
        u = tensor(haar_unitary(3, rng), haar_unitary(3, rng))
        result = factor_local(u)
        lead = result.factors[0].reshape(-1)
        lead = lead[np.abs(lead) > 1e-12][0]
        assert lead.imag == pytest.approx(0.0, abs=1e-12)
        assert lead.real > 0

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_round_trip_local_and_flip(self, d):
        rng = np.random.default_rng(d)
        f = flip_operator(d)
        for _ in range(25):
            v = haar_unitary(d, rng)
            w = haar_unitary(d, rng)
            u = tensor(v, w)
            res = factor_local(u)
            assert res.kind == "local"
            assert res.residual < 1e-8
            for got, want in zip(res.factors, (v, w)):
                assert _phase_aligned_distance(got, want) < 1e-8
            res = factor_local(u @ f)
            assert res.kind == "local_flip"
            assert res.residual < 1e-8

    def test_unitary_factors(self):
        rng = np.random.default_rng(4)
        u = tensor(haar_unitary(2, rng), haar_unitary(2, rng))
        res = factor_local(u)
        for x in res.factors:
            assert np.linalg.norm(x.conj().T @ x - np.eye(2)) < 1e-10

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            factor_local(np.diag([1.0, 2.0, 1.0, 1.0]).astype(complex))


class TestPreservesMaxEntangled:
    # U keeps maximally entangled vectors so exactly when factor_local says local or local_flip
    def test_local_unitary_clean(self):
        rng = np.random.default_rng(5)
        u = tensor(haar_unitary(2, rng), haar_unitary(2, rng))
        result = factor_local(u)
        assert result.kind == "local" and result.residual < 1e-10

    def test_cnot_witness(self):
        result = factor_local(CNOT)
        assert result.kind == "neither" and result.residual > 0.1

    def test_flip_clean(self):
        result = factor_local(flip_operator(3))
        assert result.kind == "local_flip" and result.residual < 1e-10

    def test_verdict_agreement_with_factor_local(self):
        # neither-verdicts and violations of the sampled form must name the same inputs
        rng = np.random.default_rng(6)
        f = flip_operator(2)
        for t in range(500):
            if t % 5 == 0:
                u = tensor(haar_unitary(2, rng), haar_unitary(2, rng))
                if t % 10 == 0:
                    u = u @ f
            else:
                u = haar_unitary(4, rng)
            says_neither = factor_local(u, tol=1e-8).kind == "neither"
            witnessed = sampled_preserves(u, trials=40, seed=t).max_violation > 1e-6
            assert says_neither == witnessed


def _near_local(d, rng):
    """(U1 tensor U2) exp(i eps H), ten per eps over 1e-10 ... 1e-6, and each times F."""
    eps = np.repeat(np.logspace(-10, -6, 41), 10)
    n = len(eps)
    h = rng.standard_normal((n, d * d, d * d)) + 1j * rng.standard_normal((n, d * d, d * d))
    w, v = np.linalg.eigh(h + h.conj().swapaxes(-1, -2))
    gate = (v * np.exp(1j * eps[:, None] * w)[:, None, :]) @ v.conj().swapaxes(-1, -2)
    a, b = haar_unitary(d, rng, count=n), haar_unitary(d, rng, count=n)
    u = np.einsum("tij,tkl->tikjl", a, b).reshape(n, d * d, d * d) @ gate
    return np.concatenate([u, u @ flip_operator(d)])


def _products(d, rng, count):
    """U1 tensor U2 for Haar U1, U2, and each times F."""
    a, b = haar_unitary(d, rng, count=count), haar_unitary(d, rng, count=count)
    u = np.einsum("tij,tkl->tikjl", a, b).reshape(count, d * d, d * d)
    return np.concatenate([u, u @ flip_operator(d)])


class TestMinorCertificate:
    """factor_local, the one decider, against the stacked rank rule near its threshold."""

    @pytest.mark.parametrize("d", [3, 4])
    def test_kinds_match_all_svd_reference(self, d):
        rng = np.random.default_rng(20 + d)
        near, products = _near_local(d, rng), _products(d, rng, 100)
        haar = haar_unitary(d * d, rng, count=100)
        us = np.concatenate([near, products, haar])
        kinds = np.array([factor_local(u).kind for u in us])
        assert kinds.tolist() == svd_kinds(us).tolist()
        assert set(kinds[len(near):len(near) + len(products)]) == {"local", "local_flip"}
        assert set(kinds[-len(haar):]) == {"neither"}

    @pytest.mark.parametrize("d", [3, 4])
    def test_bound_holds_at_the_rank_threshold(self, d):
        # exp(i eps (E_{0,d+1} + E_{d+1,0})) has s1/s0 = sin(eps)/d in R(U): the SVD calls it
        # local up to eps = d RANK_TOL, and factor_local's verdict flips there, for U and U F
        eps = np.logspace(-9, -6, 61)
        u = np.repeat(np.eye(d * d, dtype=complex)[None], len(eps), axis=0)
        u[:, 0, 0] = u[:, d + 1, d + 1] = np.cos(eps)
        u[:, 0, d + 1] = u[:, d + 1, 0] = 1j * np.sin(eps)
        us = np.concatenate([u, u @ flip_operator(d)])
        kinds = np.array([factor_local(x).kind for x in us])
        assert kinds.tolist() == svd_kinds(us).tolist()
        assert set(kinds) == {"local", "local_flip", "neither"}
