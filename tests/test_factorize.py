"""Tests for operator-Schmidt decomposition and local factorization."""

import json

import numpy as np
import pytest

from entbasis import (
    SIGMA1,
    SIGMA3,
    basis_matrix,
    bell_basis,
    bell_matrix,
    check_det_criterion_agreement,
    factor_local,
    flip_operator,
    fourier_basis,
    haar_unitary,
    operator_schmidt,
    random_orthogonal,
    tensor,
)
from entbasis import bell, factorize
from entbasis.factorize import _is_rank_one, _reshuffle
from entbasis.fileio import report_to_obj
from test_engine import sampled_bell_condition, sampled_preserves

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


def _svd_kinds(u):
    """Stacked kinds from two full SVDs per operator: the pivot screen's reference."""
    d = round(u.shape[-1] ** 0.5)
    plain = _is_rank_one(np.linalg.svd(_reshuffle(u, d), compute_uv=False))
    flip = _is_rank_one(np.linalg.svd(_reshuffle(u @ flip_operator(d), d), compute_uv=False))
    return np.where(plain, "local", np.where(flip, "local_flip", "neither"))


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


class TestStackedKinds:
    def test_flip_reshuffle_equals_reshuffle_of_the_product(self):
        rng = np.random.default_rng(3)
        # flip_operator itself equals the loop that built it (test_linalg)
        for d in range(1, 6):
            u = haar_unitary(d * d, rng, count=4)
            fast = factorize._flip_reshuffle(u, d)
            assert fast.tobytes() == _reshuffle(u @ flip_operator(d), d).tobytes()
            assert factorize._flip_reshuffle(u[0], d).tobytes() == fast[0].tobytes()

    @pytest.mark.parametrize("d", [2, 3])
    def test_pivot_screen_matches_all_svd_reference(self, d, monkeypatch):
        # near the rank-one threshold the screen defers to the SVD; far from it,
        # on generic basis-real unitaries and Haar ones, it decides alone
        rng = np.random.default_rng(10 + d)
        b = bell_matrix() if d == 2 else basis_matrix(fourier_basis(3))
        near = _near_local(d, rng)
        real = b @ random_orthogonal(d * d, rng, count=200) @ b.conj().T
        us = np.concatenate([near, real, haar_unitary(d * d, rng, count=50)])
        expected = _svd_kinds(us)
        assert set(expected) == {"local", "local_flip", "neither"}
        deferred = []

        def counted(s):
            deferred.append(len(s))
            return _is_rank_one(s)

        pivoted, flipped = _spy(monkeypatch, "_reshuffle"), _spy(monkeypatch, "_flip_reshuffle")
        monkeypatch.setattr(factorize, "_is_rank_one", counted)
        kinds = factorize._local_kinds(us)
        assert kinds.tolist() == expected.tolist()
        assert 0 < sum(deferred) < len(us)
        # every U takes the pivot, and the flip is examined only where U is not local
        assert pivoted == [len(us)]
        assert flipped == [int((kinds != "local").sum())]


def _spy(monkeypatch, name):
    """The stack lengths factorize.<name> is called with, in call order."""
    calls, real = [], getattr(factorize, name)
    monkeypatch.setattr(factorize, name, lambda u, d: calls.append(len(u)) or real(u, d))
    return calls


def _products(d, rng, count):
    """U1 tensor U2 for Haar U1, U2, and each times F."""
    a, b = haar_unitary(d, rng, count=count), haar_unitary(d, rng, count=count)
    u = np.einsum("tij,tkl->tikjl", a, b).reshape(count, d * d, d * d)
    return np.concatenate([u, u @ flip_operator(d)])


class TestMinorCertificate:
    @pytest.mark.parametrize("d", [3, 4])
    def test_kinds_match_all_svd_reference(self, d, monkeypatch):
        rng = np.random.default_rng(20 + d)
        near, products = _near_local(d, rng), _products(d, rng, 100)
        haar = haar_unitary(d * d, rng, count=100)
        us = np.concatenate([near, products, haar])
        pivoted = _spy(monkeypatch, "_reshuffle")
        kinds = factorize._local_kinds(us)
        assert kinds.tolist() == _svd_kinds(us).tolist()
        assert pivoted == [len(us)]
        assert set(kinds[len(near):len(near) + len(products)]) == {"local", "local_flip"}
        assert set(kinds[-len(haar):]) == {"neither"}

    @pytest.mark.parametrize("d", [3, 4])
    def test_kinds_of_finite_non_unitary_stacks_match_all_svd_reference(self, d):
        # no certificate needs a unitary input: 2 U keeps U's kind, and a Gaussian matrix is
        # decided as the SVD decides it
        rng = np.random.default_rng(30 + d)
        shape = (100, d * d, d * d)
        gaussian = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        us = np.concatenate([2 * _near_local(d, rng), 2 * _products(d, rng, 50), gaussian])
        kinds = factorize._local_kinds(us)
        assert kinds.tolist() == _svd_kinds(us).tolist()
        assert set(kinds) == {"local", "local_flip", "neither"}

    @pytest.mark.parametrize("d", [3, 4])
    def test_bound_holds_at_the_rank_threshold(self, d):
        # exp(i eps (E_{0,d+1} + E_{d+1,0})) has a 2 x 2 minor sin(eps) cos(eps) of R(U) and
        # s1/s0 = sin(eps)/d: the SVD calls it local up to eps = d RANK_TOL, so a pivot bound
        # below 2 RANK_TOL ||R||_F^2 would certify local operators as "neither"
        eps = np.logspace(-9, -6, 61)
        u = np.repeat(np.eye(d * d, dtype=complex)[None], len(eps), axis=0)
        u[:, 0, 0] = u[:, d + 1, d + 1] = np.cos(eps)
        u[:, 0, d + 1] = u[:, d + 1, 0] = 1j * np.sin(eps)
        us = np.concatenate([u, u @ flip_operator(d)])
        kinds = factorize._local_kinds(us)
        assert kinds.tolist() == _svd_kinds(us).tolist()
        assert set(kinds) == {"local", "local_flip", "neither"}

    @pytest.mark.parametrize("check, text", [
        # condition 3's sampled form, whose kinds come from _local_kinds
        (lambda: sampled_bell_condition(bell_basis(), 3, 2000, 7),
         '{"name": "sampled-condition-3", "trials": 2000, "maxViolation": 0.0, '
         '"threshold": 1e-10, "passed": true, "verdict": "no violation found", "witnesses": [], '
         '"details": {}}'),
        (lambda: check_det_criterion_agreement(1000, 7),
         '{"name": "det-criterion-agreement", "trials": 1000, "maxViolation": 0.0, '
         '"threshold": 1e-10, "passed": true, "verdict": "no violation found", '
         '"witnesses": [], "details": {}}'),
    ], ids=["bell-condition-3", "det-criterion"])
    def test_d2_stacks_pass_to_the_pivot_as_they_are(self, check, text, monkeypatch):
        # at d=2 every sampled U is local or local-flip, and each chunk reaches the pivot whole,
        # not as a copy
        given, pivoted = [], []
        real_kinds, real_reshuffle = factorize._local_kinds, factorize._reshuffle
        monkeypatch.setattr(bell, "_local_kinds", lambda u: given.append(u) or real_kinds(u))
        monkeypatch.setattr(factorize, "_reshuffle",
                            lambda u, d: pivoted.append(u) or real_reshuffle(u, d))
        report = check()
        assert len(given) > 1 and len(pivoted) == len(given)
        assert all(p is g for p, g in zip(pivoted, given))
        assert json.dumps(report_to_obj(report)) == text
