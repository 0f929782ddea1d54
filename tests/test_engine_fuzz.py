"""Fuzzed trial counts, tolerances and seeds through the exact checks and their sampled forms.

For any of them a tolerance report passes exactly when its largest
violation is below tol, keeps at most MAX_WITNESSES witnesses, all at or
above tol, and encodes as JSON. The Bell conditions, phase covariance and
det-criterion agreement, which draw nothing, keep the same rule, and they
give the verdict 2,000 sampled trials give, within the bounds their
docstrings state.
"""

import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from entbasis import (  # noqa: E402
    AntilinearOp,
    SIGMA3,
    bell_basis,
    check_bell_condition,
    check_det_criterion_agreement,
    check_universality,
    fourier_basis,
)
from entbasis.fileio import report_to_obj  # noqa: E402
from entbasis.reports import MAX_WITNESSES  # noqa: E402
from test_bell import random_phase_basis  # noqa: E402
from test_engine import (  # noqa: E402
    sampled_bell_condition, sampled_preserves, sampled_universality, turned_bell_basis)

FOURIER3 = fourier_basis(3)
CNOT = np.eye(4)[[0, 1, 3, 2]].astype(complex)

# name -> check(trials, seed, tol); the Bell conditions pass for most tol, the rest fail
CHECKS = {
    "cond2-bell": lambda n, s, t: check_bell_condition(bell_basis(), 2, n, s, t),
    "cond3-fourier3": lambda n, s, t: check_bell_condition(FOURIER3, 3, n, s, t),
    "cond4-bell": lambda n, s, t: sampled_bell_condition(bell_basis(), 4, n, s, t),
    "cond4-fourier3": lambda n, s, t: sampled_bell_condition(FOURIER3, 4, n, s, t),
    "cond5-fourier3": lambda n, s, t: check_bell_condition(FOURIER3, 5, n, s, t),
    "universality-sigma3": lambda n, s, t: check_universality(AntilinearOp(SIGMA3), n, s, t),
    "preserves-cnot": lambda n, s, t: sampled_preserves(CNOT, n, s, t),
    "det-criterion": lambda n, s, t: check_det_criterion_agreement(n, s, t),
}
EXACT = ("cond2-bell", "cond3-fourier3", "cond5-fourier3", "universality-sigma3", "det-criterion")


@hypothesis.settings(max_examples=30, deadline=None)
@hypothesis.given(
    trials=st.integers(1, 400),
    tol=st.floats(1e-16, 3.0),
    seed=st.integers(0, 2**32 - 1),
    which=st.sampled_from(sorted(CHECKS)),
)
def test_verdict_is_violation_below_tol(trials, tol, seed, which):
    report = CHECKS[which](trials, seed, tol)
    assert report.trials == (0 if which in EXACT else trials)
    assert report.passed == (report.max_violation < tol)
    assert len(report.witnesses) <= MAX_WITNESSES
    assert all(w["violation"] >= tol for w in report.witnesses)
    assert report.passed == (not report.witnesses)
    json.dumps(report_to_obj(report))


@hypothesis.settings(max_examples=25, deadline=None)
@hypothesis.given(turned=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_exact_conditions_agree_with_2000_draws(turned, seed):
    # random-phase shift-and-multiply bases fail, Bell bases turned by Haar local unitaries
    # pass. A Haar pair U1 = sum p_j E_j, U2 = sum q_k E_k has sum |p_j| <= 2 and
    # sum |q_k| <= 2; a unit combination has (sum |a_a|)^2 / 2 <= n / 2; a sampled
    # |Im(c_j conj(c_k))| is at most r_jk / 2. Condition 3's sampled violation is a fraction of
    # trials, with no bound to compare. 1e-14 is rounding
    basis = turned_bell_basis(seed) if turned else random_phase_basis(2, seed)
    for condition, bound in ((2, 4.0), (3, None), (4, 0.5), (5, 2.0)):
        exact = check_bell_condition(basis, condition)
        sampled = sampled_bell_condition(basis, condition, 2000, seed)
        assert exact.passed == sampled.passed == turned
        if bound is not None:
            assert sampled.max_violation <= bound * exact.max_violation + 1e-14


# an exact residual at least this large fails 2,000 draws at the default tol
COVARIANCE_MARGIN = 1e-6


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(
    d=st.integers(1, 4),
    eps=st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
    phase=st.sampled_from(["det", "best"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_exact_covariance_agrees_with_2000_draws(d, eps, phase, seed):
    # a covariant operator (lam times the spin flip at d=2, any lam at d=1 under the best phase,
    # 0 at d >= 3) moved by eps times a random one. A U in U(d) is exp(iH) with ||H||_F at most
    # pi sqrt(d), and along exp(itH) the derivative of U A U^T / det(U) is U R(H) U^T / det(U),
    # so a sampled det-phase violation is at most ||R(H)||_F <= pi d^(3/2) times the largest
    # generator residual. 1e-12 is rounding
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.1, 10) * np.exp(2j * np.pi * rng.random())
    line = {1: lam * np.eye(1), 2: lam * np.array([[0, 1], [-1, 0]])}.get(d, np.zeros((d, d)))
    a = line + eps * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    exact = check_universality(AntilinearOp(a), phase=phase)
    sampled = sampled_universality(AntilinearOp(a), 2000, seed, phase=phase)
    if exact.passed:
        assert sampled.passed
    if exact.max_violation >= COVARIANCE_MARGIN:
        assert not sampled.passed
    if phase == "det":
        assert sampled.max_violation <= np.pi * d ** 1.5 * exact.max_violation + 1e-12
