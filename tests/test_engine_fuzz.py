"""Fuzzed trial counts, tolerances and seeds through the sampled-check engine.

For any of them a tolerance report passes exactly when its largest
violation is below tol, keeps at most MAX_WITNESSES witnesses, all at or
above tol, and encodes as JSON. Bell conditions 2 and 5, which draw nothing,
keep the same rule, and at d=2 they give the verdict 2,000 sampled trials
give, within the bounds their docstring states.
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
    check_preserves_max_entangled,
    check_universality,
    fourier_basis,
)
from entbasis.fileio import report_to_obj  # noqa: E402
from entbasis.reports import MAX_WITNESSES  # noqa: E402
from test_bell import random_phase_basis  # noqa: E402
from test_engine import sampled_bell_condition, turned_bell_basis  # noqa: E402

FOURIER3 = fourier_basis(3)
CNOT = np.eye(4)[[0, 1, 3, 2]].astype(complex)

# name -> check(trials, seed, tol); the Bell conditions pass for most tol, the rest fail
CHECKS = {
    "cond2-bell": lambda n, s, t: check_bell_condition(bell_basis(), 2, n, s, t),
    "cond4-bell": lambda n, s, t: check_bell_condition(bell_basis(), 4, n, s, t),
    "cond4-fourier3": lambda n, s, t: check_bell_condition(FOURIER3, 4, n, s, t),
    "cond5-fourier3": lambda n, s, t: check_bell_condition(FOURIER3, 5, n, s, t),
    "universality-sigma3": lambda n, s, t: check_universality(AntilinearOp(SIGMA3), n, s, t),
    "preserves-cnot": lambda n, s, t: check_preserves_max_entangled(CNOT, n, s, t),
}


@hypothesis.settings(max_examples=30, deadline=None)
@hypothesis.given(
    trials=st.integers(1, 400),
    tol=st.floats(1e-16, 3.0),
    seed=st.integers(0, 2**32 - 1),
    which=st.sampled_from(sorted(CHECKS)),
)
def test_verdict_is_violation_below_tol(trials, tol, seed, which):
    report = CHECKS[which](trials, seed, tol)
    assert report.trials == (0 if which in ("cond2-bell", "cond5-fourier3") else trials)
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
    # sum |q_k| <= 2; a unit combination has (sum |a_a|)^2 / 2 <= n / 2. 1e-14 is rounding
    basis = turned_bell_basis(seed) if turned else random_phase_basis(2, seed)
    for condition, bound in ((2, 4.0), (5, 2.0)):
        exact = check_bell_condition(basis, condition)
        sampled = sampled_bell_condition(basis, condition, 2000, seed)
        assert exact.passed == sampled.passed == turned
        assert sampled.max_violation <= bound * exact.max_violation + 1e-14
