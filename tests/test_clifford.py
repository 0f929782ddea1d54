"""Tests for Clifford generator construction and relation checking.

clifford_check and Bell condition 6 share one pair kernel; the two pair
loops it replaced are kept here as its oracles.
"""

import json
import math

import numpy as np
import pytest

from entbasis import (
    PAULIS,
    SIGMA1,
    SIGMA2,
    CheckReport,
    EntangledBasis,
    bell_basis,
    build_clifford_generators,
    check_bell_condition,
    clifford_check,
    fourier_basis,
    haar_unitary,
)
from entbasis.fileio import report_to_obj
from entbasis.reports import MAX_WITNESSES


class TestCliffordCheck:
    def test_pauli_triple(self):
        report = clifford_check(list(PAULIS))
        assert report.passed
        assert report.details == {
            "count": 3,
            "dimension": 2,
            "expected_dimension": 2,
            "dimension_matches": True,
        }

    def test_duplicated_generator_fails(self):
        # delta_01 = 0 but the anticommutator is 2 sigma1^2 = 2I
        report = clifford_check([SIGMA1, SIGMA1])
        assert not report.passed
        assert report.max_violation == pytest.approx(2 * np.sqrt(2))
        pairs = [w["pair"] for w in report.witnesses]
        assert [0, 1] in pairs

    def test_non_hermitian_flagged(self):
        report = clifford_check([1j * SIGMA2])
        assert not report.passed
        kinds = {w["kind"] for w in report.witnesses}
        assert "hermiticity" in kinds

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            clifford_check([SIGMA1, np.eye(4)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            clifford_check([])


class TestBuildGenerators:
    def test_base_case(self):
        gens = build_clifford_generators(1)
        assert len(gens) == 1
        assert np.array_equal(gens[0], [[1.0]])

    def test_three_generators_pauli_like(self):
        gens = build_clifford_generators(3)
        assert all(g.shape == (2, 2) for g in gens)
        report = clifford_check(gens)
        assert report.passed

    @pytest.mark.parametrize("n,dim", [(1, 1), (3, 2), (5, 4), (7, 8)])
    def test_dimension_formula(self, n, dim):
        gens = build_clifford_generators(n)
        assert len(gens) == n
        assert gens[0].shape == (dim, dim)
        report = clifford_check(gens)
        assert report.passed
        assert report.details["dimension_matches"]

    def test_generators_hermitian_unitary(self):
        for g in build_clifford_generators(5):
            assert np.allclose(g, g.conj().T, atol=1e-14)
            assert np.allclose(g @ g, np.eye(g.shape[0]), atol=1e-14)

    @pytest.mark.parametrize("n", [0, 2, 4, -1])
    def test_even_or_nonpositive_rejected(self, n):
        with pytest.raises(ValueError):
            build_clifford_generators(n)


def _loop_report(name, worst, tol, witnesses, details=None):
    """The report as the loops built it: it passed when worst < tol."""
    passed = bool(worst < tol)
    return CheckReport(name, 0, float(worst), tol, passed,
                       "no violation found" if passed else "violation witnessed",
                       tuple(witnesses), details or {})


def _loop_clifford(mats, tol):
    """clifford_check as a hand-written loop over the hermiticity row and the pairs a <= b."""
    mats = [np.asarray(r, dtype=complex) for r in mats]
    n = len(mats)
    d = mats[0].shape[0]
    eye = np.eye(d)
    worst = 0.0
    witnesses = []

    def note(violation, kind, a, b):
        nonlocal worst
        if violation > worst:
            worst = violation
        if violation >= tol and len(witnesses) < MAX_WITNESSES:
            witnesses.append({"kind": kind, "pair": [a, b], "violation": violation})

    for a, r in enumerate(mats):
        note(float(np.linalg.norm(r - r.conj().T)), "hermiticity", a, a)
    for a in range(n):
        for b in range(a, n):
            anti = mats[a] @ mats[b] + mats[b] @ mats[a]
            target = 2.0 * eye if a == b else 0.0
            note(float(np.linalg.norm(anti - target)), "anticommutator", a, b)

    details = {"count": n, "dimension": d}
    if n % 2 == 1:
        expected = 2 ** ((n - 1) // 2)
        details["expected_dimension"] = expected
        details["dimension_matches"] = bool(d == expected)
    return _loop_report("clifford-relations", worst, tol, witnesses, details)


def _loop_condition6(basis, tol):
    """Condition 6 as a hand-written loop over the pairs a <= c."""
    xs = basis.ops
    eye = np.eye(basis.dim)
    worst = 0.0
    witnesses = []
    for a in range(len(xs)):
        for c in range(a, len(xs)):
            anti = xs[a].conj().T @ xs[c] + xs[c].conj().T @ xs[a]
            target = 2.0 * eye if a == c else 0.0
            violation = float(np.linalg.norm(anti - target))
            worst = max(worst, violation)
            if violation >= tol and len(witnesses) < MAX_WITNESSES:
                witnesses.append({"pair": [a, c], "violation": violation})
    return _loop_report("bell-condition-6", worst, tol, witnesses)


def _report_text(report):
    return json.dumps(report_to_obj(report), sort_keys=True, indent=2)


def _local_copy(basis, seed):
    """X_a -> U1 X_a U2^T for Haar U1, U2 of the basis's order."""
    rng = np.random.default_rng(seed)
    u1, u2 = haar_unitary(basis.dim, rng), haar_unitary(basis.dim, rng)
    return EntangledBasis(basis.dim, u1 @ basis.ops @ u2.T)


CONDITION6_BASES = {
    "bell": bell_basis,
    **{"rotated-bell-%d" % s: (lambda s=s: _local_copy(bell_basis(), s)) for s in (5, 6)},
    **{"fourier-%d" % d: (lambda d=d: fourier_basis(d)) for d in range(3, 9)},
    **{"haar-3-%d" % s: (lambda s=s: _local_copy(fourier_basis(3), s)) for s in (7, 8)},
}


@pytest.mark.parametrize("tol", [1e-10, 1e-3, 1.5, 3.5])
@pytest.mark.parametrize("name", sorted(CONDITION6_BASES))
def test_condition6_report_matches_loop(name, tol):
    basis = CONDITION6_BASES[name]()
    report = check_bell_condition(basis, 6, tol=tol)
    assert _report_text(report) == _report_text(_loop_condition6(basis, tol))


def _first_of(n):
    """The first n generators of the smallest odd family holding n."""
    return build_clifford_generators(n | 1)[:n]


def _broken_at_front():
    """Three non-hermitian generators, then a family twice over: 3 + 55 bad entries."""
    gens = build_clifford_generators(5)
    return [1j * g for g in gens[:3]] + gens + gens


BROKEN_FAMILIES = {
    "duplicate": lambda: [SIGMA1, SIGMA1],
    "non-hermitian": lambda: [1j * SIGMA2],
    "tripled": lambda: build_clifford_generators(3) * 3,
    "broken-at-front": _broken_at_front,
}


@pytest.mark.parametrize("n", range(1, 16))
def test_clifford_report_matches_loop(n):
    mats = _first_of(n)
    assert _report_text(clifford_check(mats)) == _report_text(_loop_clifford(mats, 1e-10))


@pytest.mark.parametrize("tol", [1e-10, 0.5, 3.5])
@pytest.mark.parametrize("name", sorted(BROKEN_FAMILIES))
def test_broken_clifford_report_matches_loop(name, tol):
    mats = BROKEN_FAMILIES[name]()
    report = clifford_check(mats, tol=tol)
    assert _report_text(report) == _report_text(_loop_clifford(mats, tol))


def test_witnesses_truncated_hermiticity_first():
    report = clifford_check(_broken_at_front())
    assert not report.passed
    assert len(report.witnesses) == MAX_WITNESSES
    kinds = [w["kind"] for w in report.witnesses]
    assert kinds == ["hermiticity"] * 3 + ["anticommutator"] * 5
    assert [w["pair"] for w in report.witnesses[:3]] == [[0, 0], [1, 1], [2, 2]]
    # the anticommutators follow in row-major pair order
    pairs = [tuple(w["pair"]) for w in report.witnesses[3:]]
    assert pairs == sorted(pairs)


def _nan_bell_basis():
    ops = bell_basis().ops.copy()
    ops[1, 0, 0] = np.nan
    return EntangledBasis(2, ops)


NONFINITE = {
    "nan-basis-operator": lambda: check_bell_condition(_nan_bell_basis(), 6),
    "nan-generator": lambda: clifford_check([np.full((2, 2), np.nan)]),
    # both hermitian; their products overflow to inf, and inf - inf is NaN
    "overflowing-pair": lambda: clifford_check(
        [[[0, 1e200], [1e200, 0]], [[1e200, 1e200], [1e200, -1e200]]]),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(NONFINITE))
def test_nonfinite_products_fail(name):
    report = NONFINITE[name]()
    assert not report.passed
    assert math.isnan(report.max_violation)
    assert report.witnesses
