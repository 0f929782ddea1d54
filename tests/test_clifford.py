"""Tests for Clifford generator construction and relation checking.

clifford_check and Bell condition 6 share one pair kernel; the two pair
loops it replaced are kept here as its oracles. The kernel works on the
parts of monomial stacks and falls back to dense products; the dense path is
the oracle of the monomial one.
"""

import json
import math
from unittest import mock

import numpy as np
import pytest

from entbasis import (
    PAULIS,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    CheckReport,
    EntangledBasis,
    bell_basis,
    build_clifford_generators,
    check_bell_condition,
    clifford_check,
    fourier_basis,
    haar_unitary,
)
from entbasis import clifford
from entbasis.fileio import report_to_obj
from entbasis.linalg import _monomial_parts
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

    def test_check_takes_the_stack_without_a_copy(self, monkeypatch):
        # the builder's own array reaches the pair kernel: the family is held once
        seen, real = [], clifford._monomial_parts
        monkeypatch.setattr(clifford, "_monomial_parts", lambda s: seen.append(s) or real(s))
        gens = build_clifford_generators(7)
        assert isinstance(gens, np.ndarray) and gens.shape == (7, 8, 8)
        assert clifford_check(gens).passed
        assert len(seen) == 1 and seen[0] is gens

    @pytest.mark.parametrize("n", [0, 2, 4, -1])
    def test_even_or_nonpositive_rejected(self, n):
        with pytest.raises(ValueError):
            build_clifford_generators(n)

    @pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
    def test_generators_match_kron_ladder(self, n):
        # the stack is written block by block; the ladder of Kronecker products is its reference
        gens = [np.ones((1, 1), dtype=complex)]
        while len(gens) < n:
            eye = np.eye(len(gens[0]))
            gens = [np.kron(SIGMA3, eye), np.kron(SIGMA1, eye)] + [np.kron(SIGMA2, r) for r in gens]
        assert np.array_equal(build_clifford_generators(n), gens)


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


# the monomial path sums each anticommutator in another order than the dense
# products; on these bases its reports move in their last digits
MOVED_IN_LAST_DIGITS = {"fourier-7"}


def _assert_same_up_to_rounding(got, want, d):
    """Equal verdicts, witness kinds and pairs; violations within 8 d eps or both not finite."""
    assert (got.passed, got.verdict, got.details) == (want.passed, want.verdict, want.details)
    assert ([{k: x for k, x in w.items() if k != "violation"} for w in got.witnesses]
            == [{k: x for k, x in w.items() if k != "violation"} for w in want.witnesses])
    for x, y in zip([got.max_violation] + [w["violation"] for w in got.witnesses],
                    [want.max_violation] + [w["violation"] for w in want.witnesses]):
        assert abs(x - y) <= 8 * d * np.finfo(float).eps or not (math.isfinite(x) or math.isfinite(y))


@pytest.mark.parametrize("tol", [1e-10, 1e-3, 1.5, 3.5])
@pytest.mark.parametrize("name", sorted(CONDITION6_BASES))
def test_condition6_report_matches_loop(name, tol):
    basis = CONDITION6_BASES[name]()
    report = check_bell_condition(basis, 6, tol=tol)
    if name in MOVED_IN_LAST_DIGITS:
        _assert_same_up_to_rounding(report, _loop_condition6(basis, tol), basis.dim)
    else:
        assert _report_text(report) == _report_text(_loop_condition6(basis, tol))


def _first_of(n):
    """The first n generators of the smallest odd family holding n."""
    return build_clifford_generators(n | 1)[:n]


def _broken_at_front():
    """Three non-hermitian generators, then a family twice over: 3 + 55 bad entries."""
    gens = build_clifford_generators(5)
    return [1j * g for g in gens[:3]] + list(gens) + list(gens)


BROKEN_FAMILIES = {
    "duplicate": lambda: [SIGMA1, SIGMA1],
    "non-hermitian": lambda: [1j * SIGMA2],
    "tripled": lambda: list(build_clifford_generators(3)) * 3,
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


# ---- the monomial path against the dense one ----


def _dense_calls(check):
    """check()'s report and how many times the pair kernel fell back to dense products."""
    with mock.patch.object(clifford, "_dense_norms", wraps=clifford._dense_norms) as dense:
        report = check()
    return report, dense.call_count


def _repeated_rows(seed, n=5, d=4):
    """n column-monomial matrices whose rows repeat, with entries in {1, -1, i, -i, 2}."""
    rng = np.random.default_rng(seed)
    mats = np.zeros((n, d, d), dtype=complex)
    values = np.array([1, -1, 1j, -1j, 2])[rng.integers(0, 5, (n, d))]
    mats[np.arange(n)[:, None], rng.integers(0, d, (n, d)), np.arange(d)] = values
    assert any(len(set(r)) < d for r in _monomial_parts(mats)[0])
    return list(mats)


def _nan_monomial_bell_basis():
    ops = bell_basis().ops.copy()
    ops[1, 1, 0] = np.nan  # the one nonzero of its column 0
    return EntangledBasis(2, ops)


MONOMIAL_NONFINITE = {
    "scaled-paulis": lambda: clifford_check([1e200 * s for s in PAULIS]),
    "nan-nonzero": lambda: clifford_check([SIGMA1, [[np.nan, 0], [0, 1]]]),
    "nan-nonzero-basis-operator": lambda: check_bell_condition(_nan_monomial_bell_basis(), 6),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(MONOMIAL_NONFINITE))
def test_nonfinite_monomial_products_fail(name):
    report, dense = _dense_calls(MONOMIAL_NONFINITE[name])
    assert dense == 0
    assert not report.passed
    assert not math.isfinite(report.max_violation)
    assert report.witnesses


@pytest.mark.parametrize("name", sorted(CONDITION6_BASES))
def test_condition6_path_follows_the_layout(name):
    # shift-and-multiply operators are monomial; a local rotation of them is not
    basis = CONDITION6_BASES[name]()
    _, dense = _dense_calls(lambda: check_bell_condition(basis, 6))
    assert dense == (name.startswith("rotated") or name.startswith("haar"))
    assert (_monomial_parts(basis.ops) is None) == bool(dense)


def test_haar_family_takes_dense_path():
    _, dense = _dense_calls(lambda: clifford_check(haar_unitary(3, 4, count=5)))
    assert dense == 1


@pytest.mark.parametrize("seed", range(4))
def test_repeated_rows_match_loop(seed):
    # rows that repeat make L_a R_a land off the diagonal, away from the -2 on row k
    mats = _repeated_rows(seed)
    report, dense = _dense_calls(lambda: clifford_check(mats))
    assert dense == 0
    assert _report_text(report) == _report_text(_loop_clifford(mats, 1e-10))


def _complex_monomials(seed, repeated, n=6, d=5):
    """n monomial matrices with complex normal nonzeros, on rows drawn at random, which repeat,
    or on random permutations, where fixed points and 2-cycles meet their mirror entries."""
    rng = np.random.default_rng(seed)
    rows = (rng.integers(0, d, (n, d)) if repeated
            else np.array([rng.permutation(d) for _ in range(n)]))
    back = np.take_along_axis(rows, rows, axis=-1) == np.arange(d)  # r_{r_k} = k
    assert back.any() and not back.all()
    mats = np.zeros((n, d, d), dtype=complex)
    mats[np.arange(n)[:, None], rows, np.arange(d)] = (rng.standard_normal((n, d))
                                                       + 1j * rng.standard_normal((n, d)))
    return list(mats)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("repeated", [True, False], ids=["repeated-rows", "permutations"])
def test_hermiticity_from_parts_matches_dense_loop(repeated, seed):
    # ||R - R^dag||_F from the parts sums the dense entries in another order
    mats = _complex_monomials(seed, repeated)
    dense = [np.linalg.norm(r - r.conj().T) for r in mats]
    rtol = 8 * 5 * np.finfo(float).eps
    np.testing.assert_allclose(clifford._monomial_hermiticity(*_monomial_parts(np.array(mats))),
                               dense, rtol=rtol, atol=0)
    report, calls = _dense_calls(lambda: clifford_check(mats))
    want = _loop_clifford(mats, 1e-10)
    assert calls == 0 and (report.passed, report.details) == (want.passed, want.details)
    assert ([{k: x for k, x in w.items() if k != "violation"} for w in report.witnesses]
            == [{k: x for k, x in w.items() if k != "violation"} for w in want.witnesses])
    assert [w["kind"] for w in report.witnesses[:len(mats)]] == ["hermiticity"] * len(mats)
    np.testing.assert_allclose([report.max_violation] + [w["violation"] for w in report.witnesses],
                               [want.max_violation] + [w["violation"] for w in want.witnesses],
                               rtol=rtol, atol=0)


def test_near_zero_anticommutators_keep_their_digits():
    # U^dag U - I is 0 up to rounding on the diagonal pairs. Expanding |x + y|^2 into
    # |x|^2 + |y|^2 + 2 Re(x conj(y)) cancels to 0 there, or leaves a rounding error
    # whose root reads 2e-8; the dense products read 4.4e-16
    ops = fourier_basis(3).ops
    left = ops.conj().swapaxes(-1, -2)
    rows, cols = np.triu_indices(len(ops))
    dense = clifford._dense_norms(left, ops, rows, cols)
    (v, _), calls = _dense_calls(lambda: clifford._anticommutators(left, ops, 1e-10))
    assert calls == 0
    assert (dense[rows == cols] < 1e-15).all() and dense[rows == cols].max() > 0
    np.testing.assert_allclose(v, dense, rtol=8 * 3 * np.finfo(float).eps, atol=0)


def _generators(n):
    return lambda: clifford_check(_first_of(n))


# every report the pair kernel makes in this file, and the order of its matrices
CORPUS = {
    **{"paulis": (lambda: clifford_check(list(PAULIS)), 2),
       "duplicate": (lambda: clifford_check([SIGMA1, SIGMA1]), 2)},
    **{"generators-%d" % n: (_generators(n), 2 ** (n // 2)) for n in range(1, 16)},
    **{"broken-%s" % name: ((lambda f=f: clifford_check(f())), len(f()[0]))
       for name, f in BROKEN_FAMILIES.items()},
    **{"condition6-%s" % name: ((lambda f=f: check_bell_condition(f(), 6)), f().dim)
       for name, f in CONDITION6_BASES.items()},
    **{"nonfinite-%s" % name: (f, 2) for name, f in {**NONFINITE, **MONOMIAL_NONFINITE}.items()},
    **{"repeated-rows-%d" % s: ((lambda s=s: clifford_check(_repeated_rows(s))), 4) for s in range(4)},
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_monomial_path_matches_dense_path(name):
    check, d = CORPUS[name]
    report = check()
    with mock.patch.object(clifford, "_monomial_parts", return_value=None):
        dense = check()
    _assert_same_up_to_rounding(report, dense, d)
