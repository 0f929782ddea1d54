"""Tests for the vector-operator correspondence and entangled bases."""

import re
from unittest import mock

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
from entbasis import entangled
from entbasis.entangled import (
    _gram_report,
    _shift_multiply_ops,
    _shift_multiply_report,
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

    def test_refuses_nan_vector(self):
        # abs(nan - 1) > tol is False: a gate written that way returns a NaN density
        with pytest.raises(ValueError, match="unit vector"):
            reduced_density(StateVector(2, 2, np.full(4, np.nan)), "left")

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
        with pytest.raises(ValueError, match=re.escape("invariants at pair (0, 0): unitarity")):
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


def _ingredients(name):
    """(hadamards, Latin square) of a shift-and-multiply family, Hadamard or not."""
    rng = np.random.default_rng(21)
    if name.startswith("fourier"):
        d = int(name[len("fourier"):])
        return np.stack([fourier_hadamard(d)] * d), cyclic_latin_square(d)
    if name.startswith("sylvester"):
        d = int(name[len("sylvester"):])
        return np.stack([sylvester_hadamard(d)] * d), cyclic_latin_square(d)
    d = 4
    # the Klein-group table i XOR j is not isotopic to the cyclic one
    klein = np.bitwise_xor.outer(np.arange(d), np.arange(d))
    if name == "mixed-klein4":
        hs = [np.exp(2j * np.pi * rng.random(d))[:, None] * fourier_hadamard(d)
              * np.exp(2j * np.pi * rng.random(d))[None, :] for _ in range(d)]
        return np.stack(hs), klein
    if name == "random-phases4":
        # unimodular but not orthogonal: the orthonormality witness is a Gram pair
        return np.exp(2j * np.pi * rng.random((d, d, d))), klein
    # rows off the unit circle: the witness is the first non-unitary operator
    return rand_complex(rng, (d, d, d)), klein


INGREDIENTS = ["fourier%d" % d for d in (1, 2, 3, 5, 8, 24)] + [
    "sylvester4", "sylvester16", "mixed-klein4", "random-phases4", "random-moduli4"]


@pytest.mark.parametrize("name", INGREDIENTS)
def test_certificate_matches_dense_verifier(name):
    # both residuals agree to rounding, and the verdict and witness pair exactly
    hs, tau = _ingredients(name)
    d = len(hs)
    cert = _shift_multiply_report(hs, 1e-10)
    dense = _gram_report(EntangledBasis(d, _shift_multiply_ops(hs, tau)), 1e-10)
    bound = 8 * d * np.finfo(float).eps
    for key in ("max_unitarity_residual", "max_orthonormality_residual"):
        assert abs(cert.details[key] - dense.details[key]) <= bound * max(1.0, dense.details[key])
    assert cert.passed == dense.passed
    assert [w["pair"] for w in cert.witnesses] == [w["pair"] for w in dense.witnesses]


@pytest.mark.parametrize("d, j", [(2, 0), (4, 3), (6, 2)])
def test_certificate_refuses_just_past_tol_at_dense_pair(d, j):
    # H^(j) = [[1+delta, 1-delta], [1-delta, -1-delta]] tensor F_{d/2} is Hadamard within
    # tol (modulus deviation delta, product residual d delta^2), yet each of its rows
    # gives an operator with unitarity residual 2 sqrt(d) delta > tol
    delta = 0.9e-10
    hs = [fourier_hadamard(d) for _ in range(d)]
    hs[j] = np.kron([[1 + delta, 1 - delta], [1 - delta, -1 - delta]], fourier_hadamard(d // 2))
    tau = cyclic_latin_square(d)
    dense = _gram_report(EntangledBasis(d, _shift_multiply_ops(np.stack(hs), tau)), 1e-10)
    assert not dense and dense.witnesses[0]["pair"] == [j, j]
    message = "input fails basis invariants at pair (%d, %d): unitarity" % (j, j)
    with pytest.raises(ValueError, match=re.escape(message)):
        shift_multiply_basis(hs, tau)


@pytest.mark.parametrize("kind", ["phase", "modulus"])
@pytest.mark.parametrize("factor", [0.5, 0.9, 1.1, 2.0])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_construction_accepts_exactly_what_verify_accepts(d, factor, kind):
    # one entry of H^(d-1) moved by a multiple of tol in phase or in modulus: HH^dag - dI
    # and HH^dag / d - I straddle tol in the phase cases, so a second Hadamard test would
    # refuse families whose basis verifies
    tol = 1e-10
    hs = np.stack([fourier_hadamard(d)] * d)
    hs[d - 1, 1, 1] *= np.exp(1j * factor * tol) if kind == "phase" else 1 + factor * tol
    tau = cyclic_latin_square(d)
    ops = _shift_multiply_ops(hs, tau)
    report = verify_unitary_basis(EntangledBasis(d, ops), tol)
    if report:
        assert np.array_equal(shift_multiply_basis(list(hs), tau, tol).ops, ops)
    else:
        with pytest.raises(ValueError):
            shift_multiply_basis(list(hs), tau, tol)


def _whole_gram_report(basis, tol):
    """verify_unitary_basis's residuals and witness from one unblocked Gram product."""
    n, d = len(basis.ops), basis.dim
    unit = np.linalg.norm(basis.ops.conj().transpose(0, 2, 1) @ basis.ops - np.eye(d), axis=(1, 2))
    flat = basis.ops.reshape(n, d * d)
    with np.errstate(invalid="ignore"):
        dev = np.abs(flat.conj() @ flat.T / d - np.eye(n))
    bad = np.flatnonzero(~(unit < tol))
    if bad.size:
        pair = [int(bad[0])] * 2
    elif not dev.max() < tol:
        pair = [int(i) for i in np.unravel_index(int(dev.argmax()), dev.shape)]
    else:
        pair = None
    return unit.max(), dev.max(), pair


def _edited_fourier(d, edit):
    ops = fourier_basis(d).ops.copy()
    edit(ops)
    return EntangledBasis(d, ops)


BLOCKED_GRAM_BASES = {
    "fourier9": lambda: fourier_basis(9),
    "fourier12": lambda: fourier_basis(12),
    # a defect in the last block of rows, where a pair's rows span two blocks
    "duplicate-late": lambda: _edited_fourier(12, lambda ops: ops.__setitem__(130, ops[3])),
    # the largest deviation first appears past the first block of rows, at (100, 130)
    "duplicate-both-late": lambda: _edited_fourier(12, lambda ops: ops.__setitem__(130, ops[100])),
    "tilted-late": lambda: _edited_fourier(
        9, lambda ops: ops.__setitem__(70, (ops[70] + 1e-6 * ops[2]) / np.sqrt(1 + 1e-12))),
    "nan-late": lambda: _edited_fourier(9, lambda ops: ops.__setitem__((75, 0, 0), np.nan)),
}


@pytest.mark.parametrize("name", sorted(BLOCKED_GRAM_BASES))
def test_blocked_gram_matches_whole_product(name):
    # more operators than one block of rows holds, so the Gram is formed in pieces
    basis = BLOCKED_GRAM_BASES[name]()
    assert len(basis.ops) > 64
    unit, orth, pair = _whole_gram_report(basis, 1e-10)
    report = _gram_report(basis, 1e-10)
    got = report.details["max_unitarity_residual"], report.details["max_orthonormality_residual"]
    np.testing.assert_allclose(got, (unit, orth), rtol=1e-13, atol=1e-15)
    assert report.passed == (pair is None)
    assert (report.witnesses[0]["pair"] if report.witnesses else None) == pair


# ---- verify_unitary_basis: the structured path against the dense Gram ----


def _dense_deviations(basis):
    """|(1/d) tr(X_a^dag X_b) - delta_ab| for every pair, from one Gram product."""
    n, d = len(basis.ops), basis.dim
    flat = basis.ops.reshape(n, d * d)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.abs(flat.conj() @ flat.T / d - np.eye(n))


def _close_or_both_nonfinite(got, want):
    if np.isfinite(got) or np.isfinite(want):
        assert abs(got - want) <= 1e-14, (got, want)


def assert_matches_dense_oracle(basis, structured, tol=1e-10):
    """verify_unitary_basis took the path named by structured and agrees with _gram_report.

    Verdicts and witness counts are equal, residuals agree within 1e-14 or
    are both non-finite, and the witness pair is the dense one unless its
    dense deviation ties the largest within 1e-14.
    """
    with mock.patch.object(entangled, "_gram_report", wraps=_gram_report) as dense:
        got = verify_unitary_basis(basis, tol)
    assert dense.called != structured
    want = _gram_report(basis, tol)
    assert got.passed == want.passed
    assert len(got.witnesses) == len(want.witnesses)
    _close_or_both_nonfinite(got.max_violation, want.max_violation)
    assert sorted(got.details) == sorted(want.details)
    for key in want.details:
        _close_or_both_nonfinite(got.details[key], want.details[key])
    for mine, theirs in zip(got.witnesses, want.witnesses):
        _close_or_both_nonfinite(mine["violation"], theirs["violation"])
        if mine["pair"] != theirs["pair"]:
            dev = _dense_deviations(basis)
            assert abs(dev[tuple(mine["pair"])] - dev.max()) <= 1e-14, (mine, theirs)
    return got


def _random_latin_square(d, rng):
    """A cyclic or, for d = 4 and 8, an elementary abelian table, with its rows,
    columns and symbols shuffled."""
    base = (np.bitwise_xor.outer(np.arange(d), np.arange(d)) if d in (4, 8) and rng.random() < 0.5
            else cyclic_latin_square(d))
    return rng.permutation(d)[base[rng.permutation(d)][:, rng.permutation(d)]]


def _random_hadamard(d, rng):
    """A Fourier or Sylvester matrix with rephased and shuffled rows and columns."""
    h = sylvester_hadamard(d) if d & (d - 1) == 0 and rng.random() < 0.5 else fourier_hadamard(d)
    h = h[rng.permutation(d)][:, rng.permutation(d)]
    return np.exp(2j * np.pi * rng.random(d))[:, None] * h * np.exp(2j * np.pi * rng.random(d))


def _custom_basis(d, seed):
    rng = np.random.default_rng(seed)
    return shift_multiply_basis([_random_hadamard(d, rng) for _ in range(d)],
                                _random_latin_square(d, rng))


GEN_BASES = (
    [pytest.param(lambda d=d: fourier_basis(d), id="fourier%d" % d) for d in range(1, 13)]
    + [pytest.param(lambda d=d: shift_multiply_basis([sylvester_hadamard(d)] * d,
                                                     cyclic_latin_square(d)),
                    id="sylvester%d" % d) for d in (2, 4, 8, 16)]
    + [pytest.param(lambda d=d, s=s: _custom_basis(d, s), id="custom%d-%d" % (d, s))
       for d, s in ((3, 0), (4, 1), (4, 2), (5, 3), (6, 4), (8, 5), (8, 6))]
)


@pytest.mark.parametrize("make", GEN_BASES)
def test_gen_constructions_take_structured_path(make):
    report = assert_matches_dense_oracle(make(), structured=True)
    assert report.passed


def _flip_sign(ops):
    # on Fourier d=3 this is entry (0, 2) of operator 7: the Gram deviations at (4, 7)
    # and (7, 4) then tie within one ulp, and the two paths may name either pair
    ops[-2].flat[np.flatnonzero(ops[-2])[0]] *= -1


def _set_nonzero(value):
    def edit(ops):
        ops[-1].flat[np.flatnonzero(ops[-1])[0]] = value
    return edit


def _add_nonzero(ops):
    ops[1].flat[np.flatnonzero(ops[1] == 0)[0]] = 0.5


def _swap_across_columns(ops):
    # operators 0 and 1 sit in columns j = 0 and j = 1 of the layout
    ops[[0, 1]] = ops[[1, 0]]


def _swap_within_column(ops):
    # operators 0 and d are rows i = 0 and i = 1 of column j = 0: still the layout
    d = ops.shape[-1]
    ops[[0, d]] = ops[[d, 0]]


# (edit of the operator stack, whether the result still has shift_multiply_basis's layout)
PERTURBATIONS = {
    "scaled-entry": (_set_nonzero(1.5), True),
    "sign-flip": (_flip_sign, True),
    "nan": (_set_nonzero(np.nan), True),
    "nan-imaginary": (_set_nonzero(complex(0.0, np.nan)), True),
    "inf": (_set_nonzero(np.inf), True),
    "minus-inf": (_set_nonzero(-np.inf), True),
    "huge": (_set_nonzero(1e300), True),
    "duplicate-across-columns": (lambda ops: ops.__setitem__(1, ops[0]), False),
    "duplicate-within-column": (lambda ops: ops.__setitem__(ops.shape[-1], ops[0]), True),
    "zero-hadamard-entry": (_set_nonzero(0.0), False),
    "minus-zero-hadamard-entry": (_set_nonzero(-0.0), False),
    "extra-nonzero": (_add_nonzero, False),
    "permuted-order": (_swap_across_columns, False),
    "permuted-within-column": (_swap_within_column, True),
}


@pytest.mark.parametrize("make", [lambda: fourier_basis(3), lambda: fourier_basis(5),
                                  lambda: _custom_basis(4, 7)],
                         ids=["fourier3", "fourier5", "custom4"])
@pytest.mark.parametrize("name", sorted(PERTURBATIONS))
def test_perturbed_bases_match_dense_oracle(make, name):
    edit, structured = PERTURBATIONS[name]
    basis = make()
    ops = basis.ops.copy()
    edit(ops)
    report = assert_matches_dense_oracle(EntangledBasis(basis.dim, ops), structured)
    assert report.passed == name.startswith("permuted")


def test_non_latin_support_takes_dense_path():
    # every column j shares one permutation, but two columns share a row of tau:
    # their operators overlap, which the certificate alone would not see
    d = 3
    tau = cyclic_latin_square(d)
    tau[:, 2] = tau[:, 1]
    hs = np.stack([fourier_hadamard(d)] * d)
    basis = EntangledBasis(d, _shift_multiply_ops(hs, tau))
    report = assert_matches_dense_oracle(basis, structured=False)
    assert not report and _shift_multiply_report(hs, 1e-10)


def test_non_permutation_columns_take_dense_path():
    # two rows of tau agree, so no P_j is a permutation and some row of every
    # operator is zero, which the certificate alone would not see either
    d = 3
    tau = cyclic_latin_square(d)
    tau[2] = tau[1]
    hs = np.stack([fourier_hadamard(d)] * d)
    basis = EntangledBasis(d, _shift_multiply_ops(hs, tau))
    report = assert_matches_dense_oracle(basis, structured=False)
    assert not report and _shift_multiply_report(hs, 1e-10)
