"""Tests for complex Hadamard matrices and Latin squares."""

import itertools

import numpy as np
import pytest

from entbasis import (
    cyclic_latin_square,
    fourier_hadamard,
    is_hadamard,
    sylvester_hadamard,
    tensor_hadamard,
    validate_latin_square,
)


class TestFourier:
    def test_order_two(self):
        assert np.allclose(fourier_hadamard(2), [[1, 1], [1, -1]], atol=1e-12)

    def test_order_one(self):
        assert np.array_equal(fourier_hadamard(1), [[1.0]])

    def test_order_three_entries_and_product(self):
        h = fourier_hadamard(3)
        w = np.exp(2j * np.pi / 3)
        for k in range(3):
            for l in range(3):
                assert h[k, l] == pytest.approx(w ** (k * l), abs=1e-12)
        assert np.allclose(h @ h.conj().T, 3 * np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("d", range(1, 13))
    def test_is_hadamard_through_order_twelve(self, d):
        assert is_hadamard(fourier_hadamard(d), tol=1e-12)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            fourier_hadamard(0)


class TestIsHadamard:
    def test_identity_rejected(self):
        report = is_hadamard(np.eye(2))
        assert not report
        # off-diagonal moduli are 0, a deviation of exactly 1
        assert report.details["max_modulus_deviation"] == pytest.approx(1.0)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            is_hadamard(np.ones((2, 3)))

    def test_unimodular_but_not_orthogonal(self):
        report = is_hadamard(np.ones((2, 2)))
        assert not report
        assert report.details["max_modulus_deviation"] < 1e-15
        assert report.details["max_product_residual"] == pytest.approx(2.0)


class TestTensorHadamard:
    def test_f2_f2_is_sylvester(self):
        expected = np.array(
            [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]],
            dtype=float,
        )
        assert np.allclose(tensor_hadamard(fourier_hadamard(2), fourier_hadamard(2)),
                           expected, atol=1e-12)

    def test_trivial_factor(self):
        h = tensor_hadamard(fourier_hadamard(2), fourier_hadamard(1))
        assert np.allclose(h, fourier_hadamard(2), atol=1e-14)

    def test_mixed_orders(self):
        h = tensor_hadamard(fourier_hadamard(2), fourier_hadamard(3))
        assert h.shape == (6, 6)
        assert is_hadamard(h, tol=1e-11)

    def test_all_pairs_f2_to_f5(self):
        mats = [fourier_hadamard(d) for d in range(2, 6)]
        for h1, h2 in itertools.product(mats, repeat=2):
            assert is_hadamard(tensor_hadamard(h1, h2), tol=1e-10)


class TestSylvester:
    @pytest.mark.parametrize("d", [1, 2, 4, 8])
    def test_powers_of_two(self, d):
        h = sylvester_hadamard(d)
        assert h.shape == (d, d)
        assert is_hadamard(h, tol=1e-12)
        # Sylvester matrices are real with +-1 entries
        assert np.abs(h.imag).max() < 1e-15
        assert np.allclose(np.abs(h.real), 1.0, atol=1e-15)

    @pytest.mark.parametrize("d", [3, 5, 6, 12])
    def test_non_powers_rejected(self, d):
        with pytest.raises(ValueError):
            sylvester_hadamard(d)


class TestCyclicLatinSquare:
    def test_order_two(self):
        assert np.array_equal(cyclic_latin_square(2), [[0, 1], [1, 0]])

    def test_order_three(self):
        assert np.array_equal(cyclic_latin_square(3), [[0, 1, 2], [1, 2, 0], [2, 0, 1]])

    @pytest.mark.parametrize("d", range(1, 9))
    def test_validates(self, d):
        assert validate_latin_square(cyclic_latin_square(d))


class TestValidateLatinSquare:
    def test_repeated_column_entry(self):
        report = validate_latin_square([[0, 1], [0, 1]])
        assert not report
        assert report.details["bad_row"] is None
        assert report.details["bad_column"] == 0

    def test_valid_two_by_two(self):
        assert validate_latin_square([[0, 1], [1, 0]])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            validate_latin_square([[0, 2], [2, 0]])

    def test_non_square(self):
        with pytest.raises(ValueError):
            validate_latin_square([[0, 1, 2], [1, 2, 0]])

    def test_float_entries_rejected(self):
        with pytest.raises(ValueError):
            validate_latin_square(np.zeros((2, 2)))

    @staticmethod
    def _cancellation_laws_hold(t):
        # brute force over all triples: both cancellation laws
        d = t.shape[0]
        for i, j, k in itertools.product(range(d), repeat=3):
            if i != j and t[i, k] == t[j, k]:
                return False
            if i != j and t[k, i] == t[k, j]:
                return False
        return True

    @pytest.mark.parametrize("d", range(2, 7))
    def test_matches_cancellation_laws(self, d):
        rng = np.random.default_rng(d)
        base = cyclic_latin_square(d)
        candidates = [base]
        for _ in range(5):
            # row/column shuffles preserve Latin structure
            candidates.append(base[rng.permutation(d)][:, rng.permutation(d)])
        for _ in range(5):
            candidates.append(rng.integers(0, d, size=(d, d)))
        for t in candidates:
            assert bool(validate_latin_square(t)) == self._cancellation_laws_hold(t)
