"""Tests for JSON serialization of matrices, bases, and reports."""

import json

import numpy as np
import pytest

from entbasis import (
    AntilinearOp,
    CheckReport,
    EntangledBasis,
    StateVector,
    bell_basis,
    build_clifford_generators,
    check_bell_condition,
    check_det_criterion_agreement,
    check_preserves_max_entangled,
    check_universality,
    clifford_check,
    fourier_basis,
    haar_unitary,
    is_hadamard,
    is_max_entangled,
    universality_search,
    validate_latin_square,
    verify_unitary_basis,
)
from entbasis.fileio import (
    basis_from_obj,
    basis_to_obj,
    load_json,
    matrix_from_obj,
    matrix_to_obj,
    report_to_obj,
    save_json,
)


class TestMatrixRoundTrip:
    def test_bit_exact(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        back = matrix_from_obj(matrix_to_obj(m))
        assert np.array_equal(back, m)

    def test_through_file(self, tmp_path):
        m = haar_unitary(4, seed=1)
        path = tmp_path / "m.json"
        save_json(matrix_to_obj(m), path)
        assert np.array_equal(matrix_from_obj(load_json(path)), m)

    def test_missing_fields(self):
        with pytest.raises(ValueError, match="fields"):
            matrix_from_obj({"rows": 2, "cols": 2})

    def test_wrong_length(self):
        with pytest.raises(ValueError, match="length"):
            matrix_from_obj({"rows": 2, "cols": 2, "data": [[1, 0]] * 3})

    def test_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            matrix_from_obj(
                {"rows": 1, "cols": 2, "data": [[1, 0], [float("inf"), 0]]}
            )

    def test_bad_pair(self):
        with pytest.raises(ValueError, match="pair"):
            matrix_from_obj({"rows": 1, "cols": 1, "data": [[1, 0, 0]]})

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            matrix_from_obj({"rows": 0, "cols": 1, "data": []})

    @pytest.mark.parametrize("field, value", [("rows", 1.7), ("cols", True), ("rows", "1")])
    def test_non_integer_dims(self, field, value):
        obj = {"rows": 1, "cols": 1, "data": [[1, 0]]}
        obj[field] = value
        with pytest.raises(ValueError, match="integer"):
            matrix_from_obj(obj)

    @pytest.mark.parametrize("data", [[1], [["a", 0]], 5, {"0": [1, 0]}])
    def test_data_not_a_list_of_pairs(self, data):
        with pytest.raises(ValueError, match="pair"):
            matrix_from_obj({"rows": 1, "cols": 1, "data": data})


class TestBasisRoundTrip:
    def test_bit_exact(self):
        basis = fourier_basis(3)
        back = basis_from_obj(basis_to_obj(basis))
        assert back.dim == 3
        for a, b in zip(back.ops, basis.ops):
            assert np.array_equal(a, b)

    def test_wrong_count(self):
        obj = basis_to_obj(fourier_basis(2))
        obj["operators"] = obj["operators"][:3]
        with pytest.raises(ValueError, match="count"):
            basis_from_obj(obj)

    def test_wrong_operator_shape(self):
        obj = basis_to_obj(fourier_basis(2))
        obj["operators"][1] = matrix_to_obj(np.eye(3))
        with pytest.raises(ValueError, match="shape"):
            basis_from_obj(obj)

    @pytest.mark.parametrize("dim", [True, 1.0, "1"])
    def test_non_integer_dim(self, dim):
        obj = basis_to_obj(fourier_basis(1))
        obj["dim"] = dim
        with pytest.raises(ValueError, match="integer"):
            basis_from_obj(obj)

    def test_operators_not_a_list(self):
        with pytest.raises(ValueError, match="list"):
            basis_from_obj({"dim": 1, "operators": 5})


class TestDeterminism:
    def test_identical_saves_byte_identical(self, tmp_path):
        obj = basis_to_obj(fourier_basis(4))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_json(obj, p1)
        save_json(obj, p2)
        assert p1.read_bytes() == p2.read_bytes()


def test_report_serialization():
    report = CheckReport(
        name="sample",
        trials=10,
        max_violation=0.5,
        threshold=1e-10,
        passed=False,
        verdict="violation witnessed",
        witnesses=({"trial": 3, "seed": 0, "violation": 0.5},),
        details={"dim": 2},
    )
    obj = report_to_obj(report)
    assert obj["maxViolation"] == 0.5
    assert obj["witnesses"][0]["trial"] == 3
    assert obj["details"]["dim"] == 2
    # everything JSON-native
    import json

    json.dumps(obj)


def _d3_antilinear():
    rng = np.random.default_rng(3)
    return AntilinearOp(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))


# failing inputs where possible, so that witnesses and details are filled in
EVERY_CHECK = {
    "is_hadamard": lambda: is_hadamard(np.eye(2)),
    "validate_latin_square": lambda: validate_latin_square([[0, 1], [0, 1]]),
    "is_max_entangled": lambda: is_max_entangled(StateVector(2, 2, [1, 0, 0, 0])),
    "verify_unitary_basis": lambda: verify_unitary_basis(
        EntangledBasis(2, fourier_basis(2).ops[[0, 0, 2, 3]])),
    **{
        "bell_condition_%d" % c: (lambda c=c: check_bell_condition(fourier_basis(3), c, trials=5))
        for c in (2, 3, 4, 5, 6)
    },
    "universality_int_seed": lambda: check_universality(
        _d3_antilinear(), trials=5, seed=7, phase="best"),
    "universality_generator_seed": lambda: check_universality(
        _d3_antilinear(), trials=5, seed=np.random.default_rng(7), phase="best"),
    "universality_search": lambda: universality_search(candidates=2, trials=5),
    "det_criterion_agreement": lambda: check_det_criterion_agreement(trials=4),
    "preserves_max_entangled": lambda: check_preserves_max_entangled(
        np.eye(4)[[0, 1, 3, 2]], trials=5),
    "clifford_check": lambda: clifford_check(build_clifford_generators(3) * 2),
}


@pytest.mark.parametrize("name", sorted(EVERY_CHECK))
def test_every_report_encodes_as_json(name):
    report = EVERY_CHECK[name]()
    assert isinstance(report, CheckReport)
    json.dumps(report_to_obj(report))


def test_witness_seed_only_when_integer():
    ints = EVERY_CHECK["universality_int_seed"]()
    gens = EVERY_CHECK["universality_generator_seed"]()
    assert ints.witnesses and gens.witnesses
    assert all(w["seed"] == 7 for w in ints.witnesses)
    assert all("seed" not in w for w in gens.witnesses)
