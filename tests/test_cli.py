"""Tests for the command-line interface: exit codes, file formats,
deterministic reports."""

import json

import numpy as np
import pytest

from entbasis import flip_operator, haar_unitary, tensor
from entbasis.cli import main
from entbasis.fileio import basis_from_obj, load_json, matrix_to_obj, save_json

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_gen_verify_pipeline(d, tmp_path):
    out = tmp_path / "basis.json"
    assert main(["gen", "--dim", str(d), "--out", str(out)]) == 0
    assert main(["verify", str(out)]) == 0


def test_gen_dim_one(tmp_path):
    out = tmp_path / "b.json"
    assert main(["gen", "--dim", "1", "--out", str(out)]) == 0
    basis = basis_from_obj(load_json(out))
    assert len(basis.ops) == 1
    assert np.allclose(basis.ops[0], [[1.0]])


def test_gen_sylvester(tmp_path):
    out = tmp_path / "s.json"
    assert main(["gen", "--dim", "4", "--construction", "sylvester",
                 "--out", str(out)]) == 0
    assert main(["verify", str(out)]) == 0
    assert main(["gen", "--dim", "3", "--construction", "sylvester",
                 "--out", str(out)]) == 2


def test_gen_custom_hadamard(tmp_path):
    hpath = tmp_path / "h.json"
    save_json(matrix_to_obj(np.array([[1, 1], [1, -1]], dtype=complex)), hpath)
    out = tmp_path / "b.json"
    assert main(["gen", "--dim", "2", "--construction", "custom",
                 "--hadamard", str(hpath), "--out", str(out)]) == 0
    assert main(["verify", str(out)]) == 0


def test_gen_custom_rejects_non_hadamard(tmp_path):
    hpath = tmp_path / "h.json"
    save_json(matrix_to_obj(np.eye(2)), hpath)
    assert main(["gen", "--dim", "2", "--construction", "custom",
                 "--hadamard", str(hpath)]) == 2


def test_gen_stdout(capsys):
    assert main(["gen", "--dim", "2"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["dim"] == 2
    assert len(obj["operators"]) == 4


def test_verify_detects_corruption(tmp_path):
    out = tmp_path / "b.json"
    main(["gen", "--dim", "2", "--out", str(out)])
    obj = load_json(out)
    obj["operators"][1] = obj["operators"][0]
    save_json(obj, out)
    assert main(["verify", str(out)]) == 1


def test_verify_malformed_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"rows": 2}')
    assert main(["verify", str(bad)]) == 2


def test_verify_missing_file(tmp_path):
    assert main(["verify", str(tmp_path / "nope.json")]) == 2


def test_matrix_entry_not_a_pair_is_usage_error(tmp_path):
    path = tmp_path / "m.json"
    save_json({"rows": 2, "cols": 2, "data": [1, 2, 3, 4]}, path)
    assert main(["factorize", str(path)]) == 2


def test_latin_object_without_table_is_usage_error(tmp_path):
    hpath, lpath = tmp_path / "h.json", tmp_path / "l.json"
    save_json(matrix_to_obj(np.array([[1, 1], [1, -1]], dtype=complex)), hpath)
    save_json({"rows": [[0, 1], [1, 0]]}, lpath)
    assert main(["gen", "--dim", "2", "--construction", "custom",
                 "--hadamard", str(hpath), "--latin", str(lpath)]) == 2


def test_latin_entries_must_be_integers(tmp_path):
    # 1.7 and 0.2 would truncate to a valid square
    hpath, lpath = tmp_path / "h.json", tmp_path / "l.json"
    save_json(matrix_to_obj(np.array([[1, 1], [1, -1]], dtype=complex)), hpath)
    save_json([[0, 1.7], [1, 0.2]], lpath)
    assert main(["gen", "--dim", "2", "--construction", "custom",
                 "--hadamard", str(hpath), "--latin", str(lpath)]) == 2


def test_non_integer_dim_is_usage_error(tmp_path):
    path = tmp_path / "b.json"
    assert main(["gen", "--dim", "1", "--out", str(path)]) == 0
    obj = load_json(path)
    obj["dim"] = True
    save_json(obj, path)
    assert main(["verify", str(path)]) == 2


class TestFactorize:
    def test_product(self, tmp_path, capsys):
        u = tensor(haar_unitary(2, 5), haar_unitary(2, 6))
        path = tmp_path / "u.json"
        save_json(matrix_to_obj(u), path)
        report = tmp_path / "r.json"
        assert main(["factorize", str(path), "--report", str(report)]) == 0
        assert "kind: local" in capsys.readouterr().out
        obj = load_json(report)
        assert obj["kind"] == "local"
        assert obj["residual"] < 1e-10
        assert "u1" in obj and "u2" in obj

    def test_flip_product(self, tmp_path, capsys):
        u = tensor(haar_unitary(2, 7), haar_unitary(2, 8)) @ flip_operator(2)
        path = tmp_path / "u.json"
        save_json(matrix_to_obj(u), path)
        assert main(["factorize", str(path)]) == 0
        assert "kind: local_flip" in capsys.readouterr().out

    def test_cnot_neither_still_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "cnot.json"
        save_json(matrix_to_obj(CNOT), path)
        report = tmp_path / "r.json"
        assert main(["factorize", str(path), "--report", str(report)]) == 0
        assert "kind: neither" in capsys.readouterr().out
        assert "u1" not in load_json(report)

    def test_non_unitary_is_usage_error(self, tmp_path):
        path = tmp_path / "m.json"
        save_json(matrix_to_obj(np.diag([1.0, 2.0, 1.0, 1.0])), path)
        assert main(["factorize", str(path)]) == 2


class TestCheck:
    def test_bell_all_default_passes(self, tmp_path):
        report = tmp_path / "r.json"
        assert main(["check", "bell-all", "--trials", "100",
                     "--report", str(report)]) == 0
        objs = load_json(report)
        assert [o["name"] for o in objs] == [
            "bell-condition-2", "bell-condition-4",
            "bell-condition-5", "bell-condition-6",
        ]
        assert all(o["passed"] for o in objs)

    def test_bell_all_fourier_d3_fails_with_witnesses(self, tmp_path):
        basis = tmp_path / "b3.json"
        main(["gen", "--dim", "3", "--out", str(basis)])
        report = tmp_path / "r.json"
        assert main(["check", "bell-all", "--basis", str(basis),
                     "--trials", "50", "--report", str(report)]) == 1
        objs = load_json(report)
        assert all(not o["passed"] for o in objs)
        assert all(o["witnesses"] for o in objs)

    def test_universality_d2(self):
        assert main(["check", "universality", "--trials", "200"]) == 0

    def test_universality_d3_search(self):
        assert main(["check", "universality", "--dim", "3",
                     "--candidates", "10", "--trials", "50"]) == 0

    def test_clifford(self):
        assert main(["check", "clifford", "--count", "7"]) == 0
        assert main(["check", "clifford", "--count", "4"]) == 2

    def test_clifford_takes_no_sampling_flags(self):
        with pytest.raises(SystemExit) as exc:
            main(["check", "clifford", "--count", "3", "--trials", "7", "--seed", "4"])
        assert exc.value.code == 2

    def test_det_criterion(self):
        assert main(["check", "det-criterion", "--trials", "100"]) == 0

    @pytest.mark.parametrize("argv", [
        ["check", "bell-all", "--trials", "0"],
        ["check", "det-criterion", "--trials", "-3"],
        ["check", "universality", "--dim", "3", "--candidates", "0"],
        ["check", "universality", "--dim", "0"],
        ["check", "universality", "--dim", "-1"],
    ])
    def test_no_samples_is_usage_error(self, argv):
        # a sampled check that draws nothing must not pass
        assert main(argv) == 2

    def test_reports_byte_identical_for_equal_seeds(self, tmp_path):
        # the failing d=3 run records witnesses and spans several chunks of trials
        b3 = tmp_path / "b3.json"
        assert main(["gen", "--dim", "3", "--out", str(b3)]) == 0
        for extra, trials, code in (([], "60", 0), (["--basis", str(b3)], "500", 1)):
            r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
            for path in (r1, r2):
                assert main(["check", "bell-all", *extra, "--trials", trials, "--seed", "42",
                             "--report", str(path)]) == code
            assert r1.read_bytes() == r2.read_bytes()
        assert any(rep["witnesses"] for rep in json.loads(r1.read_text()))

    def test_gen_outputs_byte_identical(self, tmp_path):
        g1, g2 = tmp_path / "g1.json", tmp_path / "g2.json"
        for path in (g1, g2):
            assert main(["gen", "--dim", "5", "--out", str(path)]) == 0
        assert g1.read_bytes() == g2.read_bytes()


def test_gen_stdout_same_bytes_as_out(tmp_path, capsys):
    out = tmp_path / "b4.json"
    assert main(["gen", "--dim", "4", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["gen", "--dim", "4"]) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


@pytest.mark.parametrize("command", ["factorize", "verify"])
def test_entry_beyond_double_range_is_usage_error(command, tmp_path, capsys):
    # a 400-digit JSON integer has no double; it used to escape as OverflowError
    path = tmp_path / "big.json"
    matrix = '{"rows": 1, "cols": 1, "data": [[1%s, 0]]}' % ("0" * 399)
    path.write_text(matrix if command == "factorize"
                    else '{"dim": 1, "operators": [%s]}' % matrix)
    assert main([command, str(path)]) == 2
    assert "entry 0 is too large for a double" in capsys.readouterr().err


def test_too_deeply_nested_file_is_usage_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert main(["verify", str(path)]) == 2


def test_verify_overflowing_entries_fails_with_witness(tmp_path, capsys):
    # |1e300 + 1e300j|^2 overflows: the residuals are NaN, which must fail, not pass
    # silently or fail without a witness
    path = tmp_path / "b.json"
    path.write_text('{"dim": 1, "operators": [{"rows": 1, "cols": 1, '
                    '"data": [[1e300, 1e300]]}]}')
    assert main(["verify", str(path)]) == 1
    assert "offending pair: (0, 0)" in capsys.readouterr().out
