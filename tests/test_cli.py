"""Tests for the command-line interface: exit codes, file formats,
deterministic reports."""

import argparse
import json
import os
import platform
import subprocess
import sys
import warnings

import numpy as np
import pytest

import entbasis
from entbasis import (
    EntangledBasis,
    canonicalize_bell_basis,
    flip_operator,
    fourier_basis,
    haar_unitary,
    tensor,
    verify_unitary_basis,
)
from entbasis import cli
from entbasis.cli import build_parser, main
from entbasis.fileio import (
    basis_from_obj,
    basis_to_obj,
    load_basis,
    load_json,
    matrix_to_obj,
    report_to_obj,
    save_json,
)

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


@pytest.mark.parametrize("construction", ["fourier", "sylvester"])
@pytest.mark.parametrize("flag", ["--latin", "--hadamard"])
def test_gen_refuses_custom_flags_for_a_fixed_construction(construction, flag, tmp_path, capsys):
    # the flag would be ignored: the file would be the construction's own basis
    path, out = tmp_path / "in.json", tmp_path / "b.json"
    save_json([[(i + j) % 4 for j in range(4)] for i in range(4)] if flag == "--latin"
              else matrix_to_obj(np.array([[1, 1], [1, -1]], dtype=complex)), path)
    argv = ["gen", "--dim", "4", "--construction", construction, flag, str(path),
            "--out", str(out)]
    assert main(argv) == 2
    assert "need --construction custom" in capsys.readouterr().err
    assert not out.exists()


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


def test_verify_writes_its_report(tmp_path, capsys):
    basis, report = tmp_path / "b.json", tmp_path / "r.json"
    main(["gen", "--dim", "3", "--out", str(basis)])
    assert main(["verify", str(basis), "--report", str(report)]) == 0
    obj = load_json(report)
    assert obj == report_to_obj(verify_unitary_basis(load_basis(basis)))
    assert obj["name"] == "unitary-basis" and obj["passed"] and obj["witnesses"] == []
    # a corrupted file: the report fails and names the pair that the summary prints
    corrupt = load_json(basis)
    corrupt["operators"][1] = corrupt["operators"][0]
    save_json(corrupt, basis)
    capsys.readouterr()
    assert main(["verify", str(basis), "--report", str(report)]) == 1
    obj = load_json(report)
    assert not obj["passed"]
    assert "offending pair: %s" % (tuple(obj["witnesses"][0]["pair"]),) \
        in capsys.readouterr().out
    # a NaN tolerance is a usage error, refused before any report is written
    report.unlink()
    assert main(["verify", str(basis), "--tol", "nan", "--report", str(report)]) == 2
    assert not report.exists()


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

    def test_bell_all_runs_the_pair_kernel_once(self, tmp_path, monkeypatch):
        # condition 5's report is condition 6's under its own name: one kernel call for both
        from entbasis import bell
        calls, real = [], bell._anticommutators
        monkeypatch.setattr(bell, "_anticommutators", lambda *a: calls.append(1) or real(*a))
        basis = tmp_path / "b3.json"
        main(["gen", "--dim", "3", "--out", str(basis)])
        report = tmp_path / "r.json"
        assert main(["check", "bell-all", "--basis", str(basis), "--trials", "50",
                     "--report", str(report)]) == 1
        assert len(calls) == 1
        five, six = load_json(report)[2:]
        assert five["name"] == "bell-condition-5" and six["name"] == "bell-condition-6"
        assert {**five, "name": None} == {**six, "name": None}

    @pytest.mark.parametrize("given", [True, False], ids=["basis-file", "bell"])
    def test_bell_all_verifies_the_basis_once(self, given, tmp_path, monkeypatch):
        # the verdict that lets the basis in is the pair rule's gate: no second verify
        from entbasis import bell, cli, entangled
        calls, real = [], entangled.verify_unitary_basis
        for module in (bell, cli, entangled):
            monkeypatch.setattr(module, "verify_unitary_basis",
                                lambda *a: calls.append(1) or real(*a))
        basis = tmp_path / "b3.json"
        main(["gen", "--dim", "3", "--out", str(basis)])
        argv = ["check", "bell-all"] + (["--basis", str(basis)] if given else [])
        calls.clear()
        assert main(argv) == (1 if given else 0)
        assert len(calls) == 1

    def test_bell_all_ignores_trials_and_seed(self, tmp_path):
        # every condition is decided exactly: the flags are accepted and reach nothing
        basis, r1, r2 = tmp_path / "b3.json", tmp_path / "r1.json", tmp_path / "r2.json"
        main(["gen", "--dim", "3", "--out", str(basis)])
        for path, trials, seed in ((r1, "5", "1"), (r2, "3000", "9")):
            assert main(["check", "bell-all", "--basis", str(basis), "--trials", trials,
                         "--seed", seed, "--report", str(path)]) == 1
        assert r1.read_bytes() == r2.read_bytes()
        assert [o["trials"] for o in load_json(r1)] == [0] * 4

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

    def test_det_criterion_ignores_trials_and_seed(self, tmp_path, capsys):
        # decided exactly: the flags are accepted and reach nothing, a trial count below 1 too
        paths = [tmp_path / ("r%d.json" % k) for k in range(3)]
        for path, trials, seed in zip(paths, ("-3", "5", "1000000000000"), ("1", "9", "4")):
            assert main(["check", "det-criterion", "--trials", trials, "--seed", seed,
                         "--report", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()
        assert load_json(paths[0])["trials"] == 0
        assert "trials -" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["check", "det-criterion", "--help"])
        assert capsys.readouterr().out.count("accepted and ignored") == 2  # --trials and --seed

    @pytest.mark.parametrize("argv", [
        ["check", "universality", "--candidates", "0"],
        ["check", "universality", "--dim", "3", "--candidates", "0"],
        ["check", "universality", "--dim", "0"],
        ["check", "universality", "--dim", "-1"],
    ])
    def test_no_samples_is_usage_error(self, argv):
        # a search with no candidate, at d=2 too where none is drawn, or no dimension, must not
        # pass
        assert main(argv) == 2

    def test_reports_byte_identical_for_equal_seeds(self, tmp_path):
        # the failing d=3 run records witnesses
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


def test_gen_refuses_family_that_fails_certificate(tmp_path, capsys):
    # Hadamard within tol (modulus deviation delta, product residual 2 delta^2), but its
    # operators have unitarity residual 2 sqrt(2) delta = 2.5e-10 > tol
    delta = 9e-11
    hpath = tmp_path / "h.json"
    save_json(matrix_to_obj(np.array([[1 + delta, 1 - delta], [1 - delta, -1 - delta]])), hpath)
    assert main(["gen", "--dim", "2", "--construction", "custom",
                 "--hadamard", str(hpath)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # the refusal of every basis gate, in its words
    assert captured.err == ("error: input fails basis invariants at pair (0, 0): "
                            "unitarity 2.546e-10, orthonormality 4.050e-21\n")


def test_gen_writes_a_family_verify_passes_at_the_edge_of_tol(tmp_path):
    # unimodular entries, HH^dag - 2I off by phi but HH^dag / 2 - I by phi / 2 < tol
    phi = 1.5e-10
    hpath, out = tmp_path / "h.json", tmp_path / "b.json"
    save_json(matrix_to_obj(np.array([[1, 1], [1, -np.exp(1j * phi)]])), hpath)
    assert main(["gen", "--dim", "2", "--construction", "custom", "--hadamard", str(hpath),
                 "--out", str(out)]) == 0
    assert main(["verify", str(out)]) == 0


def test_bell_all_and_canonicalization_refuse_a_non_basis_alike(tmp_path, capsys):
    # one basis gate: both name the pair and both residuals in the same words
    basis = EntangledBasis(2, fourier_basis(2).ops[[0, 0, 2, 3]])
    path = tmp_path / "b.json"
    save_json(basis_to_obj(basis), path)
    with pytest.raises(ValueError, match="invariants") as exc:
        canonicalize_bell_basis(basis)
    assert main(["check", "bell-all", "--basis", str(path), "--trials", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % exc.value
    assert "at pair (0, 1): unitarity" in captured.err


def _tol_argv(command, tmp_path):
    if command in ("verify", "bell-all"):
        path = tmp_path / "b.json"
        assert main(["gen", "--dim", "2", "--out", str(path)]) == 0
        return ["verify", str(path)] if command == "verify" else [
            "check", "bell-all", "--basis", str(path)]
    if command == "factorize":
        path = tmp_path / "u.json"
        save_json(matrix_to_obj(CNOT), path)
        return ["factorize", str(path)]
    return {"gen": ["gen", "--dim", "2"],
            "universality": ["check", "universality", "--dim", "3"],
            "clifford": ["check", "clifford"],
            "det-criterion": ["check", "det-criterion"]}[command]


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
@pytest.mark.parametrize("command", ["gen", "verify", "factorize", "bell-all", "universality",
                                     "clifford", "det-criterion"])
def test_bad_tolerance_is_usage_error(command, tol, tmp_path, capsys):
    # a NaN or non-positive tol fails every check, and inf passes every one
    argv = _tol_argv(command, tmp_path)
    capsys.readouterr()
    assert main(argv + ["--tol=" + tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "tolerance must be finite and positive" in captured.err


def _overflowing_files(tmp_path):
    # entries of 1e300: X^dag X overflows, so every residual is inf or NaN
    matrix = tmp_path / "big.json"
    save_json(matrix_to_obj(1e300 * np.eye(4)), matrix)
    basis = tmp_path / "big_basis.json"
    ops = 1e300 * np.ones((4, 2, 2), dtype=complex)
    save_json({"dim": 2, "operators": [matrix_to_obj(x) for x in ops]}, basis)
    return matrix, basis


def test_factorize_overflowing_unitary_is_usage_error(tmp_path, capsys):
    # the NaN unitarity residual used to pass the gate: "kind: local", exit 0
    matrix, _ = _overflowing_files(tmp_path)
    assert main(["factorize", str(matrix)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: input is not unitary: residual nan\n"


def test_overflowing_input_prints_no_numpy_warnings(tmp_path, capfd):
    matrix, basis = _overflowing_files(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", str(basis)]) == 1
        out, err = capfd.readouterr()
        assert out.splitlines()[1:] == ["offending pair: (0, 0)"] and err == ""
        assert main(["factorize", str(matrix)]) == 2
        out, err = capfd.readouterr()
        assert out == "" and err == "error: input is not unitary: residual nan\n"


def test_universality_search_threshold_is_tol(tmp_path, capsys):
    # the weakest violation at d=3 is O(1): above 1e-10, below 5
    argv = ["check", "universality", "--dim", "3", "--candidates", "5", "--trials", "20"]
    reports = {}
    for tol, code in (("1e-10", 0), ("5", 1)):
        report = tmp_path / ("univ_%s.json" % tol)
        assert main(argv + ["--tol", tol, "--report", str(report)]) == code
        assert "(threshold %.1e," % float(tol) in capsys.readouterr().out
        reports[tol] = load_json(report)
    assert reports["1e-10"]["maxViolation"] == reports["5"]["maxViolation"]
    assert 0.1 < reports["5"]["maxViolation"] < 5
    assert [r["threshold"] for r in reports.values()] == [1e-10, 5.0]


@pytest.mark.parametrize("dim", ["2", "3"])
@pytest.mark.parametrize("candidates", ["0", "-5"])
def test_candidates_below_one_refused_at_every_dim(dim, candidates, capsys):
    # d=2 draws no candidate, but a count below one is still a bad command line
    argv = ["check", "universality", "--dim", dim, "--candidates", candidates, "--trials", "5"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: candidates must be at least 1, got %s\n" % candidates


def test_factorize_numeric_string_entry_is_usage_error(tmp_path, capsys):
    path = tmp_path / "u.json"
    path.write_text(json.dumps({"rows": 2, "cols": 2,
                                "data": [["1", 0], [0, 0], [0, 0], ["1", 0]]}))
    assert main(["factorize", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: entry 0 is not a [re, im] pair\n"


def test_verify_and_bell_all_read_compact_json(tmp_path):
    # any valid JSON basis file is read; gen's own layout is only the fast case
    out = tmp_path / "b3.json"
    assert main(["gen", "--dim", "3", "--out", str(out)]) == 0
    compact = tmp_path / "b3c.json"
    compact.write_text(json.dumps(load_json(out)))
    assert main(["verify", str(compact)]) == 0
    assert main(["check", "bell-all", "--basis", str(compact), "--trials", "20"]) == 1


def _run(argv, capsys, report=None):
    """Exit code (main's, or argparse's SystemExit), stdout, stderr and report bytes."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err, report.read_bytes() if report else None


def test_parser_built_once_per_process(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser.cache_clear()
    build_parser()
    one_tree = len(built)
    assert one_tree > 1
    built.clear()
    build_parser.cache_clear()
    for argv in (["gen", "--dim", "2"], ["verify", "missing.json"],
                 ["check", "det-criterion", "--trials", "10"], ["check", "clifford", "--count", "3"],
                 ["factorize", "missing.json"]):
        main(argv)
    capsys.readouterr()
    assert len(built) == one_tree


def test_reused_parser_is_stateless(tmp_path, monkeypatch, capsys):
    # each call on the shared parser matches the same call on a freshly built one
    monkeypatch.chdir(tmp_path)
    save_json(matrix_to_obj(np.array([[1, 1], [1, -1]], dtype=complex)), "h.json")
    calls = [
        (["check", "universality", "--dim", "3", "--candidates", "3", "--trials", "10"], None),
        (["check", "nope"], None),
        (["verify", "missing.json"], None),
        (["check", "bell-all", "--trials", "50", "--seed", "4", "--report", "a.json"],
         tmp_path / "a.json"),
        (["gen", "--dim", "2", "--construction", "custom", "--hadamard", "h.json"], None),
        (["gen", "--dim", "2"], None),
    ]
    build_parser.cache_clear()
    shared = [_run(argv, capsys, report) for argv, report in calls]
    fresh = []
    for argv, report in calls:
        build_parser.cache_clear()
        fresh.append(_run(argv, capsys, report))
    assert shared == fresh
    assert [r[0] for r in shared] == [0, 2, 2, 0, 0, 0]
    # a subcommand's options do not reach the namespace of the next parse
    parser = build_parser()
    parser.parse_args(["check", "universality", "--dim", "3"])
    assert not hasattr(parser.parse_args(["check", "bell-all"]), "dim")
    parser.parse_args(["gen", "--dim", "2", "--hadamard", "x", "y"])
    assert parser.parse_args(["gen", "--dim", "2"]).hadamard is None


@pytest.mark.parametrize("argv", [["--help"], ["check", "bell-all", "--help"]])
def test_help_same_on_first_and_later_calls(argv, capsys):
    build_parser.cache_clear()
    first = _run(argv, capsys)
    assert _run(["check", "det-criterion", "--trials", "10"], capsys)[0] == 0
    assert first[0] == 0 and first[1].startswith("usage: entbasis")
    assert _run(argv, capsys) == first


def test_verify_prints_every_line_before_writing_its_report(tmp_path, capsys):
    # the report is written after stdout, so a report that cannot be written (exit 2)
    # still follows the summary and the offending pair
    basis = tmp_path / "b.json"
    obj = basis_to_obj(fourier_basis(2))
    obj["operators"][1] = obj["operators"][0]
    save_json(obj, basis)
    assert main(["verify", str(basis), "--report", str(tmp_path / "no" / "r.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1:] == ["offending pair: (0, 1)"]
    assert captured.out.startswith("unitary-basis ") and "FAIL" in captured.out
    assert captured.err.startswith("error: ")


# one fresh process per command, so that no earlier call has moved glibc's dynamic
# thresholds: 5 warm calls, then the mean minor-fault count of 20 more
_WARM_FAULTS = """
import contextlib, io, resource, sys
from entbasis.cli import main
def call():
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(sys.argv[1:]) == 0
for _ in range(5):
    call()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    call()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
@pytest.mark.parametrize("argv", [
    ["check", "universality", "--dim", "2", "--trials", "2000"],
    ["gen", "--dim", "24", "--out", "f24.json"],
], ids=["universality", "gen"])
def test_warm_calls_fault_in_no_fresh_memory(argv, tmp_path):
    # either threshold set alone fixes the other at glibc's 128 KiB, under gen's 5.3 MB stack:
    # gen then maps, unmaps and faults in its stack on every call (279 faults a call with only
    # the trim threshold set, 575 with only the mmap one, 275 with the mmap one at 4 MiB)
    src = os.path.dirname(os.path.dirname(entbasis.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", _WARM_FAULTS, *argv], cwd=tmp_path,
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert float(run.stdout) <= 8


# os.confstr raises ValueError where the name is unknown (macOS), OSError where the C
# library refuses it, and returns None where it is unset
@pytest.mark.parametrize("error", [ValueError("unrecognized configuration name"),
                                   OSError(22, "Invalid argument"), None],
                         ids=["unknown-name", "refused", "unset"])
def test_main_leaves_malloc_alone_where_the_c_library_is_not_glibc(error, monkeypatch, capsys):
    def confstr(name):
        if error:
            raise error

    def no_mallopt(name):
        raise AssertionError("C library loaded")
    monkeypatch.setattr(cli.os, "confstr", confstr)
    monkeypatch.setattr(cli.ctypes, "CDLL", no_mallopt)
    cli._pin_malloc.cache_clear()
    try:
        assert main(["check", "det-criterion", "--trials", "10"]) == 0
    finally:
        monkeypatch.undo()
        cli._pin_malloc.cache_clear()
    assert capsys.readouterr().out.startswith("det-criterion")


# a fresh process per case: its OS threads once numpy's BLAS has loaded, and what it
# leaves of OPENBLAS_NUM_THREADS
_THREADS = """
import os, sys
exec(sys.argv[1])
print(len(os.listdir("/proc/self/task")), os.environ.get("OPENBLAS_NUM_THREADS"))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="numpy's BLAS is OpenBLAS on Linux")
@pytest.mark.parametrize("first, preset, expect", [
    ("import entbasis", None, lambda tasks: tasks == 1),
    ("import entbasis", "2", lambda tasks: tasks == 2),
    ("import numpy, entbasis", None, lambda tasks: tasks > 1),
], ids=["entbasis-first", "user-count", "numpy-first"])
def test_loading_entbasis_starts_blas_with_one_thread(first, preset, expect):
    # OpenBLAS starts one thread per CPU when numpy loads it, unless a thread variable
    # says otherwise; entbasis sets one only while it loads numpy itself
    if preset or first.startswith("import numpy"):
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("OpenBLAS starts one thread on one CPU anyway")
    src = os.path.dirname(os.path.dirname(entbasis.__file__))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if preset:
        env["OPENBLAS_NUM_THREADS"] = preset
    run = subprocess.run([sys.executable, "-c", _THREADS, first],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    tasks, left = run.stdout.split()
    assert expect(int(tasks)), run.stdout
    assert left == (preset or "None")
