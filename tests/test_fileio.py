"""Tests for JSON serialization of matrices, bases, and reports."""

import io
import json
import math
import sys
import tracemalloc

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
    check_universality,
    clifford_check,
    cyclic_latin_square,
    fourier_basis,
    fourier_hadamard,
    haar_unitary,
    is_hadamard,
    is_max_entangled,
    shift_multiply_basis,
    sylvester_hadamard,
    universality_search,
    validate_latin_square,
    verify_unitary_basis,
)
from entbasis import fileio
from entbasis.fileio import (
    _WINDOW,
    basis_bytes,
    basis_from_obj,
    basis_to_obj,
    dump_basis,
    load_basis,
    load_json,
    matrix_from_obj,
    matrix_to_obj,
    report_to_obj,
    save_json,
    scan_layout,
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
    "universality_search": lambda: universality_search(candidates=2, trials=5),
    "det_criterion_agreement": lambda: check_det_criterion_agreement(trials=4),
    "clifford_check": lambda: clifford_check(list(build_clifford_generators(3)) * 2),
}


@pytest.mark.parametrize("name", sorted(EVERY_CHECK))
def test_every_report_encodes_as_json(name):
    report = EVERY_CHECK[name]()
    assert isinstance(report, CheckReport)
    json.dumps(report_to_obj(report))


@pytest.mark.parametrize("name", sorted(set(EVERY_CHECK) - {"universality_search"}))
def test_passing_report_lists_no_witness(name):
    # the counterexample search lists its violated candidates when it passes, by design
    report = EVERY_CHECK[name]()
    assert not (report.passed and report.witnesses)


def _oracle_text(basis):
    """What the stdlib encoder writes for a basis file."""
    return json.dumps(basis_to_obj(basis), sort_keys=True, indent=2) + "\n"


def _dumped_text(basis):
    fh = io.StringIO()
    dump_basis(basis, fh)
    return fh.getvalue()


def _mixed_hadamard_basis(d=4, seed=14):
    rng = np.random.default_rng(seed)
    hs = [np.exp(2j * np.pi * rng.random(d))[:, None] * fourier_hadamard(d)
          * np.exp(2j * np.pi * rng.random(d))[None, :] for _ in range(d)]
    tau = cyclic_latin_square(d)[rng.permutation(d)][:, rng.permutation(d)]
    return shift_multiply_basis(hs, tau)


SPECIAL_FLOATS = [-0.0, 5e-324, 1e16, 1e-7, 0.1 + 0.2, float("nan"), float("inf"),
                  -float("inf"), -1e16, 2.0**53 + 2, 1 / 3]


def _special_basis():
    values = np.array(SPECIAL_FLOATS * 2)[:16]
    ops = np.empty(16, dtype=complex)
    ops.real, ops.imag = values, values[::-1]
    return EntangledBasis(2, ops.reshape(4, 2, 2))


def _sylvester_basis(d):
    return shift_multiply_basis([sylvester_hadamard(d)] * d, cyclic_latin_square(d))


def _klein_basis(d=4, seed=15):
    # mixed Hadamards over the Klein-group table i XOR j, which no cyclic table is isotopic to
    rng = np.random.default_rng(seed)
    hs = [np.exp(2j * np.pi * rng.random(d))[:, None] * fourier_hadamard(d) for _ in range(d)]
    return shift_multiply_basis(hs, np.bitwise_xor.outer(np.arange(d), np.arange(d)))


def _haar_basis(d=24):
    # the columns of a Haar unitary on C^d tensor C^d: no entry is zero
    return EntangledBasis(d, np.sqrt(d) * haar_unitary(d * d, 3).T.reshape(d * d, d, d))


def _sparse_special_basis(d=15, seed=16):
    # mostly +0.0, and -0.0, subnormals, NaN and inf among the rest; the operators
    # span several of dump_basis's blocks
    rng = np.random.default_rng(seed)
    values = np.array(SPECIAL_FLOATS + [-5e-324, 2.5e-310, -1e-320, 0.0, 1.0, -1.0])
    doubles = np.where(rng.random(2 * d**4) < 0.9, 0.0, rng.choice(values, 2 * d**4))
    return EntangledBasis(d, doubles.view(complex).reshape(d * d, d, d))


ORACLE_BASES = {
    **{"fourier%d" % d: (lambda d=d: fourier_basis(d)) for d in range(1, 7)},
    "sylvester4": lambda: _sylvester_basis(4),
    "sylvester8": lambda: _sylvester_basis(8),
    "mixed-hadamard4": _mixed_hadamard_basis,
    "klein4": _klein_basis,
    "haar24": _haar_basis,
    "sparse-special15": _sparse_special_basis,
    "special-values": _special_basis,
}


class TestDumpBasis:
    @pytest.mark.parametrize("name", sorted(ORACLE_BASES))
    def test_same_text_as_stdlib_encoder(self, name):
        basis = ORACLE_BASES[name]()
        assert _dumped_text(basis) == _oracle_text(basis)

    def test_splice_edges_same_as_stdlib_encoder(self, monkeypatch):
        # blocks of two d=3 operators of 18 doubles each, so that blocks end inside the basis
        d, per_op = 3, 18
        monkeypatch.setattr(fileio, "_BLOCK_DOUBLES", 2 * per_op)
        doubles = np.zeros(d**2 * per_op)
        doubles[[0, per_op - 1]] = 0.5, -2.5                     # op 0: first and last only
        doubles[per_op] = 2.5                                    # ops 0 and 1: one block
        # ops 2 and 3, a whole block, have no nonzero double
        doubles[6 * per_op - 1:6 * per_op + 1] = -1.5, 1e-7      # ops 5 and 6: two blocks
        # op 7: equal values with other bits, -0.0 beside +0.0 and two NaN payloads
        doubles[7 * per_op:7 * per_op + 9] = -0.0, 0.0, -0.0, 0, 0, 0, 1 / 3, 1 / 3, -np.inf
        nan_bits = [0x7FF8000000000001, 0x7FF8000000000002, 0x7FF8000000000001]
        doubles.view(np.int64)[7 * per_op + 3:7 * per_op + 6] = nan_bits
        doubles[8 * per_op:] = np.arange(1, per_op + 1) / 7       # op 8, the last block: dense
        basis = EntangledBasis(d, doubles.view(complex).reshape(d**2, d, d))
        assert _dumped_text(basis) == _oracle_text(basis)

    def test_round_trip_bit_exact(self, tmp_path):
        basis = _mixed_hadamard_basis()
        path = tmp_path / "b.json"
        with open(path, "w") as fh:
            dump_basis(basis, fh)
        back = basis_from_obj(load_json(path))
        assert back.ops.tobytes() == basis.ops.tobytes()


# doubles per block and per span in the span tests: a d=4 operator holds 32 doubles, so
# a block is two operators and a basis is 8 blocks
SMALL_BLOCK = 64


def _record_spans(monkeypatch):
    """A list that gets, for each span basis_bytes formats from now on, its count of
    doubles that are not +0.0: the size of the span's one np.unique call. The calls
    scan_layout makes for its own batches are not recorded."""
    sizes, unique = [], np.unique

    def recorded(a, **kw):
        if sys._getframe(1).f_code is basis_bytes.__code__:
            sizes.append(a.size)
        return unique(a, **kw)

    monkeypatch.setattr(np, "unique", recorded)
    return sizes


def _span_sizes(basis, monkeypatch):
    sizes = _record_spans(monkeypatch)
    b"".join(basis_bytes(basis))
    return sizes


def _greedy_spans(basis, block_doubles):
    """The span sizes by their rule: a span takes the next block while its doubles that
    are not +0.0 stay at most SMALL_BLOCK, and takes at least one block."""
    bits = basis.ops.view(np.int64).reshape(-1)
    spans = []
    for start in range(0, bits.size, block_doubles):
        count = np.count_nonzero(bits[start:start + block_doubles])
        if spans and spans[-1] + count <= SMALL_BLOCK:
            spans[-1] += count
        else:
            spans.append(count)
    return spans


def _doubles_basis(doubles, d=4):
    return EntangledBasis(d, np.asarray(doubles, dtype=float).view(complex).reshape(d * d, d, d))


def _mixed_density_basis(seed=17):
    # per operator pair (one block): dense, sparse with repeated values, or all +0.0
    rng = np.random.default_rng(seed)
    doubles = np.zeros(2 * 4**4)
    for k, kind in enumerate("sdszsdss"):
        block = doubles[64 * k:64 * (k + 1)]
        if kind == "d":
            block[:] = rng.standard_normal(64)
        elif kind == "s":
            at = rng.choice(64, 9, replace=False)
            block[at] = rng.choice([0.5, -0.25, 1 / 3, 1e16], 9)
    return _doubles_basis(doubles)


def _late_special_basis():
    # finite doubles in the first spans; NaN, +-Infinity and -0.0 only in the last block
    doubles = np.zeros(2 * 4**4)
    doubles[:448:7] = np.arange(1, 65) / 9
    doubles[448::11] = [np.nan, np.inf, -np.inf, -0.0, 0.5, np.nan]
    return _doubles_basis(doubles)


def _exact_span_basis():
    # blocks of 32, 32 and 1 doubles that are not +0.0, then sparse ones: the first span
    # holds exactly SMALL_BLOCK of them, and the third block starts the next
    doubles = np.zeros(2 * 4**4)
    doubles[0:32] = np.arange(1, 33) / 7
    doubles[64:128:2] = -np.arange(1, 33) / 7
    doubles[130] = 2.5
    doubles[200:264:3] = 0.75
    return _doubles_basis(doubles)


SPAN_BASES = {
    "mixed-density": _mixed_density_basis,
    "late-special": _late_special_basis,
    "exact-span": _exact_span_basis,
}


class TestSpans:
    @pytest.mark.parametrize("name", sorted(SPAN_BASES))
    def test_same_text_as_stdlib_encoder(self, name, monkeypatch):
        monkeypatch.setattr(fileio, "_BLOCK_DOUBLES", SMALL_BLOCK)
        basis = SPAN_BASES[name]()
        text = _dumped_text(basis)
        assert text == _oracle_text(basis)
        assert b"".join(basis_bytes(basis)) == text.encode()
        sizes = _span_sizes(basis, monkeypatch)
        assert sizes == _greedy_spans(basis, SMALL_BLOCK)
        assert 1 < len(sizes) < 8  # several spans, and one of them of several blocks

    def test_exact_span_is_full(self, monkeypatch):
        monkeypatch.setattr(fileio, "_BLOCK_DOUBLES", SMALL_BLOCK)
        # the third block would make it one double too many
        assert _span_sizes(_exact_span_basis(), monkeypatch)[0] == SMALL_BLOCK

    def test_special_values_only_in_the_last_span(self, monkeypatch):
        monkeypatch.setattr(fileio, "_BLOCK_DOUBLES", SMALL_BLOCK)
        formatted = []
        monkeypatch.setattr(fileio, "_json_float", lambda x: formatted.append(x) or
                            fileio._JSON_NONFINITE.get(repr(x), repr(x)))
        basis = _late_special_basis()
        assert b"".join(basis_bytes(basis)) == _oracle_text(basis).encode()
        # only the last span, of one block, has a double that is not finite
        assert len(formatted) == 5 and math.isnan(formatted[-1])

    @pytest.mark.parametrize("d", [3, 4, 7])
    def test_dense_spans_stay_bounded(self, d, monkeypatch):
        monkeypatch.setattr(fileio, "_BLOCK_DOUBLES", SMALL_BLOCK)
        rng = np.random.default_rng(d)
        basis = _doubles_basis(rng.standard_normal(2 * d**4), d)
        block_doubles = max(1, SMALL_BLOCK // (2 * d * d)) * 2 * d * d
        sizes = _span_sizes(basis, monkeypatch)
        assert max(sizes) <= SMALL_BLOCK + block_doubles
        assert sizes == _greedy_spans(basis, block_doubles)
        assert sum(sizes) == 2 * d**4
        assert b"".join(basis_bytes(basis)) == _oracle_text(basis).encode()


def _matrix_to_obj_per_entry(m):
    m = np.asarray(m, dtype=complex)
    data = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


def _matrix_from_obj_per_entry(obj):
    out = np.empty(obj["rows"] * obj["cols"], dtype=complex)
    for k, (re, im) in enumerate(obj["data"]):
        out[k] = complex(float(re), float(im))
    return out.reshape(obj["rows"], obj["cols"])


def test_matrix_to_obj_equals_per_entry_object():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    m.flat[:4] = [-0.0, 5e-324 - 0.0j, complex(1e16, -1e-7), complex(0.1 + 0.2, -0.0)]
    assert matrix_to_obj(m) == _matrix_to_obj_per_entry(m)
    assert matrix_to_obj(np.eye(2)) == _matrix_to_obj_per_entry(np.eye(2))


def test_matrix_from_obj_bit_identical_to_per_entry_reference():
    data = [[1, 0], [-0.0, 2**53 + 1], [2**64 + 2**11 + 1, -3], [0.1, 10**300],
            [5e-324, -(2**63)], [True, 1e16]]
    obj = {"rows": 2, "cols": 3, "data": data}
    assert matrix_from_obj(obj).tobytes() == _matrix_from_obj_per_entry(obj).tobytes()


@pytest.mark.parametrize("data, index", [
    ([[10**400, 0]], 0),
    ([[1, 0], [0, -(10**400)]], 1),
], ids=["re", "im"])
def test_entry_beyond_double_range(data, index):
    obj = {"rows": 1, "cols": len(data), "data": data}
    with pytest.raises(ValueError, match="entry %d is too large for a double" % index):
        matrix_from_obj(obj)


@pytest.mark.parametrize("data, message", [
    ([[1, 0], [None, 0]], "entry 1 is not a \\[re, im\\] pair"),
    ([[1, 0], [0, float("nan")]], "entry 1 is not finite"),
    ([[1, 0], {"1": 0, "2": 0}], "entry 1 is not a \\[re, im\\] pair"),
    ([[1, 0], [[1, 2], [3, 4]]], "entry 1 is not a \\[re, im\\] pair"),
], ids=["none", "nan", "dict", "nested"])
def test_first_bad_entry_named(data, message):
    with pytest.raises(ValueError, match=message):
        matrix_from_obj({"rows": 1, "cols": 2, "data": data})


def test_too_deeply_nested_file_is_value_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    with pytest.raises(ValueError, match="nested"):
        load_json(path)


def _write_basis(basis, path):
    with open(path, "w") as fh:
        dump_basis(basis, fh)
    return path


def _oracle_load(path):
    """basis_from_obj(load_json(path)), or the exception it raises."""
    try:
        return basis_from_obj(load_json(path))
    except ValueError as exc:
        return exc


def _assert_same_as_oracle(path):
    """load_basis, and scan_layout where it takes the file, agree with the JSON reader."""
    with open(path, "rb") as fh:
        fast = scan_layout(fh)
    try:
        want = basis_from_obj(load_json(path))
    except ValueError as exc:
        assert fast is None
        with pytest.raises(type(exc)) as got:
            load_basis(path)
        assert str(got.value) == str(exc)
        return None
    got = load_basis(path)
    for basis in (got, fast if fast is not None else got):
        assert basis.dim == want.dim
        assert basis.ops.view(np.int64).tobytes() == want.ops.view(np.int64).tobytes()
    return fast


def _finite_special_basis():
    # -0.0, subnormals, +-1e16, 1e-7 and 0.1 + 0.2 among zeros and plain values
    values = np.array([v for v in SPECIAL_FLOATS if np.isfinite(v)] + [-5e-324, 2.5e-310])
    doubles = np.zeros(2 * 3**4)
    doubles[::5] = np.resize(values, doubles[::5].size)
    doubles[1::7] = -np.resize(values, doubles[1::7].size)
    return EntangledBasis(3, doubles.view(complex).reshape(9, 3, 3))


def _one_in_three_basis(values, d=4):
    """A stack whose every third double cycles through values, the others 0.0."""
    doubles = np.zeros(2 * d**4)
    doubles[::3] = np.resize(values, doubles[::3].size)
    return _doubles_basis(doubles, d)


# doubles whose reprs take 24 bytes, the longest, and doubles whose tokens start as "0.0" does
LONG_REPRS = [-2.2250738585072014e-308, -1.7976931348623157e+308, -1.2345678901234567e-100]
assert {len(repr(v)) for v in LONG_REPRS} == {24}
ZERO_LIKE = [-0.0, 0.01, 0.05, 0.001, 0.0625, 0.0001]


LOAD_BASES = {
    **{"fourier%d" % d: (lambda d=d: fourier_basis(d)) for d in (1, 2, 3, 4, 5, 6, 10, 20, 24)},
    "sylvester4": lambda: _sylvester_basis(4),
    "sylvester8": lambda: _sylvester_basis(8),
    "sylvester16": lambda: _sylvester_basis(16),
    "klein4": _klein_basis,
    "haar24": _haar_basis,
    "finite-special3": _finite_special_basis,
    "long-reprs4": lambda: _one_in_three_basis(LONG_REPRS),
    "zero-like4": lambda: _one_in_three_basis(ZERO_LIKE),
}


class TestLoadBasis:
    @pytest.mark.parametrize("name", sorted(LOAD_BASES))
    def test_layout_read_bit_identical_to_oracle(self, name, tmp_path):
        path = _write_basis(LOAD_BASES[name](), tmp_path / "b.json")
        with open(path, "rb") as fh:
            fast = scan_layout(fh)
        assert fast is not None, "gen's layout must take the scan"
        want = basis_from_obj(load_json(path))
        assert fast.dim == want.dim
        assert fast.ops.view(np.int64).tobytes() == want.ops.view(np.int64).tobytes()
        assert load_basis(path).ops.tobytes() == want.ops.tobytes()

    @pytest.mark.parametrize("name", ["special-values", "sparse-special15"])
    def test_non_finite_entries_give_oracle_error(self, name, tmp_path):
        path = _write_basis(ORACLE_BASES[name](), tmp_path / "b.json")
        with open(path, "rb") as fh:
            assert scan_layout(fh) is None
        with pytest.raises(ValueError, match="is not finite"):
            load_basis(path)
        _assert_same_as_oracle(path)

    def test_compact_json_goes_to_oracle(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(json.dumps(basis_to_obj(fourier_basis(3))))
        with open(path, "rb") as fh:
            assert scan_layout(fh) is None
        assert load_basis(path).ops.tobytes() == fourier_basis(3).ops.tobytes()

    @pytest.mark.parametrize("old, new", [
        ("          1.0,", "          1.00,"),        # another spelling of the same double
        ("          0.0\n", "          0\n"),          # an integer token
        ("          0.0\n", "          0.00\n"),       # other spellings of 0.0
        ("          0.0\n", "          0.0e0\n"),
        ("          0.0\n", "          \n"),           # a missing token
        ("          0.0\n", "          0.0 \n"),       # other whitespace
        ("          0.0\n", "          NaN\n"),
        ("          0.0\n", "          1e999\n"),      # overflows to inf
        ("          0.0\n", "          \"0.0\"\n"),    # a string
        ('"dim": 2,', '"dim": 3,'),
        ('"dim": 2,', '"dim": 0,'),
        ('"dim": 2,', '"dim": 02,'),
        ('"cols": 2,', '"cols": 3,'),
        ("\n  ]\n}\n", "\n  ]\n}\n\n"),
        ("\n  ]\n}\n", "\n  ]\n}"),
    ])
    def test_edited_file_same_as_oracle(self, old, new, tmp_path):
        path = _write_basis(fourier_basis(2), tmp_path / "b.json")
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))
        with open(path, "rb") as fh:
            taken = scan_layout(fh) is not None
        assert not taken
        _assert_same_as_oracle(path)

    def test_missing_and_empty_files(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_basis(tmp_path / "none.json")
        (tmp_path / "empty.json").write_text("")
        _assert_same_as_oracle(tmp_path / "empty.json")


@pytest.mark.parametrize("token, valid", [
    ("0.0", True), ("-0.0", True), ("1e-05", True), ("1E+16", True), ("0e5", True),
    ("1.5e-07", True), ("123.456", True), ("-1.0e0", True), ("1.05", True), ("10.5", True),
    ("2.5e-310", True), ("1e-0005", True), ("-0e-00", True), ("1e16", True), ("1e+16", True),
    ("01.5", False), ("00.0", False), ("-01.0", False), ("1.", False), (".5", False),
    ("+1.0", False), ("1", False), ("-1", False), ("-", False), ("1e", False), ("1e+", False),
    ("--1.0", False), ("1.0.0", False), ("1e5e5", False), ("1e5.0", False), ("0x1p3", False),
    ("inf", False), ("NaN", False), ("1.0 ", False), ("1,0", False), ("1e-05-", False),
    ("-.5", False), ("1.e5", False), ("0.0e", False), ("1_000.0", False), ("", False),
    ("1.5-3", False), ("1-5.0", False), ("1.0e+-5", False),
])
def test_json_float_grammar(token, valid, tmp_path):
    # the token in place of the first double of a file in dump_basis's layout
    path = _write_basis(fourier_basis(2), tmp_path / "b.json")
    text = path.read_text()
    assert text.count("\n          1.0,") > 1
    path.write_text(text.replace("\n          1.0,", "\n          %s," % token, 1))
    with open(path, "rb") as fh:
        assert (scan_layout(fh) is not None) == _is_repr(token)
    _assert_same_as_oracle(path)
    if valid:
        # a JSON number with a fraction or an exponent reads as float() reads it
        assert load_basis(path).ops.view(float).reshape(-1)[0] == float(token)


def _is_repr(token):
    """Whether token is repr of a finite double: the only spelling dump_basis writes."""
    try:
        x = float(token)
    except ValueError:
        return False
    return math.isfinite(x) and repr(x) == token


@pytest.mark.parametrize("data", [
    [["1", 0], [0, 0], [0, 0], ["1", 0]],
    [[1, 0], [0, "2.5"], [0, 0], [1, 0]],
    [[10**30, 0], [0, "1"], [0, 0], [1, 0]],    # beyond int64: numpy keeps the objects
], ids=["re", "im", "with-big-integer"])
def test_numeric_string_entry_refused(data):
    first = next(k for k, pair in enumerate(data) if any(isinstance(x, str) for x in pair))
    with pytest.raises(ValueError, match="entry %d is not a \\[re, im\\] pair" % first):
        matrix_from_obj({"rows": 2, "cols": 2, "data": data})


def test_windows_without_nonzero_doubles_read_as_oracle(tmp_path):
    # windows with no token to parse: every one of an all-zero basis, and all but
    # the first when only operator 0 has doubles that are not 0.0
    zero = EntangledBasis(10, np.zeros((100, 10, 10), dtype=complex))
    ops = zero.ops.copy()
    ops[0] = fourier_hadamard(10)
    for basis in (zero, EntangledBasis(10, ops)):
        path = _write_basis(basis, tmp_path / "b.json")
        assert path.stat().st_size > _WINDOW
        assert _assert_same_as_oracle(path) is not None
        assert load_basis(path).ops.view(np.int64).tobytes() == basis.ops.view(np.int64).tobytes()


def _two_window_basis():
    """A d=8 stack whose file is longer than a window: the odd operators are zero,
    the even ones dense with irrational entries."""
    ops = _haar_basis(8).ops.copy()
    ops[1::2] = 0
    return EntangledBasis(8, ops)


@pytest.mark.parametrize("where", ["first", "last"])
def test_negative_zero_spelled_out_is_taken(where, tmp_path):
    basis = _two_window_basis()
    text = _dumped_text(basis)
    k = (text.find if where == "first" else text.rfind)("\n          0.0")
    assert 0 < k and (where == "first" or k > _WINDOW)
    path = tmp_path / "b.json"
    path.write_text(text[:k] + "\n          -0.0" + text[k + 14:])
    fast = _assert_same_as_oracle(path)
    assert fast is not None
    signs = np.signbit(fast.ops.view(float)).sum() - np.signbit(basis.ops.view(float)).sum()
    assert signs == 1


@pytest.mark.parametrize("edit", [
    "last-0.5", "last-0.50", "last-5e-1", "last-1", "last-x",
    "append-x", "append-space", "append-newline", "append-0",
    "truncate-1", "truncate-2", "truncate-half", "truncate-window",
])
def test_end_of_two_window_file_same_as_oracle(edit, tmp_path):
    text = _dumped_text(_two_window_basis())
    assert len(text) > _WINDOW
    kind, arg = edit.split("-", 1)
    if kind == "last":
        k = text.rfind("\n          ") + 11
        end = text.index("\n", k)
        assert text[k:end] == "0.0"
        text = text[:k] + arg + text[end:]
    elif kind == "append":
        text += {"x": "x", "space": " ", "newline": "\n", "0": "0"}[arg]
    else:
        text = text[:{"1": -1, "2": -2, "half": len(text) // 2, "window": _WINDOW}[arg]]
    path = tmp_path / "b.json"
    path.write_text(text)
    fast = _assert_same_as_oracle(path)
    assert (fast is not None) == (edit == "last-0.5")


def test_large_layout_file_read_without_json(tmp_path, monkeypatch):
    # above one window the scan reads gen's layout; json reads smaller files
    large = _write_basis(fourier_basis(8), tmp_path / "f8.json")
    small = _write_basis(fourier_basis(3), tmp_path / "f3.json")
    assert large.stat().st_size > 1 << 16 > small.stat().st_size
    read = []
    monkeypatch.setattr(fileio, "load_json", lambda path: read.append(path) or load_json(path))
    assert load_basis(large).ops.tobytes() == fourier_basis(8).ops.tobytes()
    assert load_basis(small).ops.tobytes() == fourier_basis(3).ops.tobytes()
    assert read == [small]


def test_rejected_file_stops_the_rewrite_at_the_first_mismatch(tmp_path, monkeypatch):
    # another spelling of the first 1.0: the scan parses every double, and the
    # write-back differs in its first block, so no later block is formatted
    basis = fourier_basis(12)
    text = _dumped_text(basis)
    path = tmp_path / "b.json"
    drawn, chunks = [], fileio.basis_bytes

    def counted(basis):
        for chunk in chunks(basis):
            drawn.append(chunk)
            yield chunk

    monkeypatch.setattr(fileio, "basis_bytes", counted)
    path.write_text(text)
    with open(path, "rb") as fh:
        assert scan_layout(fh) is not None
    clean = len(drawn)
    assert clean > 8
    drawn.clear()
    edited = text.replace("\n          1.0,", "\n          1.00,", 1).encode()
    path.write_bytes(edited)
    with open(path, "rb") as fh:
        assert scan_layout(fh) is None
    # every chunk drawn but the last matches the file; the last is the first that differs
    *same, last = drawn
    offset = sum(map(len, same))
    assert edited[:offset] == b"".join(same) and edited[offset:offset + len(last)] != last
    assert len(drawn) < clean // 2
    assert load_basis(path).ops.tobytes() == basis.ops.tobytes()


def test_layout_scan_holds_the_basis_not_the_file(tmp_path):
    # the scan reads a file of 17 MB or more a window at a time: its traced peak is at most
    # the basis and a few MB, where reading the whole file would add the file. In the Haar
    # basis every double is a token to parse, so parsing them all in one batch would too
    for basis in (fourier_basis(24), _haar_basis(24)):
        path = _write_basis(basis, tmp_path / "b24.json")
        assert path.stat().st_size > 16 << 20
        tracemalloc.start()
        try:
            read = load_basis(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert read.ops.tobytes() == basis.ops.tobytes()
        assert peak <= basis.ops.nbytes + (4 << 20)


@pytest.mark.parametrize("name", ["fourier6", "finite-special3", "long-reprs4", "zero-like4"])
def test_small_windows_and_batches_read_as_oracle(name, tmp_path, monkeypatch):
    # windows of 4 KiB, so that tokens straddle them, and a batch parsed once it holds 64
    # tokens. The scan cuts out the doubles that are not 0.0, each once: the sizes of its
    # one cumsum per batch add up to their count
    monkeypatch.setattr(fileio, "_WINDOW", 1 << 12)
    monkeypatch.setattr(fileio, "_BLOCK_DOUBLES", 64)
    basis = LOAD_BASES[name]()
    path = _write_basis(basis, tmp_path / "b.json")
    assert path.stat().st_size > 1 << 12
    batches = []

    class Numpy:
        """numpy as fileio sees it, with the cumsum calls of fileio's own code recorded."""
        def __getattr__(self, attr):
            return getattr(np, attr)

        def cumsum(self, a):
            batches.append(a.size)
            return np.cumsum(a)

    monkeypatch.setattr(fileio, "np", Numpy())
    with open(path, "rb") as fh:
        fast = scan_layout(fh)
    assert fast is not None
    want = basis_from_obj(load_json(path))
    assert fast.ops.view(np.int64).tobytes() == want.ops.view(np.int64).tobytes()
    assert sum(batches) == np.count_nonzero(basis.ops.view(np.int64))
    # a batch takes windows while it holds fewer than 64 tokens; a window's lines are
    # 14 bytes or more, one token each at most
    assert max(batches) <= 64 + (1 << 12) // 14


def test_batch_parses_each_distinct_token_once(tmp_path, monkeypatch):
    # Sylvester d=16 holds 4,096 doubles that are not 0.0, each 1.0 or -1.0. In batches
    # of 64 tokens or more the scan converts at most those two strings per batch: the
    # sizes of its one isfinite call per batch, which runs on the parsed doubles
    monkeypatch.setattr(fileio, "_BLOCK_DOUBLES", 64)
    basis = LOAD_BASES["sylvester16"]()
    path = _write_basis(basis, tmp_path / "b.json")
    batches, parsed = [], []

    class Numpy:
        """numpy as fileio sees it, with scan_layout's cumsum and isfinite calls recorded."""
        def __getattr__(self, attr):
            return getattr(np, attr)

        def cumsum(self, a):
            batches.append(a.size)
            return np.cumsum(a)

        def isfinite(self, a):
            if sys._getframe(1).f_code is scan_layout.__code__:
                parsed.append(a.tolist())
            return np.isfinite(a)

    monkeypatch.setattr(fileio, "np", Numpy())
    with open(path, "rb") as fh:
        fast = scan_layout(fh)
    assert fast is not None
    assert fast.ops.view(np.int64).tobytes() == basis.ops.view(np.int64).tobytes()
    assert sum(batches) == np.count_nonzero(basis.ops.view(np.int64)) == 4096
    assert len(parsed) == len(batches) > 1
    assert all(sorted(values) in ([-1.0], [1.0], [-1.0, 1.0]) for values in parsed)


def test_tokens_sharing_a_key_give_the_file_to_json(tmp_path, monkeypatch):
    # every key taken from a token's first 8 bytes: in Fourier d=24, -0.7071067811865475
    # and -0.7071067811865474 share one, so one of them is given the other's double,
    # and the write-back refuses the file
    monkeypatch.setattr(fileio, "_KEY_MIX", (np.uint64(0), np.uint64(0)))
    path = _write_basis(fourier_basis(24), tmp_path / "f24.json")
    with open(path, "rb") as fh:
        assert scan_layout(fh) is None
    want = basis_from_obj(load_json(path))
    assert load_basis(path).ops.view(np.int64).tobytes() == want.ops.view(np.int64).tobytes()


def test_rejected_file_formats_one_span(tmp_path, monkeypatch):
    # Fourier d=12 in blocks of 3 operators and spans of 14 blocks: a first 1.0
    # spelled another way fails the write-back in the first span, and no later span
    # is formatted
    monkeypatch.setattr(fileio, "_BLOCK_DOUBLES", 1024)
    basis = fourier_basis(12)
    text = _dumped_text(basis)
    path = tmp_path / "b.json"
    path.write_text(text)
    spans = _record_spans(monkeypatch)
    with open(path, "rb") as fh:
        assert scan_layout(fh) is not None
    assert len(spans) == 4
    spans.clear()
    path.write_text(text.replace("\n          1.0,", "\n          1.00,", 1))
    with open(path, "rb") as fh:
        assert scan_layout(fh) is None
    assert len(spans) == 1
