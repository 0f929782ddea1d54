"""Fuzzed file contents through the readers, the basis writer and `verify`.

Whatever JSON-shaped value a file holds, `matrix_from_obj` and
`basis_from_obj` return a finite complex array or raise ValueError, and
`entbasis verify` exits 0, 1 or 2. Any complex stack is written as the
stdlib encoder would write it and, when finite, reads back bit-exactly.
On random monomial stacks, `verify_unitary_basis` agrees with the dense Gram.
"""

import contextlib
import copy
import io
import json
import math
import re

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
hnp = pytest.importorskip("hypothesis.extra.numpy")

from entbasis import (  # noqa: E402
    EntangledBasis,
    cyclic_latin_square,
    fourier_basis,
    fourier_hadamard,
)
from entbasis.cli import main  # noqa: E402
from entbasis.fileio import (  # noqa: E402
    basis_from_obj,
    basis_to_obj,
    dump_basis,
    load_basis,
    load_json,
    matrix_from_obj,
)
from entbasis.fileio import scan_layout  # noqa: E402
from test_entangled import assert_matches_dense_oracle  # noqa: E402
from test_fileio import _assert_same_as_oracle, _is_repr  # noqa: E402

SETTINGS = hypothesis.settings(max_examples=100, deadline=None)

numbers = (
    st.integers(-(2**70), 2**70)
    | st.integers(10**300, 10**400)
    | st.integers(-(10**400), -(10**300))
    | st.floats()
    | st.booleans()
)
scalars = numbers | st.none() | st.text(max_size=6)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)
entries = st.lists(numbers, min_size=2, max_size=2) | json_values


@st.composite
def matrix_objects(draw):
    """Mostly well-shaped matrix objects, so the numeric path runs; sometimes anything."""
    if draw(st.integers(0, 9)) == 0:
        return draw(json_values)
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n = rows * cols + draw(st.sampled_from([0, 0, 0, -1, 1]))
    pairs = st.lists(numbers, min_size=2, max_size=2)
    data = draw(st.lists(pairs if draw(st.booleans()) else entries, min_size=max(n, 0),
                         max_size=max(n, 0)))
    obj = {"rows": rows, "cols": cols, "data": data}
    if draw(st.integers(0, 4)) == 0:
        obj[draw(st.sampled_from(["rows", "cols", "data"]))] = draw(json_values)
    return obj


@st.composite
def basis_objects(draw):
    dim = draw(st.integers(1, 2))
    ops = draw(st.lists(matrix_objects(), min_size=dim * dim, max_size=dim * dim))
    obj = {"dim": dim, "operators": ops}
    if draw(st.integers(0, 4)) == 0:
        obj[draw(st.sampled_from(["dim", "operators"]))] = draw(json_values)
    return obj


@st.composite
def mutated_bases(draw):
    """A valid d=2 basis object with one node replaced by a random JSON value."""
    obj = copy.deepcopy(basis_to_obj(fourier_basis(2)))
    parent, key = None, None
    node = obj
    while isinstance(node, (dict, list)) and node and draw(st.integers(0, 5)) > 0:
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        parent, node = node, node[key]
    if parent is None:
        return draw(json_values)
    parent[key] = draw(json_values)
    return obj


def _finite_or_value_error(read, obj):
    try:
        out = read(obj)
    except ValueError:
        return None
    ops = out.ops if isinstance(out, EntangledBasis) else out
    assert ops.dtype == complex
    assert np.isfinite(ops).all()
    return out


@SETTINGS
@hypothesis.given(obj=matrix_objects())
def test_matrix_from_obj_is_finite_array_or_value_error(obj):
    out = _finite_or_value_error(matrix_from_obj, obj)
    if out is not None:
        assert out.shape == (obj["rows"], obj["cols"])


@SETTINGS
@hypothesis.given(obj=basis_objects() | mutated_bases() | json_values)
def test_basis_from_obj_is_finite_basis_or_value_error(obj):
    out = _finite_or_value_error(basis_from_obj, obj)
    if out is not None:
        assert out.ops.shape == (obj["dim"] ** 2, obj["dim"], obj["dim"])


def _stacks(elements):
    return st.integers(1, 3).flatmap(
        lambda d: hnp.arrays(complex, (d * d, d, d), elements=elements).map(
            lambda ops: EntangledBasis(d, ops)))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@SETTINGS
@hypothesis.given(basis=_stacks(st.complex_numbers(allow_nan=False, allow_infinity=False)))
def test_finite_stacks_round_trip_bit_exactly(basis, workdir):
    path = workdir / "basis.json"
    with open(path, "w") as fh:
        dump_basis(basis, fh)
    assert basis_from_obj(load_json(path)).ops.tobytes() == basis.ops.tobytes()


@SETTINGS
@hypothesis.given(basis=_stacks(st.complex_numbers(allow_nan=True, allow_infinity=True)))
def test_any_stack_written_as_stdlib_encoder_writes_it(basis, workdir):
    path = workdir / "basis.json"
    with open(path, "w") as fh:
        dump_basis(basis, fh)
    assert path.read_text() == json.dumps(basis_to_obj(basis), sort_keys=True, indent=2) + "\n"


file_texts = (
    (basis_objects() | mutated_bases() | json_values).map(json.dumps)
    | st.text(max_size=40)
)


@SETTINGS
@hypothesis.given(text=file_texts | st.binary(max_size=40))
def test_verify_exit_code_on_any_file(text, workdir):
    path = workdir / "any.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    assert main(["verify", str(path)]) in (0, 1, 2)


# ---- load_basis: the layout scan against basis_from_obj(load_json(path)) ----

JSON_FLOAT = re.compile(r"-?(0|[1-9][0-9]*)(\.[0-9]+([eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)")
number_texts = st.text(alphabet="0123456789.-+eE", max_size=10) | st.sampled_from(
    ["0.0", "-0.0", "1e-05", "01.5", "1.", ".5", "+1.0", "1", "1e+", "inf", "NaN"])


@SETTINGS
@hypothesis.given(tokens=st.lists(number_texts, min_size=1, max_size=5))
def test_json_float_grammar_matches_regex(tokens, workdir):
    # the first doubles of a Fourier d=2 file spelled as tokens
    text = io.StringIO()
    dump_basis(fourier_basis(2), text)
    doubles = fourier_basis(2).ops.view(float).reshape(-1).tolist()
    spelled = tokens + [repr(x) for x in doubles[len(tokens):]]
    path = workdir / "grammar.json"
    path.write_text(_with_tokens(text.getvalue(), spelled))
    with open(path, "rb") as fh:
        assert (scan_layout(fh) is not None) == all(_is_repr(t) for t in tokens)
    _assert_same_as_oracle(path)
    if all(JSON_FLOAT.fullmatch(t) and math.isfinite(float(t)) for t in tokens):
        assert load_basis(path).ops.view(float).reshape(-1).tolist() == [float(t) for t in spelled]


def _spellings(x):
    """JSON spellings of the double x, repr among them, that read as finite doubles."""
    out = [repr(x), "%.17e" % x, "%.30e" % x, "%.3e" % x, "%.25f" % x]
    return [t for t in out if JSON_FLOAT.fullmatch(t) and np.isfinite(float(t))]


DOUBLE_LINE = re.compile(r"(?m)^( {10})([^ ,\n]+)(,?)$")


def _with_tokens(text, tokens):
    """text with its double tokens replaced, in order, by tokens."""
    it = iter(tokens)
    return DOUBLE_LINE.sub(lambda m: m.group(1) + next(it) + m.group(3), text)


@SETTINGS
@hypothesis.given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                  min_size=32, max_size=32), pick=st.integers(0, 2**32))
def test_any_json_spelling_reads_as_float_does(values, pick, workdir):
    # Fourier d=2 has 32 doubles; each is replaced by some JSON spelling of a random double
    text = io.StringIO()
    dump_basis(fourier_basis(2), text)
    tokens = []
    for k, x in enumerate(values):
        options = _spellings(x)
        tokens.append(options[(pick >> k) % len(options)])
    path = workdir / "spelled.json"
    path.write_text(_with_tokens(text.getvalue(), tokens))
    with open(path, "rb") as fh:
        assert (scan_layout(fh) is not None) == all(t == repr(float(t)) for t in tokens)
    _assert_same_as_oracle(path)
    got = load_basis(path)
    assert got.ops.view(float).reshape(-1).tolist() == [float(t) for t in tokens]


CANONICAL = {
    "fourier1": lambda: fourier_basis(1),
    "fourier2": lambda: fourier_basis(2),
    "fourier3": lambda: fourier_basis(3),
    "dense2": lambda: EntangledBasis(2, np.linspace(-1.5, 2.5, 32).view(complex).reshape(4, 2, 2)),
}


def _canonical_text(name):
    fh = io.StringIO()
    dump_basis(CANONICAL[name](), fh)
    return fh.getvalue()


def _token_lines(text):
    return [m.span(2) for m in DOUBLE_LINE.finditer(text)]


@st.composite
def mutated_files(draw):
    """A canonical basis file with one edit of the kinds a hand or a tool makes."""
    text = _canonical_text(draw(st.sampled_from(sorted(CANONICAL))))
    spans = _token_lines(text)
    kind = draw(st.sampled_from(["byte", "swap", "respell", "int", "nonfinite", "extra",
                                 "missing", "space", "truncate", "dim", "none"]))
    if kind == "byte":
        data = bytearray(text.encode())
        at = draw(st.integers(0, len(data) - 1))
        data[at] = draw(st.integers(0, 255))
        return bytes(data)
    if kind in ("swap", "respell", "int", "nonfinite"):
        a, b = draw(st.sampled_from(spans)), draw(st.sampled_from(spans))
        tok = text[a[0]:a[1]]
        if kind == "swap" and a[0] < b[0]:
            other = text[b[0]:b[1]]
            return text[:a[0]] + other + text[a[1]:b[0]] + tok + text[b[1]:]
        new = {"swap": tok, "respell": tok + "0", "int": tok.split(".")[0],
               "nonfinite": draw(st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400"]))}[kind]
        return text[:a[0]] + new + text[a[1]:]
    if kind in ("extra", "missing"):
        pair = "[\n          0.0,\n          0.0\n        ],\n        "
        at = text.find("[\n          ", draw(st.integers(0, len(text) - 1)))
        if at < 0:
            return text
        if kind == "extra":
            return text[:at] + pair + text[at:]
        return text[:at] + text[at + len(pair):]
    if kind == "space":
        at = draw(st.integers(0, len(text) - 1))
        return text[:at] + draw(st.sampled_from([" ", "\t", "\r\n", "\n"])) + text[at:]
    if kind == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))]
    if kind == "dim":
        return re.sub(r'"dim": [0-9]+', '"dim": %d' % draw(st.integers(0, 4)), text, count=1)
    return text


@SETTINGS
@hypothesis.given(content=mutated_files())
def test_mutated_file_same_as_oracle(content, workdir):
    path = workdir / "mutated.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_bytes(content.encode())
    _assert_same_as_oracle(path)


cli_inputs = file_texts | st.binary(max_size=40) | mutated_files()


@SETTINGS
@hypothesis.given(content=cli_inputs)
def test_basis_and_matrix_commands_exit_code_on_any_file(content, workdir):
    # an exception escaping main, which would print a traceback, fails the test
    path = workdir / "any.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_bytes(content.encode())
    for argv in (["check", "bell-all", "--basis", str(path), "--trials", "3"],
                 ["factorize", str(path)]):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1, 2)


# ---- verify_unitary_basis on monomial stacks: structured path or dense Gram ----


@st.composite
def monomial_stacks(draw):
    """d^2 operators, each one nonzero per column: a Latin square's layout, one
    permutation per column j, or one per operator; Hadamard rows, unimodular
    entries, or Hadamard rows with a few entries edited."""
    d = draw(st.integers(1, 5))
    perms = st.permutations(range(d))
    support = draw(st.sampled_from(["latin", "per-column", "per-operator"]))
    if support == "latin":
        sym, row, col = (draw(perms) for _ in range(3))
        tau = np.array(sym)[cyclic_latin_square(d)[list(row)][:, list(col)]]
        rows = [tau[:, a % d] for a in range(d * d)]
    elif support == "per-column":
        columns = [draw(perms) for _ in range(d)]
        rows = [columns[a % d] for a in range(d * d)]
    else:
        rows = [draw(perms) for _ in range(d * d)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    entries = draw(st.sampled_from(["hadamard", "unimodular", "edited"]))
    if entries == "unimodular":
        values = np.exp(2j * np.pi * rng.random((d * d, d)))
    else:
        hs = np.exp(2j * np.pi * rng.random((d, d, 1))) * fourier_hadamard(d)
        values = hs.transpose(1, 0, 2).reshape(d * d, d)
    if entries == "edited":
        for _ in range(draw(st.integers(1, 3))):
            a, k = draw(st.integers(0, d * d - 1)), draw(st.integers(0, d - 1))
            with np.errstate(invalid="ignore", over="ignore"):
                values[a, k] = draw(st.sampled_from(
                    [-values[a, k], 1.5 * values[a, k], (1 + 1e-12) * values[a, k], 0.0, -0.0,
                     np.nan, np.inf, -np.inf, 1e300]))
    ops = np.zeros((d * d, d, d), dtype=complex)
    for a in range(d * d):
        ops[a, list(rows[a]), np.arange(d)] = values[a]
    if d > 1 and draw(st.integers(0, 4)) == 0:
        # one extra nonzero entry
        a, r, k = (draw(st.integers(0, n - 1)) for n in (d * d, d, d))
        if ops[a, r, k] == 0:
            ops[a, r, k] = 0.5
    return EntangledBasis(d, ops)


def _has_layout(ops):
    """Whether ops is laid out as shift_multiply_basis builds it, restated with loops."""
    d = ops.shape[-1]
    tau = np.full((d, d), -1)
    for a, op in enumerate(ops):
        for k in range(d):
            rows = [r for r in range(d) if op[r, k] != 0]
            if len(rows) != 1 or tau[k, a % d] not in (-1, rows[0]):
                return False
            tau[k, a % d] = rows[0]
    return all(len(set(line)) == d for line in (*tau, *tau.T))


@SETTINGS
@hypothesis.given(basis=monomial_stacks())
def test_verify_monomial_stacks_match_dense_oracle(basis):
    assert_matches_dense_oracle(basis, structured=_has_layout(basis.ops))
