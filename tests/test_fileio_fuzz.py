"""Fuzzed file contents through the readers, the basis writer and `verify`.

Whatever JSON-shaped value a file holds, `matrix_from_obj` and
`basis_from_obj` return a finite complex array or raise ValueError, and
`entbasis verify` exits 0, 1 or 2. Any complex stack is written as the
stdlib encoder would write it and, when finite, reads back bit-exactly.
"""

import copy
import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
hnp = pytest.importorskip("hypothesis.extra.numpy")

from entbasis import EntangledBasis, fourier_basis  # noqa: E402
from entbasis.cli import main  # noqa: E402
from entbasis.fileio import (  # noqa: E402
    basis_from_obj,
    basis_to_obj,
    dump_basis,
    load_json,
    matrix_from_obj,
)

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
